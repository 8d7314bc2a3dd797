package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// hostEnv records what a run set ran on. calibMS is a drift diagnostic
// only: it never scales a metric.
type hostEnv struct {
	commit, src, goVersion, cpu string
	nproc, gomaxprocs           int
	calibMS                     float64
}

func (e hostEnv) String() string {
	return fmt.Sprintf("commit=%s src=%s go=%s nproc=%d gomaxprocs=%d cpu=%q host.calib_ms=%.3f",
		e.commit, e.src, e.goVersion, e.nproc, e.gomaxprocs, e.cpu, e.calibMS)
}

func describeEnv() hostEnv {
	e := hostEnv{
		commit: "none", src: sourceHash("."), goVersion: runtime.Version(), cpu: "unknown",
		nproc: runtime.NumCPU(), gomaxprocs: runtime.GOMAXPROCS(0), calibMS: calibrate(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.commit = s.Value
			}
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

// sourceHash identifies the Go source tree under root (a checkout need
// not be a git repository, so the commit may be unknown).
func sourceHash(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the hash
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.Type().IsRegular() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil)[:6])
}

// calibSink keeps the calibration loop from being optimized away.
var calibSink uint64

// calibrate times a fixed CPU-bound loop (median of three runs).
func calibrate() float64 {
	var ms []float64
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 50_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return median(ms)
}
