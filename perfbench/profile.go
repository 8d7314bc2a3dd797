package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// shareModules are the layers a CPU sample can be charged to, named
// after the repository's internal packages. Sub-packages fold into
// their parent (ioctl/iocost -> ioctl, obs/attr -> obs, workload/gen ->
// workload).
var shareModules = []string{
	"sim", "device", "blk", "iosched", "ioctl", "cgroup", "core",
	"workload", "trace", "fault", "metrics", "obs", "host",
}

// moduleShares decodes a gzipped pprof CPU profile and returns each
// module's share of the samples taken inside RunPhase, plus the sample
// count. A sample counts when it carries the run label, or when it has
// no label and no isolbench frame (background GC and runtime work,
// which no goroutine label reaches). It is charged to its innermost
// isolbench frame's module; samples with no isolbench frame go to
// "runtime.gc", and isolbench frames outside shareModules to "other".
func moduleShares(raw []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(b)
	if err != nil {
		return nil, 0, err
	}
	known := map[string]bool{}
	for _, m := range shareModules {
		known[m] = true
	}
	// moduleOf caches each location's innermost isolbench module ("" =
	// none).
	moduleOf := map[uint64]string{}
	for id, fns := range p.locFuncs {
		for _, fn := range fns {
			if m := isolbenchModule(p.str(p.funcName[fn])); m != "" {
				if !known[m] {
					m = "other"
				}
				moduleOf[id] = m
				break
			}
		}
	}
	charged := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		mod := ""
		for _, loc := range s.locs {
			if m := moduleOf[loc]; m != "" {
				mod = m
				break
			}
		}
		inRun := false
		for _, l := range s.labels {
			if p.str(l[0]) == "span" && p.str(l[1]) == "run" {
				inRun = true
			}
		}
		if !inRun && (len(s.labels) > 0 || mod != "") {
			continue
		}
		if mod == "" {
			mod = "runtime.gc"
		}
		charged[mod] += s.count
		total += s.count
	}
	shares := map[string]float64{}
	if total == 0 {
		return shares, 0, nil
	}
	for m, c := range charged {
		shares[m] = float64(c) / float64(total)
	}
	return shares, total, nil
}

// isolbenchModule maps a function name such as
// "isolbench/internal/ioctl/iocost.(*Controller).hweight" to its
// module ("ioctl"); names outside the isolbench module map to "".
func isolbenchModule(fn string) string {
	switch {
	case strings.HasPrefix(fn, "isolbench/internal/"):
		rest := fn[len("isolbench/internal/"):]
		if i := strings.IndexAny(rest, "/."); i >= 0 {
			rest = rest[:i]
		}
		return rest
	case strings.HasPrefix(fn, "isolbench/"), strings.HasPrefix(fn, "isolbench."):
		return "other"
	}
	return ""
}

// profile holds the parts of a pprof profile.proto the shares need.
type profile struct {
	strings  []string
	funcName map[uint64]int64    // function id -> name string index
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	samples  []sample
}

type sample struct {
	locs   []uint64   // leaf first
	count  int64      // the first sample value
	labels [][2]int64 // (key, str) string indexes
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// parseProfile decodes the protobuf fields of profile.proto used here:
// Profile.sample (2), .location (4), .function (5), .string_table (6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{funcName: map[uint64]int64{}, locFuncs: map[uint64][]uint64{}}
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case 2:
			var s sample
			var vals []uint64
			err := eachField(data, func(num int, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, data)
				case 2:
					vals = appendVarints(vals, wire, v, data)
				case 3:
					var l [2]int64
					err := eachField(data, func(num int, _ int, v uint64, _ []byte) error {
						if num == 1 || num == 2 {
							l[num-1] = int64(v)
						}
						return nil
					})
					if err != nil {
						return err
					}
					s.labels = append(s.labels, l)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(data, func(num int, _ int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(data, func(num int, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case 5:
			var id uint64
			var name int64
			err := eachField(data, func(num int, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcName[id] = name
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// appendVarints appends a repeated integer field that may arrive
// packed (wire type 2) or one value at a time (wire type 0).
func appendVarints(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks the top-level fields of a protobuf message, passing
// varints as v and length-delimited fields as data.
func eachField(b []byte, fn func(num int, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
