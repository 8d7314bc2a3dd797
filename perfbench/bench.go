package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"

	"isolbench/internal/core"
)

// cellOut is one cell's outcome in one pass.
type cellOut struct {
	name   string
	digest string
	err    error
	last   core.Result // the last window's result
}

// counts are the exact, deterministic per-layer counters of a pass,
// read from public accessors at each window end and cell end.
type counts struct {
	events, submitted, completed          uint64
	retries, timeouts, failures           uint64
	gcEvents, faultErrors                 uint64
	pendingSum, pendingN, pendingMax      int
	ctx, cycles                           float64
	cpuIOs                                uint64
	schedPeak                             int
	spansDropped, seriesDropped, foldedCg uint64
}

// passOut is one pass over every cell of a workload.
type passOut struct {
	cells []cellOut
	sp    spans
	setup time.Duration // summed host time before each cell's first RunPhase
	wall  time.Duration
	n     counts
}

// runLabels marks the profile samples taken inside RunPhase.
var runLabels = pprof.Labels("span", "run")

// runPass sets up, runs and digests every cell once; its wall time
// sums the cells' own. With label set, RunPhase runs under
// runLabels so a CPU profile can isolate it. A non-nil ref samples
// the reference before phases and from churn callbacks, at most every
// refEvery, and once after the last cell; its time is kept out of the
// pass's wall and run times.
func runPass(cells []cell, ctl core.RunControl, label bool, ref *refClock) passOut {
	var p passOut
	for _, c := range cells {
		// Each cell starts from a collected heap, so the garbage of
		// earlier cells does not move its memory peak.
		settle()
		t0 := time.Now()
		var inRef time.Duration
		out := runCell(c, ctl, label, ref, &inRef, &p)
		p.wall += time.Since(t0) - inRef
		p.cells = append(p.cells, out)
	}
	if ref != nil {
		ref.sample()
	}
	return p
}

func runCell(c cell, ctl core.RunControl, label bool, ref *refClock, inRef *time.Duration, p *passOut) cellOut {
	out := cellOut{name: c.name}
	t0 := time.Now()
	lv, err := c.setup(&p.sp, ctl)
	p.setup += time.Since(t0)
	if err != nil {
		out.err = fmt.Errorf("setup: %w", err)
		return out
	}
	fl := lv.fleet
	lv.tick = func() { *inRef += ref.tick() }
	dg := newDigest()
	for _, ph := range lv.phases {
		lv.tick()
		before := *inRef
		err = timed(&p.sp.run, func() (err error) {
			if !label {
				return fl.RunPhase(ph.warmup, ph.measure)
			}
			pprof.Do(context.Background(), runLabels, func(context.Context) {
				err = fl.RunPhase(ph.warmup, ph.measure)
			})
			return err
		})
		// Reference samples taken inside RunPhase are not run time.
		p.sp.run -= *inRef - before
		if err != nil {
			out.err = fmt.Errorf("run: %w", err)
			return out
		}
		pend := fl.Eng.Pending()
		p.n.pendingSum += pend
		p.n.pendingN++
		if pend > p.n.pendingMax {
			p.n.pendingMax = pend
		}
		_ = timed(&p.sp.result, func() error {
			out.last = fl.Result()
			dg.result(out.last)
			if rp := lv.replay; rp != nil {
				dg.appStats(rp.Stats())
				dg.u64(rp.IssuedWindow())
				dg.u64(uint64(fl.Obs.SLOFired(lv.replayGroup)))
			}
			return nil
		})
	}
	if lv.churnErr != nil {
		out.err = lv.churnErr
		return out
	}
	if lv.replay != nil {
		if err := lv.replay.Err(); err != nil {
			out.err = fmt.Errorf("replay source: %w", err)
			return out
		}
	}
	_ = timed(&p.sp.result, func() error {
		dg.fleetEnd(fl)
		out.digest = dg.sum()
		return nil
	})
	n := &p.n
	n.events += fl.Eng.Processed()
	for i, q := range fl.Queues {
		n.submitted += q.Submitted()
		n.completed += q.Completed()
		n.retries += q.Retries()
		n.timeouts += q.Timeouts()
		n.failures += q.Failures()
		s := fl.Devices[i].Stats()
		n.gcEvents += s.GCEvents
		n.faultErrors += s.FaultErrors
	}
	ctxs, cyc, ios := fl.CPU.Counters()
	n.ctx += ctxs
	n.cycles += cyc
	n.cpuIOs += ios
	if lv.replay != nil && lv.replay.SchedPeak() > n.schedPeak {
		n.schedPeak = lv.replay.SchedPeak()
	}
	n.spansDropped += fl.Obs.SpansDropped()
	n.seriesDropped += fl.Obs.SeriesDropped()
	n.foldedCg += uint64(fl.Obs.FoldedCgroups())
	return out
}

// setupOnly builds every cell without running it and returns the
// summed set-up time.
func setupOnly(cells []cell, ctl core.RunControl) (time.Duration, error) {
	var sp spans
	t0 := time.Now()
	for _, c := range cells {
		if _, err := c.setup(&sp, ctl); err != nil {
			return 0, fmt.Errorf("%s: setup: %w", c.name, err)
		}
	}
	return time.Since(t0), nil
}

// profiledPass runs a pass under the CPU profiler and returns it with
// the raw profile.
func profiledPass(cells []cell, ctl core.RunControl) (passOut, []byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return passOut{}, nil, err
	}
	p := runPass(cells, ctl, true, nil)
	pprof.StopCPUProfile()
	return p, buf.Bytes(), nil
}

// rtSample reads the runtime counters the traced run reports as deltas.
type rtSample struct{ allocBytes, allocObjs, gcCycles uint64 }

func readRuntime() rtSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	var out rtSample
	for i, v := range []*uint64{&out.allocBytes, &out.allocObjs, &out.gcCycles} {
		if s[i].Value.Kind() == metrics.KindUint64 {
			*v = s[i].Value.Uint64()
		}
	}
	return out
}

func (a rtSample) minus(b rtSample) rtSample {
	return rtSample{a.allocBytes - b.allocBytes, a.allocObjs - b.allocObjs, a.gcCycles - b.gcCycles}
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// settle collects garbage between passes so one pass's heap does not
// bill the next.
func settle() { runtime.GC() }
