package core

import (
	"fmt"
	"io"
	"text/tabwriter"

	"isolbench/internal/cgroup"
	"isolbench/internal/fault"
	"isolbench/internal/obs"
	"isolbench/internal/runpool"
	"isolbench/internal/sim"
	"isolbench/internal/trace"
	"isolbench/internal/workload"
	"isolbench/internal/workload/gen"
)

// TraceReplayConfig parameterizes one trace-replay cell: an open-loop
// production-shaped tenant (streamed from a generative trace.Source)
// run twice with the same seed — once alone on the device, once next
// to saturating closed-loop neighbors — under a fault profile, with
// the measurement split into load-curve phases. Because the tenant is
// open loop and its arrival stream is a pure function of the seed,
// both sides see byte-identical offered load and every latency
// difference is the neighbors' (and the knob's) doing.
type TraceReplayConfig struct {
	Knob Knob
	// Shape selects the generative workload: "diurnal", "heavytail",
	// "mmpp", or "fitted" (record a diurnal trace, fit a gen.Model,
	// resample a fresh scenario from it).
	Shape string
	Fault fault.Profile

	// Phases splits the measurement into equal windows so non-steady
	// shapes report per-phase isolation (0 = 4); PhaseDur is each
	// window's length (0 = 500 ms).
	Phases   int
	PhaseDur sim.Duration
	Warmup   sim.Duration // 0 = 100 ms
	Cores    int
	Seed     uint64
	// SLO arms burn-rate monitoring on the replay tenant; zero P99
	// defaults to 2 ms with windows scaled to PhaseDur.
	SLO     obs.SLOConfig
	Control RunControl
}

func (c TraceReplayConfig) withDefaults() TraceReplayConfig {
	if c.Phases <= 0 {
		c.Phases = 4
	}
	if c.PhaseDur <= 0 {
		c.PhaseDur = 500 * sim.Millisecond
	}
	if c.Warmup <= 0 {
		c.Warmup = 100 * sim.Millisecond
	}
	if c.SLO.P99 <= 0 {
		c.SLO.P99 = 2 * sim.Millisecond
	}
	if c.SLO.FastWindow <= 0 {
		c.SLO.FastWindow = c.PhaseDur / 5
	}
	if c.SLO.SlowWindow <= 0 {
		c.SLO.SlowWindow = c.PhaseDur
	}
	return c
}

// span is the full generation horizon: warmup plus every phase.
func (c TraceReplayConfig) span() sim.Duration {
	return c.Warmup + sim.Duration(c.Phases)*c.PhaseDur
}

// TraceReplayShapes lists the generative workload shapes the
// experiment sweeps.
func TraceReplayShapes() []string {
	return []string{"diurnal", "heavytail", "mmpp", "fitted"}
}

// replayShape builds the generative Shape for a named workload over
// the config's horizon. The diurnal period spans the whole run, so the
// phases sweep trough -> peak -> trough.
func (c TraceReplayConfig) replayShape(name string) (gen.Shape, bool) {
	base := gen.Shape{Seed: c.Seed*31 + 1, Duration: c.span()}
	switch name {
	case "diurnal":
		base.BaseIOPS = 35000
		base.DiurnalAmp = 0.8
		return base, true
	case "heavytail":
		base.BaseIOPS = 6000
		base.SizeAlpha = 1.3
		base.SizeCap = 512 << 10
		base.ReadFrac = 0.7
		base.Users = 64
		return base, true
	case "mmpp":
		base.BaseIOPS = 12000
		base.Arrivals = gen.MMPP
		base.BurstDwell = 40 * sim.Millisecond
		return base, true
	default:
		return gen.Shape{}, false
	}
}

// replaySourceFor returns a factory of fresh, identical trace sources
// for the cell's shape — each side of the cell streams its own copy.
func replaySourceFor(cfg TraceReplayConfig) (func() trace.Source, error) {
	if sh, ok := cfg.replayShape(cfg.Shape); ok {
		return func() trace.Source { return sh.Source() }, nil
	}
	if cfg.Shape != "fitted" {
		return nil, fmt.Errorf("tracereplay: unknown shape %q", cfg.Shape)
	}
	// Fitted mode closes the record -> fit -> resample loop: generate a
	// diurnal "production" trace, fit the compact model, then replay a
	// fresh scenario resampled from the model under a different seed.
	rec, _ := cfg.replayShape("diurnal")
	rec.Seed = cfg.Seed*53 + 11
	rec.BaseIOPS = 20000
	entries, err := trace.Collect(rec.Source(), 0)
	if err != nil {
		return nil, fmt.Errorf("tracereplay: recording the fit trace: %w", err)
	}
	model, err := gen.Fit(entries, 16)
	if err != nil {
		return nil, fmt.Errorf("tracereplay: fitting: %w", err)
	}
	return func() trace.Source { return model.Source(cfg.Seed*101+7, 1) }, nil
}

// tracereplaySide is one run side's per-phase measurements.
type tracereplaySide struct {
	offered []float64 // arrivals/sec issued by the replay tenant
	p99     []sim.Duration
	errors  []uint64
	retries []uint64
	burns   []int
}

// runTraceReplaySide builds and runs one side of a cell. Both sides
// create the same groups and apply the same knob weights, so the knob
// configuration — and hence the controllers' setup-time events — is
// identical; contention only adds the neighbor apps.
func runTraceReplaySide(cfg TraceReplayConfig, src trace.Source, contended bool) (*tracereplaySide, error) {
	fp := cfg.Fault
	if fp.Enabled() && fp.Horizon <= 0 {
		// Stop injecting at 75% of the run so the last phase can observe
		// recovery, mirroring the resilience experiment.
		fp.Horizon = cfg.Warmup + sim.Duration(cfg.Phases)*cfg.PhaseDur*3/4
	}
	cl, err := NewCluster(Options{
		Knob:    cfg.Knob,
		Cores:   cfg.Cores,
		Seed:    cfg.Seed,
		Fault:   fp,
		SLO:     cfg.SLO,
		Control: cfg.Control,
	})
	if err != nil {
		return nil, err
	}
	gNbr, err := cl.NewGroup("neighbor")
	if err != nil {
		return nil, err
	}
	gRep, err := cl.NewGroup("replay")
	if err != nil {
		return nil, err
	}
	groups := []*cgroup.Group{gNbr, gRep}
	// Ascending weights, replay protected at index 1 (the
	// applyFairnessWeights priority-class convention).
	if err := applyFairnessWeights(cfg.Knob, groups, []float64{1, 4}); err != nil {
		return nil, err
	}
	if contended {
		for j := 0; j < 2; j++ {
			spec := workload.BatchApp(fmt.Sprintf("nbr%d", j), gNbr)
			spec.Core = j
			if _, err := cl.AddApp(spec, 0); err != nil {
				return nil, err
			}
		}
	}
	rp, err := cl.AddReplay(src, workload.ReplayConfig{Group: gRep, Core: 2}, 0)
	if err != nil {
		return nil, err
	}

	side := &tracereplaySide{}
	fired := 0
	for ph := 0; ph < cfg.Phases; ph++ {
		warm := sim.Duration(0)
		if ph == 0 {
			warm = cfg.Warmup
		}
		if err := cl.RunPhase(warm, cfg.PhaseDur); err != nil {
			return nil, err
		}
		st := rp.Stats()
		side.offered = append(side.offered, float64(rp.IssuedWindow())/cfg.PhaseDur.Seconds())
		side.p99 = append(side.p99, sim.Duration(st.P99Ns))
		side.errors = append(side.errors, st.Errors)
		side.retries = append(side.retries, st.Retries)
		now := cl.Obs.SLOFired(gRep.ID())
		side.burns = append(side.burns, now-fired)
		fired = now
	}
	if err := rp.Err(); err != nil {
		return nil, fmt.Errorf("tracereplay: replay source: %w", err)
	}
	return side, nil
}

// TraceReplayPhase is one load-curve phase of a cell: the replay
// tenant's offered load, its tail solo vs contended, and the burn-rate
// incidents the contention cost it.
type TraceReplayPhase struct {
	Offered   float64 // replay arrivals/sec this phase
	SoloP99   sim.Duration
	ContP99   sim.Duration
	Inflation float64 // ContP99/SoloP99 (1 = fully isolated)
	Errors    uint64  // terminal failures, contended side
	Retries   uint64  // retry attempts, contended side
	Burns     int     // SLO burn incidents that started this phase, contended side
}

// TraceReplayResult is one (knob, shape, fault) cell.
type TraceReplayResult struct {
	Knob  Knob
	Shape string
	Fault string
	SLO   sim.Duration

	Phases []TraceReplayPhase
	// WorstInflation is the maximum per-phase P99 inflation; Isolates
	// mirrors the paper's verdict style (inflation <= 2.5x in every
	// phase).
	WorstInflation float64
	Isolates       bool
}

// traceReplayIsolationBar is the per-phase P99 inflation a knob may
// impose on the protected open-loop tenant and still count as
// isolating (matches the attribution experiment's 2.5x bar).
const traceReplayIsolationBar = 2.5

// RunTraceReplay executes one cell: the same generative arrival stream
// replayed solo and contended under the same seed and fault schedule.
func RunTraceReplay(cfg TraceReplayConfig) (*TraceReplayResult, error) {
	cfg = cfg.withDefaults()
	mkSource, err := replaySourceFor(cfg)
	if err != nil {
		return nil, err
	}
	solo, err := runTraceReplaySide(cfg, mkSource(), false)
	if err != nil {
		return nil, err
	}
	cont, err := runTraceReplaySide(cfg, mkSource(), true)
	if err != nil {
		return nil, err
	}

	name := cfg.Fault.Name
	if !cfg.Fault.Enabled() {
		name = "healthy"
	}
	res := &TraceReplayResult{
		Knob:     cfg.Knob,
		Shape:    cfg.Shape,
		Fault:    name,
		SLO:      cfg.SLO.P99,
		Isolates: true,
	}
	for ph := 0; ph < cfg.Phases; ph++ {
		p := TraceReplayPhase{
			// Open loop: both sides issued the identical stream; report
			// the contended side's count (they agree by construction).
			Offered: cont.offered[ph],
			SoloP99: solo.p99[ph],
			ContP99: cont.p99[ph],
			Errors:  cont.errors[ph],
			Retries: cont.retries[ph],
			Burns:   cont.burns[ph],
		}
		if p.SoloP99 > 0 {
			p.Inflation = float64(p.ContP99) / float64(p.SoloP99)
		}
		if p.Inflation > res.WorstInflation {
			res.WorstInflation = p.Inflation
		}
		if p.Inflation > traceReplayIsolationBar {
			res.Isolates = false
		}
		res.Phases = append(res.Phases, p)
	}
	return res, nil
}

// RunTraceReplayGrid sweeps shapes x fault profiles for one knob
// across the worker pool, one independent cell per unit, results in
// shape-major order.
func RunTraceReplayGrid(shapes []string, profiles []fault.Profile, cfg TraceReplayConfig, workers int) ([]*TraceReplayResult, error) {
	n := len(shapes) * len(profiles)
	return runpool.MapCtx(cfg.Control.Ctx, workers, n, func(i int) (*TraceReplayResult, error) {
		c := cfg
		c.Shape = shapes[i/len(profiles)]
		c.Fault = profiles[i%len(profiles)]
		return RunTraceReplay(c)
	})
}

// WriteTraceReplay prints the per-phase table and the per-cell
// isolation verdicts.
func WriteTraceReplay(w io.Writer, rs []*TraceReplayResult) {
	if len(rs) == 0 {
		return
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "# tracereplay: knob=%s, open-loop production shapes solo vs contended (replay weight 4, neighbors weight 1, slo p99<%s)\n",
		rs[0].Knob, rs[0].SLO)
	fmt.Fprintln(tw, "shape\tfault\tphase\toffered_iops\tsolo_p99\tcont_p99\tinflation\terrs\tretries\tslo_burns")
	for _, r := range rs {
		for ph, p := range r.Phases {
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.0f\t%s\t%s\t%.2fx\t%d\t%d\t%d\n",
				r.Shape, r.Fault, ph, p.Offered, p.SoloP99, p.ContP99,
				p.Inflation, p.Errors, p.Retries, p.Burns)
		}
	}
	tw.Flush()
	for _, r := range rs {
		verdict := "isolates"
		if !r.Isolates {
			verdict = "leaks"
		}
		fmt.Fprintf(w, "verdict\t%s\t%s/%s\t%s\tworst_inflation=%.2fx\n",
			rs[0].Knob, r.Shape, r.Fault, verdict, r.WorstInflation)
	}
}
