package core

import (
	"fmt"

	"isolbench/internal/cgroup"
	"isolbench/internal/fault"
	"isolbench/internal/metrics"
	"isolbench/internal/runpool"
	"isolbench/internal/sim"
	"isolbench/internal/workload"
)

// ResilienceConfig parameterizes one resilience cell: two weighted
// tenant groups on one device, run twice with the same seed — once
// healthy, once under a fault profile — so every difference between the
// runs is the fault's doing and every knob column sees the identical
// fault schedule.
type ResilienceConfig struct {
	Knob   Knob
	Fault  fault.Profile
	Warmup sim.Duration
	// Measure is the faulted observation window; fault windows land
	// inside it (the profile horizon covers warmup+measure).
	Measure sim.Duration
	Cores   int
	Seed    uint64
	Control RunControl // cancellation/watchdog/paranoid settings

	// Attr additionally runs both sides with interference attribution
	// so the cell reports how the protected tenant's dominant blame
	// layer shifts under the fault profile.
	Attr bool
}

func (c ResilienceConfig) withDefaults() ResilienceConfig {
	if c.Warmup <= 0 {
		c.Warmup = 300 * sim.Millisecond
	}
	if c.Measure <= 0 {
		c.Measure = 2 * sim.Second
	}
	if c.Cores <= 0 {
		c.Cores = 20
	}
	return c
}

// ResilienceResult is one (knob, fault profile) cell: how much the
// fault inflated the protected tenant's tail, whether weighted
// proportionality survived, and how fast aggregate throughput came
// back after the last fault window.
type ResilienceResult struct {
	Knob  Knob
	Fault string

	BaseP99  sim.Duration // high-weight tenant, healthy run
	FaultP99 sim.Duration // high-weight tenant, faulted run
	// P99Inflation = FaultP99/BaseP99 (1 = unharmed).
	P99Inflation float64

	BaseJain  float64 // weighted Jain's index, healthy run
	FaultJain float64 // weighted Jain's index, faulted run

	BaseBW  float64 // aggregate bytes/sec, healthy run
	FaultBW float64 // aggregate bytes/sec, faulted run

	// Recovery is the time from the end of the last fault window until
	// aggregate windowed bandwidth regained 85% of the healthy mean for
	// two consecutive 100 ms windows. Recovered is false when that
	// never happened inside the measure window; HasWindows is false for
	// purely per-request profiles (e.g. flaky), where burst recovery is
	// not defined.
	Recovery   sim.Duration
	Recovered  bool
	HasWindows bool

	Errors   uint64
	Retries  uint64
	Timeouts uint64

	// Blame shift (only when ResilienceConfig.Attr): the protected
	// tenant's dominant wait layer and its share, healthy vs faulted.
	HasBlame   bool
	BaseBlame  string
	FaultBlame string
}

// resilienceWeights is the 1:4 two-tenant split every cell uses,
// ascending because applyFairnessWeights maps MQ-DL priority classes by
// group index. The high-weight tenant (index protectedTenant) is the
// one whose tail the fault should not reach.
func resilienceWeights() []float64 { return []float64{1, 4} }

const protectedTenant = 1

// runResilienceCluster builds and runs one side of a cell (healthy or
// faulted, per opts.Fault) and returns the cluster plus its windowed
// result.
func runResilienceCluster(cfg ResilienceConfig, fp fault.Profile) (*Cluster, Result, error) {
	if fp.Enabled() && fp.Horizon <= 0 {
		// Fault activity stops at 75% of the measure window so the tail
		// of every run can observe recovery; without this the last
		// fault window tends to butt up against the end of the run and
		// "recovered" would be unobservable by construction.
		fp.Horizon = cfg.Warmup + cfg.Measure*3/4
	}
	cl, err := NewCluster(Options{
		Knob:    cfg.Knob,
		Cores:   cfg.Cores,
		Seed:    cfg.Seed,
		Fault:   fp,
		Control: cfg.Control,
		Attr:    cfg.Attr,
	})
	if err != nil {
		return nil, Result{}, err
	}
	weights := resilienceWeights()
	var groups []*cgroup.Group
	appIdx := 0
	for gi := range weights {
		g, err := cl.NewGroup(fmt.Sprintf("tenant%d", gi))
		if err != nil {
			return nil, Result{}, err
		}
		groups = append(groups, g)
		for j := 0; j < 2; j++ {
			spec := workload.BatchApp(fmt.Sprintf("t%d-a%d", gi, j), g)
			spec.Core = appIdx
			appIdx++
			if _, err := cl.AddApp(spec, 0); err != nil {
				return nil, Result{}, err
			}
		}
	}
	if err := applyFairnessWeights(cfg.Knob, groups, weights); err != nil {
		return nil, Result{}, err
	}
	if err := cl.RunPhase(cfg.Warmup, cfg.Measure); err != nil {
		return nil, Result{}, err
	}
	return cl, cl.Result(), nil
}

// RunResilience executes one resilience cell: a healthy run and a
// faulted run from the same seed, compared.
func RunResilience(cfg ResilienceConfig) (*ResilienceResult, error) {
	cfg = cfg.withDefaults()
	if !cfg.Fault.Enabled() {
		return nil, fmt.Errorf("resilience: fault profile %q injects nothing", cfg.Fault.Name)
	}

	baseCl, base, err := runResilienceCluster(cfg, fault.Profile{})
	if err != nil {
		return nil, err
	}
	flCl, fl, err := runResilienceCluster(cfg, cfg.Fault)
	if err != nil {
		return nil, err
	}

	weights := resilienceWeights()
	res := &ResilienceResult{
		Knob:      cfg.Knob,
		Fault:     cfg.Fault.Name,
		BaseP99:   base.Groups[protectedTenant].P99,
		FaultP99:  fl.Groups[protectedTenant].P99,
		BaseJain:  metrics.WeightedJainIndex(groupBWs(base), weights),
		FaultJain: metrics.WeightedJainIndex(groupBWs(fl), weights),
		BaseBW:    base.AggregateBW,
		FaultBW:   fl.AggregateBW,
		Errors:    fl.Errors,
		Retries:   fl.Retries,
		Timeouts:  fl.Timeouts,
	}
	if res.BaseP99 > 0 {
		res.P99Inflation = float64(res.FaultP99) / float64(res.BaseP99)
	}
	res.Recovery, res.Recovered, res.HasWindows = measureRecovery(flCl, base.AggregateBW)
	if cfg.Attr {
		res.HasBlame = true
		res.BaseBlame = topBlameOf(baseCl)
		res.FaultBlame = topBlameOf(flCl)
	}
	return res, nil
}

// topBlameOf renders the protected tenant's dominant wait layer, e.g.
// "devqueue 72%", or "-" when it recorded no attributable wait.
func topBlameOf(cl *Cluster) string {
	if cl.Attr == nil || len(cl.Groups) <= protectedTenant {
		return "-"
	}
	l, share, ok := cl.Attr.TopLayer(cl.Groups[protectedTenant].ID())
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%s %.0f%%", l, share*100)
}

func groupBWs(r Result) []float64 {
	out := make([]float64, len(r.Groups))
	for i, g := range r.Groups {
		out[i] = g.BW
	}
	return out
}

// measureRecovery walks the faulted cluster's aggregate bandwidth in
// 100 ms windows from the end of its last fault window, looking for two
// consecutive windows at >= 85% of the healthy run's mean bandwidth.
func measureRecovery(cl *Cluster, baseBW float64) (sim.Duration, bool, bool) {
	if len(cl.Faults) == 0 || baseBW <= 0 {
		return 0, false, false
	}
	end := cl.Eng.Now()
	last, ok := cl.Faults[0].LastWindowEnd(end)
	if !ok {
		// Purely per-request profile: no windows, no recovery notion.
		return 0, false, false
	}
	if last < cl.measStart {
		last = cl.measStart
	}
	const window = 100 * sim.Millisecond
	const need = 2
	run := 0
	for t := last; t.Add(window) <= end; t = t.Add(window) {
		var agg float64
		for _, a := range cl.Apps {
			agg += a.Bandwidth().RateBetween(t, t.Add(window))
		}
		if agg >= 0.85*baseBW {
			run++
			if run == need {
				return t.Add(window).Sub(last), true, true
			}
		} else {
			run = 0
		}
	}
	return 0, false, true
}

// RunResilienceGrid sweeps knobs x fault profiles across the worker
// pool, one independent cell per unit, results in row-major
// (knob-major) order. Every cell uses the same seed on purpose: the
// injector seed depends only on (seed, device), so every knob faces the
// byte-identical fault schedule and the columns are comparable.
func RunResilienceGrid(knobs []Knob, profiles []fault.Profile, cfg ResilienceConfig, workers int) ([]*ResilienceResult, error) {
	n := len(knobs) * len(profiles)
	return runpool.MapCtx(cfg.Control.Ctx, workers, n, func(i int) (*ResilienceResult, error) {
		c := cfg
		c.Knob = knobs[i/len(profiles)]
		c.Fault = profiles[i%len(profiles)]
		return RunResilience(c)
	})
}
