package core

import (
	"fmt"

	"isolbench/internal/cgroup"
	"isolbench/internal/device"
	"isolbench/internal/metrics"
	"isolbench/internal/runpool"
	"isolbench/internal/sim"
	"isolbench/internal/workload"
)

// FairnessMix selects the workload heterogeneity of a fairness run
// (§VI-A): uniform 4 KiB random reads, mixed request sizes (half the
// groups issue 256 KiB), mixed access patterns (half sequential), or
// mixed read/write (half write, exercising GC interference).
type FairnessMix int

// Fairness workload mixes.
const (
	MixUniform FairnessMix = iota
	MixSizes
	MixPatterns
	MixReadWrite
)

func (m FairnessMix) String() string {
	switch m {
	case MixSizes:
		return "sizes-4k-256k"
	case MixPatterns:
		return "rand-seq"
	case MixReadWrite:
		return "read-write"
	default:
		return "uniform"
	}
}

// FairnessConfig parameterizes one fairness experiment cell.
type FairnessConfig struct {
	Knob         Knob
	Profile      string
	Groups       int
	AppsPerGroup int // 4 in the paper: enough to saturate bandwidth
	Weighted     bool
	Mix          FairnessMix
	Repeats      int
	Cores        int
	Warmup       sim.Duration
	Measure      sim.Duration
	Seed         uint64
	Workers      int        // repeat fan-out (<=0 GOMAXPROCS, 1 sequential)
	Control      RunControl // cancellation/watchdog/paranoid settings
}

func (c FairnessConfig) withDefaults() FairnessConfig {
	if c.Groups <= 0 {
		c.Groups = 2
	}
	if c.AppsPerGroup <= 0 {
		c.AppsPerGroup = 4
	}
	if c.Repeats <= 0 {
		c.Repeats = 3
	}
	if c.Cores <= 0 {
		c.Cores = 20
	}
	if c.Warmup <= 0 {
		c.Warmup = 300 * sim.Millisecond
	}
	if c.Measure <= 0 {
		if c.Mix == MixReadWrite {
			c.Measure = 3 * sim.Second
		} else {
			c.Measure = 2 * sim.Second
		}
	}
	return c
}

// FairnessResult is one experiment cell's outcome, with repeat
// statistics (the paper repeats fairness runs 5x for stddev).
type FairnessResult struct {
	Knob     Knob
	Groups   int
	Weighted bool
	Mix      FairnessMix

	Jain    metrics.Welford // weighted Jain's index across repeats
	AggBW   metrics.Welford // aggregate bandwidth (bytes/sec)
	Weights []float64       // normalization weights used
	GroupBW []float64       // per-group bandwidth of the last repeat
}

// fairnessWeights returns the per-group weights: uniform, or linearly
// increasing with group index (the paper's weighted configuration).
func fairnessWeights(n int, weighted bool) []float64 {
	w := make([]float64, n)
	for i := range w {
		if weighted {
			w[i] = float64(i + 1)
		} else {
			w[i] = 1
		}
	}
	return w
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// RunFairness executes one fairness cell, repeating for deviation
// statistics, and returns weighted-Jain and aggregate-bandwidth
// distributions (Figs. 5 and 6). Repeats fan out across cfg.Workers
// (each repeat owns its own cluster, seeded by repeat index); the
// Welford accumulators are folded in repeat order on the calling
// goroutine, so the floating-point result is identical at any pool
// width.
func RunFairness(cfg FairnessConfig) (*FairnessResult, error) {
	cfg = cfg.withDefaults()
	weights := fairnessWeights(cfg.Groups, cfg.Weighted)
	res := &FairnessResult{
		Knob: cfg.Knob, Groups: cfg.Groups, Weighted: cfg.Weighted,
		Mix: cfg.Mix, Weights: weights,
	}
	type repOut struct {
		bws   []float64
		aggBW float64
	}
	reps, err := runpool.MapCtx(cfg.Control.Ctx, cfg.Workers, cfg.Repeats, func(rep int) (repOut, error) {
		bws, aggBW, err := runFairnessRepeat(cfg, weights, rep)
		return repOut{bws: bws, aggBW: aggBW}, err
	})
	if err != nil {
		return nil, err
	}
	for _, r := range reps {
		res.GroupBW = r.bws
		res.Jain.Add(metrics.WeightedJainIndex(r.bws, weights))
		res.AggBW.Add(r.aggBW)
	}
	return res, nil
}

// runFairnessRepeat runs one seeded repeat of a fairness cell and
// returns the per-group and aggregate bandwidths.
func runFairnessRepeat(cfg FairnessConfig, weights []float64, rep int) ([]float64, float64, error) {
	prof, err := resolveProfile(cfg.Profile)
	if err != nil {
		return nil, 0, err
	}
	opts := Options{
		Knob:         cfg.Knob,
		Profile:      prof,
		Cores:        cfg.Cores,
		Seed:         cfg.Seed + uint64(rep)*101,
		Precondition: cfg.Mix == MixReadWrite,
		Control:      cfg.Control,
	}
	cl, err := NewCluster(opts)
	if err != nil {
		return nil, 0, err
	}
	var groups []*cgroup.Group
	appIdx := 0
	for gi := 0; gi < cfg.Groups; gi++ {
		g, err := cl.NewGroup(fmt.Sprintf("tenant%d", gi))
		if err != nil {
			return nil, 0, err
		}
		groups = append(groups, g)
		for j := 0; j < cfg.AppsPerGroup; j++ {
			spec := workload.BatchApp(fmt.Sprintf("t%d-a%d", gi, j), g)
			switch cfg.Mix {
			case MixSizes:
				if gi%2 == 1 {
					spec.Size = 256 << 10
					spec.QD = 64 // same bytes in flight as 4 KiB@256 x 4
				}
			case MixPatterns:
				spec.Seq = gi%2 == 1
			case MixReadWrite:
				if gi%2 == 1 {
					spec.Op = device.Write
				}
			}
			spec.Core = appIdx
			appIdx++
			if _, err := cl.AddApp(spec, 0); err != nil {
				return nil, 0, err
			}
		}
	}
	if cfg.Weighted || cfg.Knob.def().uniformCaps {
		if err := applyFairnessWeights(cfg.Knob, groups, weights); err != nil {
			return nil, 0, err
		}
	}
	if err := cl.RunPhase(cfg.Warmup, cfg.Measure); err != nil {
		return nil, 0, err
	}
	r := cl.Result()
	bws := make([]float64, len(r.Groups))
	for i, g := range r.Groups {
		bws[i] = g.BW
	}
	return bws, r.AggregateBW, nil
}

// FairnessSweepConfig parameterizes the Fig. 5 sweep: group counts x
// {uniform, weighted} for one knob. It is the template shape for
// sweep-style runner configs (cf. FleetScaleConfig).
type FairnessSweepConfig struct {
	Knob        Knob
	Profile     string
	GroupCounts []int // nil -> {2, 4, 8, 16}
	Weighted    bool
	Repeats     int
	Seed        uint64
	Workers     int        // group-count fan-out (<=0 GOMAXPROCS, 1 sequential)
	Control     RunControl // cancellation/watchdog/paranoid settings
}

func (c FairnessSweepConfig) withDefaults() FairnessSweepConfig {
	if len(c.GroupCounts) == 0 {
		c.GroupCounts = []int{2, 4, 8, 16}
	}
	return c
}

// FairnessScalability runs the Fig. 5 sweep. Group counts fan out
// across workers; each cell's repeats fan out in turn.
func FairnessScalability(cfg FairnessSweepConfig) ([]*FairnessResult, error) {
	cfg = cfg.withDefaults()
	return runpool.MapCtx(cfg.Control.Ctx, cfg.Workers, len(cfg.GroupCounts), func(i int) (*FairnessResult, error) {
		return RunFairness(FairnessConfig{
			Knob: cfg.Knob, Profile: cfg.Profile, Groups: cfg.GroupCounts[i], Weighted: cfg.Weighted,
			Repeats: cfg.Repeats, Seed: cfg.Seed, Workers: cfg.Workers, Control: cfg.Control,
		})
	})
}
