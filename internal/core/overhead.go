package core

import (
	"fmt"

	"isolbench/internal/cgroup"
	"isolbench/internal/metrics"
	"isolbench/internal/runpool"
	"isolbench/internal/sim"
	"isolbench/internal/workload"
)

// NeutralizeKnob configures a tenant group so the knob's control
// machinery runs but never actually throttles, per §V: io.max gets a
// limit far beyond saturation, io.latency a multi-second target, and
// priority classes stay unset. (io.cost is neutralized cluster-wide
// via UnthrottledCostModel/QoS; BFQ via BFQSliceIdleOff.)
func NeutralizeKnob(k Knob, g *cgroup.Group) error {
	d := k.def()
	if d.neutralFile == "" {
		return nil
	}
	return g.SetFile(d.neutralFile, d.neutralValue)
}

// overheadOptions returns cluster options with the knob neutralized
// for D1 measurements.
func overheadOptions(k Knob, profile string, cores, devices int, seed uint64) (Options, error) {
	prof, err := resolveProfile(profile)
	if err != nil {
		return Options{}, err
	}
	return Options{
		Knob:            k,
		Profile:         prof,
		Cores:           cores,
		Devices:         devices,
		Seed:            seed,
		BFQSliceIdleOff: true, // §V: slice_idle disabled for overhead runs
		IOCostModel:     UnthrottledCostModel,
		IOCostQoS:       UnthrottledCostQoS,
		Shaper:          k.def().neutralShaper,
	}, nil
}

// LatencyScalingPoint is one (apps, latency/CPU) sample of Fig. 3.
type LatencyScalingPoint struct {
	Apps        int
	P50         sim.Duration
	P99         sim.Duration
	MeanNs      float64
	CPUUtil     float64
	CtxPerIO    float64
	CyclesPerIO float64
	CDF         []metrics.CDFPoint
	IOPS        float64
}

// LatencyScalingConfig parameterizes the Fig. 3 experiment.
type LatencyScalingConfig struct {
	Knob      Knob
	Profile   string // device profile name ("" -> flash980)
	AppCounts []int  // e.g. 1..256; nil -> {1,2,4,...,256}
	Warmup    sim.Duration
	Measure   sim.Duration
	Seed      uint64
	CDFPoints int
	Workers   int        // app-count fan-out (<=0 GOMAXPROCS, 1 sequential)
	Control   RunControl // cancellation/watchdog/paranoid settings
}

func (c LatencyScalingConfig) withDefaults() LatencyScalingConfig {
	if len(c.AppCounts) == 0 {
		c.AppCounts = []int{1, 2, 4, 8, 16, 32, 64, 128, 256}
	}
	if c.Warmup <= 0 {
		c.Warmup = 200 * sim.Millisecond
	}
	if c.Measure <= 0 {
		c.Measure = 2 * sim.Second
	}
	if c.CDFPoints <= 0 {
		c.CDFPoints = 64
	}
	return c
}

// RunLatencyScaling reproduces Fig. 3 for one knob: N LC-apps (4 KiB
// random reads, QD1), each in its own cgroup, all pinned to a single
// CPU core on one SSD; latency CDF/P99 and core utilization per N.
// App counts are independent units (one cluster each, seeded by N) and
// fan out across cfg.Workers in count order.
func RunLatencyScaling(cfg LatencyScalingConfig) ([]LatencyScalingPoint, error) {
	cfg = cfg.withDefaults()
	return runpool.MapCtx(cfg.Control.Ctx, cfg.Workers, len(cfg.AppCounts), func(ci int) (LatencyScalingPoint, error) {
		var zero LatencyScalingPoint
		n := cfg.AppCounts[ci]
		opts, err := overheadOptions(cfg.Knob, cfg.Profile, 1, 1, cfg.Seed+uint64(n))
		if err != nil {
			return zero, err
		}
		opts.Control = cfg.Control
		cl, err := NewCluster(opts)
		if err != nil {
			return zero, err
		}
		for i := 0; i < n; i++ {
			g, err := cl.NewGroup(fmt.Sprintf("lc%d", i))
			if err != nil {
				return zero, err
			}
			if err := NeutralizeKnob(cfg.Knob, g); err != nil {
				return zero, err
			}
			spec := workload.LCApp(fmt.Sprintf("lc%d", i), g)
			spec.Core = 0
			if _, err := cl.AddApp(spec, 0); err != nil {
				return zero, err
			}
		}
		if err := cl.RunPhase(cfg.Warmup, cfg.Measure); err != nil {
			return zero, err
		}
		res := cl.Result()
		h := cl.MergedHistogram()
		return LatencyScalingPoint{
			Apps:        n,
			P50:         sim.Duration(h.Percentile(50)),
			P99:         sim.Duration(h.Percentile(99)),
			MeanNs:      h.Mean(),
			CPUUtil:     res.CPUUtil,
			CtxPerIO:    res.CtxPerIO,
			CyclesPerIO: res.CyclesPerIO,
			CDF:         h.CDF(cfg.CDFPoints),
			IOPS:        float64(res.IOs) / res.Span.Seconds(),
		}, nil
	})
}

// BandwidthScalingPoint is one (apps, bandwidth/CPU) sample of Fig. 4.
type BandwidthScalingPoint struct {
	Apps        int
	Devices     int
	AggregateBW float64 // bytes/sec
	CPUUtil     float64
	IOPS        float64
}

// BandwidthScalingConfig parameterizes the Fig. 4 experiment.
type BandwidthScalingConfig struct {
	Knob      Knob
	Profile   string
	AppCounts []int // nil -> {1,2,3,5,9,13,17}
	Devices   int   // 1 or 7 in the paper
	Cores     int   // 10 in the paper
	Warmup    sim.Duration
	Measure   sim.Duration
	Seed      uint64
	Workers   int        // app-count fan-out (<=0 GOMAXPROCS, 1 sequential)
	Control   RunControl // cancellation/watchdog/paranoid settings
}

func (c BandwidthScalingConfig) withDefaults() BandwidthScalingConfig {
	if len(c.AppCounts) == 0 {
		c.AppCounts = []int{1, 2, 3, 5, 9, 13, 17}
	}
	if c.Devices <= 0 {
		c.Devices = 1
	}
	if c.Cores <= 0 {
		c.Cores = 10
	}
	if c.Warmup <= 0 {
		c.Warmup = 200 * sim.Millisecond
	}
	if c.Measure <= 0 {
		c.Measure = 1 * sim.Second
	}
	return c
}

// RunBandwidthScaling reproduces Fig. 4 for one knob: N batch-apps
// (4 KiB random reads, QD256) round-robined across the devices and
// cores; aggregate bandwidth and CPU utilization per N. App counts fan
// out across cfg.Workers in count order.
func RunBandwidthScaling(cfg BandwidthScalingConfig) ([]BandwidthScalingPoint, error) {
	cfg = cfg.withDefaults()
	return runpool.MapCtx(cfg.Control.Ctx, cfg.Workers, len(cfg.AppCounts), func(ci int) (BandwidthScalingPoint, error) {
		var zero BandwidthScalingPoint
		n := cfg.AppCounts[ci]
		opts, err := overheadOptions(cfg.Knob, cfg.Profile, cfg.Cores, cfg.Devices, cfg.Seed+uint64(n))
		if err != nil {
			return zero, err
		}
		opts.Control = cfg.Control
		if cfg.Devices > 1 {
			// The multi-device panel round-robins apps across cores AND
			// devices independently (app i -> core i%cores, device
			// i%devices), so one core serves apps on several device
			// columns. That violates the sharded runtime's core-to-shard
			// binding; keep this experiment on the single engine.
			opts.Control.Shards = 0
		}
		cl, err := NewCluster(opts)
		if err != nil {
			return zero, err
		}
		for i := 0; i < n; i++ {
			g, err := cl.NewGroup(fmt.Sprintf("batch%d", i))
			if err != nil {
				return zero, err
			}
			if err := NeutralizeKnob(cfg.Knob, g); err != nil {
				return zero, err
			}
			spec := workload.BatchApp(fmt.Sprintf("batch%d", i), g)
			spec.Core = i
			if _, err := cl.AddApp(spec, i%cfg.Devices); err != nil {
				return zero, err
			}
		}
		if err := cl.RunPhase(cfg.Warmup, cfg.Measure); err != nil {
			return zero, err
		}
		res := cl.Result()
		return BandwidthScalingPoint{
			Apps:        n,
			Devices:     cfg.Devices,
			AggregateBW: res.AggregateBW,
			CPUUtil:     res.CPUUtil,
			IOPS:        float64(res.IOs) / res.Span.Seconds(),
		}, nil
	})
}
