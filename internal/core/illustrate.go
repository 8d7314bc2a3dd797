package core

import (
	"context"

	"isolbench/internal/cgroup"
	"isolbench/internal/metrics"
	"isolbench/internal/runpool"
	"isolbench/internal/sim"
	"isolbench/internal/workload"
)

// IllustrateConfig parameterizes the Fig. 2 illustrative timelines:
// three identical rate-limited apps (A, B, C) with staggered
// start/stop times under each knob.
type IllustrateConfig struct {
	Knob     Knob
	Profile  string
	Weighted bool // BFQ and io.cost have uniform- and weighted-variant panels
	// TimeScale compresses the paper's 70 s schedule (A 0-50 s,
	// B 10-70 s, C 20-50 s). 0.1 runs A 0-5 s, B 1-7 s, C 2-5 s.
	TimeScale float64
	Seed      uint64
	Control   RunControl // cancellation/watchdog/paranoid settings
}

func (c IllustrateConfig) withDefaults() IllustrateConfig {
	if c.TimeScale <= 0 {
		c.TimeScale = 0.1
	}
	return c
}

// TimelineSeries is one app's bandwidth-over-time series.
type TimelineSeries struct {
	App    string
	Points []metrics.TimelinePoint
}

// RunIllustrate reproduces one Fig. 2 panel: apps A (0-50 s),
// B (10-70 s), C (20-50 s), each 64 KiB random reads at QD 8
// rate-limited to 1.5 GiB/s, in separate cgroups under the given knob.
func RunIllustrate(cfg IllustrateConfig) ([]TimelineSeries, error) {
	cfg = cfg.withDefaults()
	prof, err := resolveProfile(cfg.Profile)
	if err != nil {
		return nil, err
	}
	cl, err := NewCluster(Options{
		Knob:    cfg.Knob,
		Profile: prof,
		Seed:    cfg.Seed,
		Control: cfg.Control,
		// Fig. 2g/h annotate io.cost with a P95 100 us latency target.
		IOCostQoS: "enable=1 rpct=95.00 rlat=100 wpct=95.00 wlat=400 min=50.00 max=125.00",
	})
	if err != nil {
		return nil, err
	}
	scale := func(s float64) sim.Time {
		return sim.Time(s * cfg.TimeScale * float64(sim.Second))
	}
	schedule := []struct {
		name       string
		start, end float64
	}{
		{"A", 0, 50},
		{"B", 10, 70},
		{"C", 20, 50},
	}
	var groups [3]*cgroup.Group
	var apps [3]*workload.App
	for i, s := range schedule {
		g, err := cl.NewGroup(s.name)
		if err != nil {
			return nil, err
		}
		groups[i] = g
		spec := workload.Spec{
			Name:      s.name,
			Group:     g,
			Size:      64 << 10,
			QD:        8,
			RateLimit: 1.5 * (1 << 30), // 1.5 GiB/s
			Start:     scale(s.start),
			Stop:      scale(s.end),
			Core:      i,
		}
		app, err := cl.AddApp(spec, 0)
		if err != nil {
			return nil, err
		}
		apps[i] = app
	}
	d := cfg.Knob.def()
	values := d.fig2Values
	if cfg.Weighted && d.fig2Weighted != nil {
		values = d.fig2Weighted
	}
	for i, v := range values {
		if err := groups[i].SetFile(d.fig2File, v); err != nil {
			return nil, err
		}
	}

	if err := cl.RunTo(scale(70)); err != nil {
		return nil, err
	}

	out := make([]TimelineSeries, 0, 3)
	for i, s := range schedule {
		out = append(out, TimelineSeries{App: s.name, Points: apps[i].Bandwidth().Timeline()})
	}
	return out, nil
}

// RunIllustrateGrid runs independent Fig. 2 panels (one cluster each)
// across a worker pool, returning each panel's timeline series in
// config order.
func RunIllustrateGrid(cfgs []IllustrateConfig, workers int) ([][]TimelineSeries, error) {
	var ctx context.Context
	if len(cfgs) > 0 {
		ctx = cfgs[0].Control.Ctx
	}
	return runpool.MapCtx(ctx, workers, len(cfgs), func(i int) ([]TimelineSeries, error) {
		return RunIllustrate(cfgs[i])
	})
}
