package main

import (
	"fmt"
	"time"

	"isolbench/internal/cgroup"
	"isolbench/internal/core"
	"isolbench/internal/device"
	"isolbench/internal/fault"
	"isolbench/internal/obs"
	"isolbench/internal/sim"
	"isolbench/internal/trace"
	"isolbench/internal/workload"
	"isolbench/internal/workload/gen"
)

// sizes fixes the simulated length of every workload. The full sizes
// are the ones the reference digests and the fig6 golden rows were
// recorded at; tests shrink them.
type sizes struct {
	mixWarmup, mixMeasure, mixMeasureRW sim.Duration
	fleetTenants                        int
	fleetWarmup, fleetMeasure           sim.Duration
	replayWarmup, replayPhase           sim.Duration
	replayPhases                        int
}

// fullSizes are the lengths the fig6 -quick golden, fleetscale's
// largest cell and the tracereplay grid use.
var fullSizes = sizes{
	mixWarmup: 300 * sim.Millisecond, mixMeasure: 2 * sim.Second, mixMeasureRW: 3 * sim.Second,
	fleetTenants: 10000, fleetWarmup: 100 * sim.Millisecond, fleetMeasure: sim.Second,
	replayWarmup: 100 * sim.Millisecond, replayPhase: 500 * sim.Millisecond, replayPhases: 4,
}

// workloadNames lists the workloads in the order BENCHMARK.json names them.
var workloadNames = []string{"closed-mix", "fleet-10k", "replay-observed"}

// phase is one RunPhase call: warm-up (discarded) then a measured window.
type phase struct{ warmup, measure sim.Duration }

// cell is one simulated fleet of a workload. setup builds it through
// the public API and charges each call to its span; the returned live
// cell is then run phase by phase.
type cell struct {
	name  string
	setup func(sp *spans, ctl core.RunControl) (*live, error)
}

// live is a set-up cell ready to run.
type live struct {
	fleet  *core.Fleet
	phases []phase
	// replay and replayGroup are set on replay-observed cells: their
	// per-phase stats and SLO burns join the digest.
	replay      *workload.ReplayApp
	replayGroup int
	// churnErr records a failed churn add or remove; it fails the cell.
	churnErr error
	// tick, when set, lets the reference clock sample from inside a
	// long RunPhase (fleet-10k's churn callbacks). It reads no
	// simulated state, so it changes nothing the digest covers.
	tick func()
}

// spans accumulates host time per benchmark-side call, by layer.
type spans struct {
	newFleet, populate, setFile, gen, run, result time.Duration
}

// timed runs fn and charges its wall time to *d.
func timed(d *time.Duration, fn func() error) error {
	t0 := time.Now()
	err := fn()
	*d += time.Since(t0)
	return err
}

func cellsFor(name string, seed uint64, sz sizes) ([]cell, error) {
	switch name {
	case "closed-mix":
		return closedMixCells(seed, sz), nil
	case "fleet-10k":
		return fleetCells(seed, sz), nil
	case "replay-observed":
		return replayCells(seed, sz), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have closed-mix, fleet-10k, replay-observed)", name)
}

// fig6Mixes are the three heterogeneous mixes of the paper's Fig. 6.
var fig6Mixes = []core.FairnessMix{core.MixSizes, core.MixPatterns, core.MixReadWrite}

// closedMixCells builds the fig6 grid: 3 mixes x 6 knobs, each cell two
// cgroups of four closed-loop batch apps on one flash980 SSD, set up
// exactly as the fairness experiment's single repeat sets it up.
func closedMixCells(seed uint64, sz sizes) []cell {
	var cells []cell
	for _, mix := range fig6Mixes {
		for _, k := range core.AllKnobs() {
			mix, k := mix, k
			cells = append(cells, cell{name: mix.String() + "/" + k.String(), setup: func(sp *spans, ctl core.RunControl) (*live, error) {
				var fl *core.Fleet
				if err := timed(&sp.newFleet, func() (err error) {
					fl, err = core.NewCluster(core.Options{
						Knob: k, Profile: device.Flash980Profile(), Cores: 20, Seed: seed,
						Precondition: mix == core.MixReadWrite, Control: ctl,
					})
					return err
				}); err != nil {
					return nil, err
				}
				var groups []*cgroup.Group
				if err := timed(&sp.populate, func() error {
					for gi := 0; gi < 2; gi++ {
						g, err := fl.NewGroup(fmt.Sprintf("tenant%d", gi))
						if err != nil {
							return err
						}
						groups = append(groups, g)
						for j := 0; j < 4; j++ {
							spec := workload.BatchApp(fmt.Sprintf("t%d-a%d", gi, j), g)
							switch mix {
							case core.MixSizes:
								if gi%2 == 1 {
									spec.Size = 256 << 10
									spec.QD = 64
								}
							case core.MixPatterns:
								spec.Seq = gi%2 == 1
							case core.MixReadWrite:
								if gi%2 == 1 {
									spec.Op = device.Write
								}
							}
							spec.Core = gi*4 + j
							if _, err := fl.AddApp(spec, 0); err != nil {
								return err
							}
						}
					}
					return nil
				}); err != nil {
					return nil, err
				}
				// Unweighted fig6 writes a cgroup file only for io.max:
				// equal static caps, half of 3.0e9 B/s each.
				if k == core.KnobIOMax {
					if err := timed(&sp.setFile, func() error {
						for _, g := range groups {
							if err := g.SetFile("io.max", fmt.Sprintf("rbps=%.0f wbps=%.0f", 0.5*3.0e9, 0.5*3.0e9)); err != nil {
								return err
							}
						}
						return nil
					}); err != nil {
						return nil, err
					}
				}
				measure := sz.mixMeasure
				if mix == core.MixReadWrite {
					measure = sz.mixMeasureRW
				}
				return &live{fleet: fl, phases: []phase{{sz.mixWarmup, measure}}}, nil
			}})
		}
	}
	return cells
}

// fleetCells builds fleetscale's largest cell: 4 SSDs under io.cost,
// one QD1 4 KiB random-read tenant per cgroup placed round-robin, with
// Poisson churn at 50/s replacing the oldest live tenant.
func fleetCells(seed uint64, sz sizes) []cell {
	n := sz.fleetTenants
	tenant := func(i int) core.TenantSpec {
		spec := workload.LCApp("", nil)
		spec.Core = i % 20
		return core.TenantSpec{Name: fmt.Sprintf("t%d", i), Apps: []workload.Spec{spec}}
	}
	return []cell{{name: fmt.Sprintf("io.cost/%d", n), setup: func(sp *spans, ctl core.RunControl) (*live, error) {
		opts := core.Options{Knob: core.KnobIOCost, Devices: 4, Cores: 20, Seed: seed, Control: ctl}
		opts.ObsConfig.MaxCgroups = 64
		opts.AttrConfig.MaxVictims = 64
		var fl *core.Fleet
		if err := timed(&sp.newFleet, func() (err error) {
			fl, err = core.NewFleet(opts)
			return err
		}); err != nil {
			return nil, err
		}
		lv := &live{fleet: fl, phases: []phase{{sz.fleetWarmup, sz.fleetMeasure}}}
		// alive is the FIFO of tenants not yet asked to leave.
		var alive []*core.Tenant
		err := timed(&sp.populate, func() error {
			for i := 0; i < n; i++ {
				t, err := fl.AddTenant(tenant(i))
				if err != nil {
					return err
				}
				alive = append(alive, t)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		// The churn arrivals are drawn up front from their own RNG
		// stream, so churn perturbs nothing but the tenants it touches.
		rng := sim.NewRNG(seed*5851 + uint64(n) + 77)
		mean := sim.Duration(float64(sim.Second) / 50)
		start := fl.Eng.Now().Add(sz.fleetWarmup)
		end := start.Add(sz.fleetMeasure)
		next := n
		noteErr := func(err error) {
			if err != nil && lv.churnErr == nil {
				lv.churnErr = fmt.Errorf("churn: %w", err)
			}
		}
		for t := start.Add(rng.ExpDuration(mean)); t < end; t = t.Add(rng.ExpDuration(mean)) {
			fl.Eng.At(t, func() {
				if lv.tick != nil {
					lv.tick()
				}
				if len(alive) > 0 {
					fl.RemoveTenant(alive[0], noteErr)
					alive = alive[1:]
				}
				tn, err := fl.AddTenant(tenant(next))
				noteErr(err)
				if err == nil {
					alive = append(alive, tn)
				}
				next++
			})
		}
		return lv, nil
	}}}
}

// replayShapes are the generated arrival shapes of the tracereplay grid.
var replayShapes = []string{"diurnal", "heavytail", "mmpp", "fitted"}

// replayCells builds the tracereplay grid for io.cost: 4 shapes x
// {healthy, gcstorm} x {solo, contended}. An open-loop replay tenant at
// weight 4 on core 2 runs with the SLO monitor and attribution on,
// beside two closed-loop batch neighbours at weight 1 when contended.
func replayCells(seed uint64, sz sizes) []cell {
	span := sz.replayWarmup + sim.Duration(sz.replayPhases)*sz.replayPhase
	var cells []cell
	for _, shape := range replayShapes {
		for _, fp := range []fault.Profile{{}, fault.GCStormProfile()} {
			for _, contended := range []bool{false, true} {
				shape, fp, contended := shape, fp, contended
				name := shape + "/healthy"
				if fp.Enabled() {
					name = shape + "/" + fp.Name
					// Injection stops at 75% of the run so the last
					// phase observes recovery.
					fp.Horizon = sz.replayWarmup + sim.Duration(sz.replayPhases)*sz.replayPhase*3/4
				}
				if contended {
					name += "/contended"
				} else {
					name += "/solo"
				}
				cells = append(cells, cell{name: name, setup: func(sp *spans, ctl core.RunControl) (*live, error) {
					var src trace.Source
					if err := timed(&sp.gen, func() (err error) {
						src, err = replaySource(shape, seed, span)
						return err
					}); err != nil {
						return nil, err
					}
					opts := core.Options{
						Knob: core.KnobIOCost, Cores: 20, Seed: seed, Fault: fp, Attr: true, Control: ctl,
						SLO: obs.SLOConfig{P99: 2 * sim.Millisecond, FastWindow: sz.replayPhase / 5, SlowWindow: sz.replayPhase},
					}
					var fl *core.Fleet
					if err := timed(&sp.newFleet, func() (err error) {
						fl, err = core.NewCluster(opts)
						return err
					}); err != nil {
						return nil, err
					}
					var gNbr, gRep *cgroup.Group
					if err := timed(&sp.populate, func() (err error) {
						if gNbr, err = fl.NewGroup("neighbor"); err != nil {
							return err
						}
						gRep, err = fl.NewGroup("replay")
						return err
					}); err != nil {
						return nil, err
					}
					if err := timed(&sp.setFile, func() error {
						if err := gNbr.SetFile("io.weight", "100"); err != nil {
							return err
						}
						return gRep.SetFile("io.weight", "400")
					}); err != nil {
						return nil, err
					}
					lv := &live{fleet: fl, replayGroup: gRep.ID()}
					if err := timed(&sp.populate, func() (err error) {
						if contended {
							for j := 0; j < 2; j++ {
								spec := workload.BatchApp(fmt.Sprintf("nbr%d", j), gNbr)
								spec.Core = j
								if _, err := fl.AddApp(spec, 0); err != nil {
									return err
								}
							}
						}
						lv.replay, err = fl.AddReplay(src, workload.ReplayConfig{Group: gRep, Core: 2}, 0)
						return err
					}); err != nil {
						return nil, err
					}
					for ph := 0; ph < sz.replayPhases; ph++ {
						warm := sim.Duration(0)
						if ph == 0 {
							warm = sz.replayWarmup
						}
						lv.phases = append(lv.phases, phase{warm, sz.replayPhase})
					}
					return lv, nil
				}})
			}
		}
	}
	return cells
}

// replaySource builds the generated arrival stream for a shape over a
// horizon. "fitted" records a diurnal trace, fits a compact model to
// it, and resamples a fresh scenario from the model.
func replaySource(shape string, seed uint64, span sim.Duration) (trace.Source, error) {
	base := gen.Shape{Seed: seed*31 + 1, Duration: span}
	switch shape {
	case "diurnal":
		base.BaseIOPS = 35000
		base.DiurnalAmp = 0.8
	case "heavytail":
		base.BaseIOPS = 6000
		base.SizeAlpha = 1.3
		base.SizeCap = 512 << 10
		base.ReadFrac = 0.7
		base.Users = 64
	case "mmpp":
		base.BaseIOPS = 12000
		base.Arrivals = gen.MMPP
		base.BurstDwell = 40 * sim.Millisecond
	case "fitted":
		base.Seed = seed*53 + 11
		base.BaseIOPS = 20000
		base.DiurnalAmp = 0.8
		entries, err := trace.Collect(base.Source(), 0)
		if err != nil {
			return nil, fmt.Errorf("recording the fit trace: %w", err)
		}
		model, err := gen.Fit(entries, 16)
		if err != nil {
			return nil, fmt.Errorf("fitting: %w", err)
		}
		return model.Source(seed*101+7, 1), nil
	default:
		return nil, fmt.Errorf("unknown shape %q", shape)
	}
	return base.Source(), nil
}
