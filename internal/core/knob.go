// Package core implements isol-bench itself: the benchmark suite that
// evaluates the paper's four performance-isolation desiderata (D1
// overhead & scalability, D2 proportional fairness, D3 prioritization/
// utilization trade-offs, D4 burst response) for every cgroups I/O
// control knob, on top of the simulated NVMe testbed.
package core

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"isolbench/internal/blk"
	"isolbench/internal/cgroup"
	"isolbench/internal/ioctl/iocost"
	"isolbench/internal/ioctl/iolatency"
	"isolbench/internal/ioctl/iomax"
	"isolbench/internal/iosched/bfq"
	"isolbench/internal/iosched/mqdeadline"
	"isolbench/internal/iosched/noop"
	"isolbench/internal/obs/attr"
	"isolbench/internal/shaper"
	"isolbench/internal/sim"
)

// Knob identifies one of the five cgroups I/O control configurations
// the paper evaluates (plus the no-knob baseline).
type Knob int

// The evaluated knobs. KnobMQDeadline means io.prio.class + MQ-DL;
// KnobBFQ means io.bfq.weight + BFQ; KnobIOCost means io.cost +
// io.weight.
const (
	KnobNone Knob = iota
	KnobMQDeadline
	KnobBFQ
	KnobIOMax
	KnobIOLatency
	KnobIOCost
	// KnobAdaptive is the closed-loop shaper (internal/shaper): a
	// feedback controller that retunes io.max per window from io.stat,
	// io.pressure, and SLO burn signals, apportioned by io.weight. It
	// is opt-in (-knob adaptive) and deliberately not part of
	// AllKnobs/ControlKnobs, so the paper's five-row tables stay
	// byte-identical.
	KnobAdaptive
)

// knobDef is everything the benchmark knows about one knob: its names,
// how a device column is wired for it, and what each experiment writes
// into its cgroup files. The knobs table holds one entry per Knob;
// adding a knob means adding an entry there and nothing else.
type knobDef struct {
	name    string   // canonical name (String, -knob)
	aliases []string // further names ParseKnob accepts
	label   string   // Table I row label

	scheduler     bool         // an I/O scheduler configuration, not a cgroup controller
	nativeWeights bool         // a direct proportional weight (io.max only approximates one)
	observe       bool         // runs need the observer (the shaper estimates from io.stat)
	costRoot      bool         // the root needs io.cost.model/qos lines per device
	uniformCaps   bool         // uniform fairness runs get weight-translated caps too
	tradeoffWarm  sim.Duration // trade-off warm-up override (0: the 400 ms default)

	// column builds device column col's scheduler and controller on
	// eng, wiring observability and attribution (led is the queue's
	// scheduler ledger, nil when attribution is off).
	column func(c *Fleet, col *DeviceColumn, eng *sim.Engine, led *attr.Ledger) (blk.Scheduler, blk.Controller)

	// Fairness (Figs. 5/6, §VI-A Q4): weightFile on group i gets
	// weight(w, i) for relative weights w. nil: the knob has no weight.
	weightFile string
	weight     func(w []float64, i int) string

	// tradeoff enumerates the Fig. 7 sweep the way the paper does
	// (Q6-Q9). nil: the single "baseline" setting.
	tradeoff func(steps int, kind PriorityKind) []knobSetting

	// burst is the strongest prioritization a practitioner would use
	// to protect the bursty app (Q10).
	burst writes

	// D1 (§V): the group file write and shaper bounds that keep the
	// knob's machinery running but never throttling. io.cost and BFQ
	// are neutralized fleet-wide instead (see overheadOptions).
	neutralFile, neutralValue string
	neutralShaper             shaper.Config

	// Fig. 2: fig2File on apps A, B, C in turn gets fig2Values, or
	// fig2Weighted in the weighted panel (nil: no weighted panel).
	fig2File                 string
	fig2Values, fig2Weighted []string
}

// writes is a setting for a priority and a best-effort group: file=prio
// on the priority group, file=be on the BE group (an empty value is not
// written), then the root io.cost.qos line of device 0 when qos is set.
type writes struct{ file, prio, be, qos string }

func (w writes) apply(prio, be, root *cgroup.Group) error {
	if w.prio != "" {
		if err := prio.SetFile(w.file, w.prio); err != nil {
			return err
		}
	}
	if w.be != "" {
		if err := be.SetFile(w.file, w.be); err != nil {
			return err
		}
	}
	if w.qos != "" {
		return root.SetFile("io.cost.qos", DevName(0)+" "+w.qos)
	}
	return nil
}

// knobSetting is one point of a knob's trade-off sweep.
type knobSetting struct {
	name string
	writes
}

// sweep builds an n-point trade-off sweep from each point's setting.
func sweep(n int, point func(i int) knobSetting) []knobSetting {
	out := make([]knobSetting, n)
	for i := range out {
		out[i] = point(i)
	}
	return out
}

// ioWeight is the io.weight share io.cost and the adaptive shaper
// (which apportions its capacity budget by io.weight) both use.
func ioWeight(w []float64, i int) string {
	return strconv.Itoa(clampInt(int(w[i]*100), 1, 10000))
}

// fairPeakBW is the peak read bandwidth io.max splits into static
// caps when it stands in for weights.
const fairPeakBW = 3.0e9

var knobs = []knobDef{
	KnobNone: {
		name: "none", aliases: []string{"noop", "baseline"},
		column: func(*Fleet, *DeviceColumn, *sim.Engine, *attr.Ledger) (blk.Scheduler, blk.Controller) {
			return noop.New(), nil
		},
	},
	KnobMQDeadline: {
		name: "mq-deadline", aliases: []string{"mqdl", "mq_deadline", "io.prio.class", "prio"},
		label:     "io.prio.class + MQ-DL",
		scheduler: true,
		column: func(c *Fleet, _ *DeviceColumn, eng *sim.Engine, led *attr.Ledger) (blk.Scheduler, blk.Controller) {
			md := mqdeadline.New(eng, mqdeadline.DefaultConfig())
			md.Obs, md.Led = c.Obs, led
			return md, nil
		},
		// Weights become the three priority classes, by tercile of
		// the (ascending) weight distribution.
		weightFile: "io.prio.class",
		weight: func(w []float64, i int) string {
			return []string{"idle", "be", "rt"}[3*i/len(w)]
		},
		// All io.prio.class permutations between priority and BE app.
		tradeoff: func(int, PriorityKind) []knobSetting {
			classes := []string{"rt", "be", "idle"}
			return sweep(9, func(i int) knobSetting {
				pc, bc := classes[i/3], classes[i%3]
				return knobSetting{fmt.Sprintf("prio=%s be=%s", pc, bc), writes{file: "io.prio.class", prio: pc, be: bc}}
			})
		},
		burst:    writes{file: "io.prio.class", prio: "rt", be: "be"},
		fig2File: "io.prio.class", fig2Values: []string{"rt", "be", "idle"}, // Fig. 2b
	},
	KnobBFQ: {
		name: "bfq", aliases: []string{"io.bfq.weight"},
		label:     "io.bfq.weight + BFQ",
		scheduler: true, nativeWeights: true,
		column: func(c *Fleet, _ *DeviceColumn, eng *sim.Engine, led *attr.Ledger) (blk.Scheduler, blk.Controller) {
			cfg := bfq.DefaultConfig()
			if c.Opts.BFQSliceIdleOff {
				cfg.SliceIdle = 0
			}
			cfg.LowLatency = c.Opts.BFQLowLatency
			bq := bfq.New(eng, cfg)
			bq.Obs, bq.Led = c.Obs, led
			return bq, nil
		},
		weightFile: "io.bfq.weight",
		weight: func(w []float64, i int) string {
			return strconv.Itoa(clampInt(int(w[i]*60), 1, 1000))
		},
		// io.bfq.weight for the priority app from 1 to 1000.
		tradeoff: func(steps int, _ PriorityKind) []knobSetting {
			return sweep(steps, func(i int) knobSetting {
				w := clampInt(1+i*999/(steps-1), 1, 1000)
				return knobSetting{fmt.Sprintf("prio-weight=%d", w), writes{file: "io.bfq.weight", prio: strconv.Itoa(w), be: "100"}}
			})
		},
		burst:        writes{file: "io.bfq.weight", prio: "1000", be: "1"},
		fig2File:     "io.bfq.weight", // Fig. 2c (uniform) / 2d (weights)
		fig2Values:   []string{"100", "100", "100"},
		fig2Weighted: []string{"400", "200", "100"},
	},
	KnobIOMax: {
		name: "io.max", aliases: []string{"iomax", "max"},
		label: "io.max",
		// io.max has no notion of weights: practitioners translate
		// shares into static maximums (§VI-A), so uniform runs also
		// get equal caps (a fraction of peak read bandwidth each).
		uniformCaps: true,
		column: func(c *Fleet, col *DeviceColumn, eng *sim.Engine, _ *attr.Ledger) (blk.Scheduler, blk.Controller) {
			return noop.New(), ioMaxController(c, col, eng)
		},
		weightFile: "io.max",
		weight: func(w []float64, i int) string {
			var total float64
			for _, x := range w {
				total += x
			}
			return fmt.Sprintf("rbps=%.0f wbps=%.0f", w[i]/total*fairPeakBW, w[i]/total*fairPeakBW)
		},
		// BE bandwidth cap from 80 MiB/s to saturation.
		tradeoff: func(steps int, _ PriorityKind) []knobSetting {
			lo, hi := 80.0*(1<<20), 2.3*(1<<30)
			return sweep(steps, func(i int) knobSetting {
				bw := lo + float64(i)*(hi-lo)/float64(steps-1)
				return knobSetting{fmt.Sprintf("be-max=%.0fMiB/s", bw/(1<<20)),
					writes{file: "io.max", be: fmt.Sprintf("rbps=%.0f wbps=%.0f", bw, bw)}}
			})
		},
		burst:       writes{file: "io.max", be: "rbps=536870912 wbps=536870912"}, // 512 MiB/s
		neutralFile: "io.max", neutralValue: "rbps=1000000000000 wbps=1000000000000",
		fig2File:   "io.max", // Fig. 2e: 1 GiB/s cap per group
		fig2Values: []string{"rbps=1073741824", "rbps=1073741824", "rbps=1073741824"},
	},
	KnobIOLatency: {
		name: "io.latency", aliases: []string{"iolatency", "latency"},
		label: "io.latency",
		// io.latency converges over many 500 ms windows (QD is halved
		// at most once per window): measure steady state.
		tradeoffWarm: 6 * sim.Second,
		column: func(c *Fleet, col *DeviceColumn, eng *sim.Engine, _ *attr.Ledger) (blk.Scheduler, blk.Controller) {
			il := iolatency.New(eng, c.Tree, DevName(col.Index), c.Opts.Profile.MaxQD)
			il.Obs, il.Attr = c.Obs, c.Attr
			c.IOLat = append(c.IOLat, il)
			col.IOLat = il
			return noop.New(), il
		},
		// Weights become latency targets: higher weight, tighter target.
		weightFile: "io.latency",
		weight: func(w []float64, i int) string {
			return fmt.Sprintf("target=%d", int64(1000/w[i]))
		},
		// Priority P90 target from 75 us to 1.2 ms.
		tradeoff: func(steps int, _ PriorityKind) []knobSetting {
			return sweep(steps, func(i int) knobSetting {
				us := 75 + i*(1200-75)/(steps-1)
				return knobSetting{fmt.Sprintf("target=%dus", us), writes{file: "io.latency", prio: fmt.Sprintf("target=%d", us)}}
			})
		},
		burst:       writes{file: "io.latency", prio: "target=150"},
		neutralFile: "io.latency", neutralValue: "target=5000000", // 5 s
		fig2File: "io.latency", fig2Values: []string{"target=100"}, // Fig. 2f: A protected at 100 us
	},
	KnobIOCost: {
		name: "io.cost", aliases: []string{"iocost", "cost", "io.weight"},
		label:         "io.cost + io.weight",
		nativeWeights: true, costRoot: true,
		column: func(c *Fleet, col *DeviceColumn, eng *sim.Engine, _ *attr.Ledger) (blk.Scheduler, blk.Controller) {
			ic := iocost.New(eng, c.Tree, DevName(col.Index))
			ic.Obs, ic.Attr = c.Obs, c.Attr
			c.IOCost = append(c.IOCost, ic)
			col.IOCost = ic
			return noop.New(), ic
		},
		weightFile: "io.weight", weight: ioWeight,
		// io.weight 10000 vs 100. Batch: sweep the qos "min" window
		// with a fixed 500 us P95 read target (§VI-B Q9); min=max pins
		// the vrate scaling window at the swept level. LC: sweep the
		// P99 read latency target.
		tradeoff: func(steps int, kind PriorityKind) []knobSetting {
			return sweep(steps, func(i int) knobSetting {
				if kind == PriorityBatch {
					min := 25 + float64(i)*(150-25)/float64(steps-1)
					return knobSetting{fmt.Sprintf("weight=10000 qos-min=%.0f%%", min), writes{"io.weight", "10000", "100",
						fmt.Sprintf("enable=1 rpct=95 rlat=500 wpct=95 wlat=1000 min=%.2f max=%.2f", min, min)}}
				}
				us := 100 + i*(1200-100)/(steps-1)
				return knobSetting{fmt.Sprintf("weight=10000 rlat=%dus", us), writes{"io.weight", "10000", "100",
					fmt.Sprintf("enable=1 rpct=99 rlat=%d wpct=95 wlat=1000 min=50.00 max=125.00", us)}}
			})
		},
		burst:        writes{"io.weight", "10000", "100", "enable=1 rpct=95 rlat=150 wpct=95 wlat=500 min=50.00 max=125.00"},
		fig2File:     "io.weight", // Fig. 2g (uniform) / 2h (weights); P95 100 us target
		fig2Values:   []string{"100", "100", "100"},
		fig2Weighted: []string{"800", "200", "50"},
	},
	KnobAdaptive: {
		name: "adaptive", aliases: []string{"io.shaper"},
		label:         "adaptive shaper (io.max + io.weight)",
		nativeWeights: true,
		// The shaper estimates from io.stat/io.pressure/SLO deltas,
		// which only exist with the observer attached. This also pins
		// adaptive runs to the single-engine runtime (the observer
		// disables sharding), which is what makes the control loop
		// byte-identical across -shards values.
		observe: true,
		// Enforcement is io.max's, but the limits are rewritten every
		// window by the shaper, and throttle holds are blamed on its
		// decisions (LayerShaper) rather than on static configuration.
		column: func(c *Fleet, col *DeviceColumn, eng *sim.Engine, _ *attr.Ledger) (blk.Scheduler, blk.Controller) {
			im := ioMaxController(c, col, eng)
			im.HoldLayer = attr.LayerShaper
			sh := shaper.New(eng, c.Tree, DevName(col.Index), c.Opts.Shaper)
			sh.Obs = c.Obs
			for _, g := range c.Groups {
				sh.Register(g)
			}
			c.Shapers = append(c.Shapers, sh)
			col.Shaper = sh
			return noop.New(), im
		},
		weightFile: "io.weight", weight: ioWeight,
		// The configuration surface is the io.weight ratio: sweep the
		// priority app's weight from parity to the maximum against a
		// fixed BE 100.
		tradeoff: func(steps int, _ PriorityKind) []knobSetting {
			return sweep(steps, func(i int) knobSetting {
				w := clampInt(100+i*(10000-100)/(steps-1), 1, 10000)
				return knobSetting{fmt.Sprintf("prio-weight=%d", w), writes{file: "io.weight", prio: strconv.Itoa(w), be: "100"}}
			})
		},
		// Maximum io.weight skew: the shaper grants the bursty app
		// nearly the whole capacity budget the moment it has traffic.
		burst: writes{file: "io.weight", prio: "10000", be: "100"},
		// The loop, estimators and window ticks all run (that
		// machinery is the measured overhead), but a cap floor far
		// beyond device saturation means it never throttles.
		neutralShaper: shaper.Config{FloorBps: 1e12, CeilingBps: 2e12},
	},
}

// ioMaxController builds column col's io.max controller.
func ioMaxController(c *Fleet, col *DeviceColumn, eng *sim.Engine) *iomax.Controller {
	im := iomax.New(eng, c.Tree, DevName(col.Index))
	im.Obs, im.Attr = c.Obs, c.Attr
	return im
}

// unregistered is the entry of every Knob value outside the table: no
// names, no column builder, no settings.
var unregistered knobDef

// def returns k's registry entry.
func (k Knob) def() *knobDef {
	if k < 0 || int(k) >= len(knobs) {
		return &unregistered
	}
	return &knobs[k]
}

// AllKnobs returns every knob including the baseline, in the paper's
// presentation order.
func AllKnobs() []Knob {
	return []Knob{KnobNone, KnobMQDeadline, KnobBFQ, KnobIOMax, KnobIOLatency, KnobIOCost}
}

// ControlKnobs returns the five actual control knobs (no baseline).
func ControlKnobs() []Knob {
	return []Knob{KnobMQDeadline, KnobBFQ, KnobIOMax, KnobIOLatency, KnobIOCost}
}

func (k Knob) String() string {
	if d := k.def(); d.name != "" {
		return d.name
	}
	return fmt.Sprintf("knob(%d)", int(k))
}

// ParseKnob resolves a knob name (several aliases accepted).
func ParseKnob(s string) (Knob, error) {
	name := strings.ToLower(strings.TrimSpace(s))
	for k, d := range knobs {
		if name == d.name || slices.Contains(d.aliases, name) {
			return Knob(k), nil
		}
	}
	return KnobNone, fmt.Errorf("unknown knob %q", s)
}

// UsesScheduler reports whether the knob is an I/O scheduler
// configuration rather than a cgroup controller.
func (k Knob) UsesScheduler() bool { return k.def().scheduler }

// WeightedPanel reports whether Fig. 2 has a weighted-variant panel
// for the knob (BFQ and io.cost do).
func (k Knob) WeightedPanel() bool { return k.def().fig2Weighted != nil }

// applyFairnessWeights configures each knob's notion of "weight" for
// group i with relative weight w[i] (§VI-A Q4); groups and w are
// parallel.
func applyFairnessWeights(k Knob, groups []*cgroup.Group, w []float64) error {
	d := k.def()
	if d.weight == nil {
		return nil
	}
	for i, g := range groups {
		if err := g.SetFile(d.weightFile, d.weight(w, i)); err != nil {
			return fmt.Errorf("group %s: %w", g.Name(), err)
		}
	}
	return nil
}
