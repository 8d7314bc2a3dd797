package core

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	"isolbench/internal/runpool"
	"isolbench/internal/sim"
)

// Verdict is one Table I cell: whether a knob achieves a desideratum.
type Verdict int

// Verdict levels, printed as the paper's x / - / check marks.
const (
	Bad     Verdict = iota // x
	Partial                // -
	Good                   // ok
)

func (v Verdict) String() string {
	switch v {
	case Good:
		return "✓"
	case Partial:
		return "–"
	default:
		return "✗"
	}
}

// DesiderataRow is one knob's Table I row, with the measured evidence
// each cell was derived from.
type DesiderataRow struct {
	Knob      Knob
	Overhead  Verdict // D1: low overhead & scalability
	Fairness  Verdict // D2: proportional fairness
	Tradeoffs Verdict // D3: priority/utilization trade-offs
	Bursts    Verdict // D4: priority bursts
	Evidence  []string
}

// TableIConfig parameterizes the Table I derivation. Quick mode uses
// short windows and coarse sweeps (for tests); the full mode matches
// the benchmark defaults.
type TableIConfig struct {
	Quick   bool
	Seed    uint64
	Workers int        // knob-row and sub-experiment fan-out (<=0 GOMAXPROCS)
	Control RunControl // cancellation/watchdog/paranoid settings

	// Knobs overrides the evaluated rows (nil -> ControlKnobs(), the
	// paper's five). This is how the opt-in adaptive shaper gets its
	// sixth row without perturbing the published table.
	Knobs []Knob
}

// RunTableI measures every knob against all four desiderata and
// derives the Table I verdicts from documented thresholds:
//
//	Overhead:  bad if P99 inflation at 1 LC-app > 5% or bandwidth at
//	           9 batch-apps < 80% of none; partial if P99 inflation at
//	           16 LC-apps (past CPU saturation) > 25% or bandwidth
//	           < 95% of none; else good.
//	Fairness:  bad if weighted or mixed-size Jain < 0.70, or the knob
//	           cannot deliver even half of the baseline bandwidth (a
//	           fair split of a collapsed resource is not fairness —
//	           the paper's "BFQ does not ensure fairness beyond the
//	           CPU saturation point"); partial if any scenario < 0.80
//	           or the knob lacks native weights; else good.
//	Tradeoffs: bad if the knob cannot lift the priority app's
//	           bandwidth by >= 15% across its config space, or offers
//	           <= 3 distinct outcomes; partial if trade-offs collapse
//	           on the 256 KiB BE variant or the priority app keeps no
//	           floor (< 70% of its best) at the highest-utilization
//	           config — the paper's "io.max has no prioritization
//	           capabilities on its own"; else good.
//	Bursts:    bad if the response exceeds 1 s, never stabilizes, or
//	           the knob has no real prioritization (trade-offs bad);
//	           partial if trade-offs were partial; else good.
func RunTableI(cfg TableIConfig) ([]DesiderataRow, error) {
	measure := 1200 * sim.Millisecond
	steps := 8
	repeats := 2
	if cfg.Quick {
		measure = 400 * sim.Millisecond
		steps = 4
		repeats = 1
	}

	// Baselines from the no-knob configuration.
	basePts, err := RunLatencyScaling(LatencyScalingConfig{
		Knob: KnobNone, AppCounts: []int{1, 16}, Measure: measure, Seed: cfg.Seed, Workers: cfg.Workers,
		Control: cfg.Control,
	})
	if err != nil {
		return nil, err
	}
	baseBW, err := RunBandwidthScaling(BandwidthScalingConfig{
		Knob: KnobNone, AppCounts: []int{9}, Measure: measure, Seed: cfg.Seed, Workers: cfg.Workers,
		Control: cfg.Control,
	})
	if err != nil {
		return nil, err
	}

	// Each knob's row derives from its own set of runs, independent of
	// every other row: fan the rows out, keeping presentation order.
	knobs := cfg.Knobs
	if len(knobs) == 0 {
		knobs = ControlKnobs()
	}
	return runpool.MapCtx(cfg.Control.Ctx, cfg.Workers, len(knobs), func(ki int) (DesiderataRow, error) {
		return deriveRow(cfg, knobs[ki], measure, steps, repeats, basePts, baseBW)
	})
}

// deriveRow measures one knob against all four desiderata.
func deriveRow(cfg TableIConfig, k Knob, measure sim.Duration, steps, repeats int,
	basePts []LatencyScalingPoint, baseBW []BandwidthScalingPoint) (DesiderataRow, error) {
	row := DesiderataRow{Knob: k}
	note := func(format string, args ...interface{}) {
		row.Evidence = append(row.Evidence, fmt.Sprintf(format, args...))
	}

	// --- D1 overhead ---
	lat, err := RunLatencyScaling(LatencyScalingConfig{
		Knob: k, AppCounts: []int{1, 16}, Measure: measure, Seed: cfg.Seed, Workers: cfg.Workers,
		Control: cfg.Control,
	})
	if err != nil {
		return row, err
	}
	bw, err := RunBandwidthScaling(BandwidthScalingConfig{
		Knob: k, AppCounts: []int{9}, Measure: measure, Seed: cfg.Seed, Workers: cfg.Workers,
		Control: cfg.Control,
	})
	if err != nil {
		return row, err
	}
	lat1 := ratio(float64(lat[0].P99), float64(basePts[0].P99))
	lat16 := ratio(float64(lat[1].P99), float64(basePts[1].P99))
	bwRatio := bw[0].AggregateBW / baseBW[0].AggregateBW
	note("P99 inflation: %+.1f%% @1 app, %+.1f%% @16 apps; bandwidth %.0f%% of none",
		(lat1-1)*100, (lat16-1)*100, bwRatio*100)
	switch {
	case lat1 > 1.05 || bwRatio < 0.80:
		row.Overhead = Bad
	case lat16 > 1.25 || bwRatio < 0.95:
		row.Overhead = Partial
	default:
		row.Overhead = Good
	}

	// --- D2 fairness ---
	fairCells := []struct {
		name string
		fc   FairnessConfig
	}{
		{"uniform", FairnessConfig{Knob: k, Groups: 4, Repeats: repeats, Measure: measure, Seed: cfg.Seed, Workers: cfg.Workers, Control: cfg.Control}},
		{"weighted", FairnessConfig{Knob: k, Groups: 4, Weighted: true, Repeats: repeats, Measure: measure, Seed: cfg.Seed, Workers: cfg.Workers, Control: cfg.Control}},
		{"sizes", FairnessConfig{Knob: k, Groups: 2, Mix: MixSizes, Repeats: repeats, Measure: measure, Seed: cfg.Seed, Workers: cfg.Workers, Control: cfg.Control}},
		{"rw", FairnessConfig{Knob: k, Groups: 2, Mix: MixReadWrite, Repeats: repeats, Measure: measure, Seed: cfg.Seed, Workers: cfg.Workers, Control: cfg.Control}},
	}
	fairRes, err := runpool.MapCtx(cfg.Control.Ctx, cfg.Workers, len(fairCells), func(i int) (*FairnessResult, error) {
		return RunFairness(fairCells[i].fc)
	})
	if err != nil {
		return row, err
	}
	jains := map[string]float64{}
	for i, cell := range fairCells {
		jains[cell.name] = fairRes[i].Jain.Mean()
	}
	note("Jain: uniform %.2f, weighted %.2f, sizes %.2f, read/write %.2f",
		jains["uniform"], jains["weighted"], jains["sizes"], jains["rw"])
	minJ := math.Min(jains["weighted"], jains["sizes"])
	allJ := math.Min(minJ, math.Min(jains["uniform"], jains["rw"]))
	switch {
	case minJ < 0.70 || bwRatio < 0.50:
		row.Fairness = Bad
	case allJ < 0.80 || !k.def().nativeWeights:
		row.Fairness = Partial
	default:
		row.Fairness = Good
	}

	// --- D3 trade-offs ---
	pts, err := RunTradeoff(TradeoffConfig{
		Knob: k, Kind: PriorityBatch, Variant: BE4KRand,
		Steps: steps, Measure: measure, Seed: cfg.Seed, Workers: cfg.Workers,
		Control: cfg.Control,
	})
	if err != nil {
		return row, err
	}
	minP, maxP, maxAggP := spread(pts)
	clusters := distinctOutcomes(pts)
	note("trade-off: prioBW %.2f-%.2f GiB/s across %d outcome(s); prioBW at max-util %.2f GiB/s",
		minP/(1<<30), maxP/(1<<30), clusters, maxAggP/(1<<30))
	ptsBig, err := RunTradeoff(TradeoffConfig{
		Knob: k, Kind: PriorityBatch, Variant: BE256K,
		Steps: steps, Measure: measure, Seed: cfg.Seed + 13, Workers: cfg.Workers,
		Control: cfg.Control,
	})
	if err != nil {
		return row, err
	}
	_, maxPBig, _ := spread(ptsBig)
	bigOK := maxP <= 0 || maxPBig >= 0.6*maxP
	note("256 KiB BE variant: best prioBW %.2f GiB/s (%.0f%% of 4 KiB variant)",
		maxPBig/(1<<30), 100*maxPBig/math.Max(maxP, 1))
	switch {
	case maxP < 1.15*minP || clusters <= 3:
		row.Tradeoffs = Bad
	case !bigOK || maxAggP < 0.7*maxP:
		row.Tradeoffs = Partial
	default:
		row.Tradeoffs = Good
	}

	// --- D4 bursts ---
	br, err := RunBurst(BurstConfig{Knob: k, Kind: PriorityBatch, Seed: cfg.Seed, Control: cfg.Control})
	if err != nil {
		return row, err
	}
	if br.Achieved {
		note("burst response: %s", br.Response)
	} else {
		note("burst response: never stabilized")
	}
	switch {
	case !br.Achieved || br.Response > sim.Duration(sim.Second) || row.Tradeoffs == Bad:
		row.Bursts = Bad
	case row.Tradeoffs == Partial:
		row.Bursts = Partial
	default:
		row.Bursts = Good
	}

	return row, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 1
	}
	return a / b
}

// spread returns (min prioBW, max prioBW, prioBW at the
// highest-utilization config).
func spread(pts []TradeoffPoint) (minP, maxP, atMaxAgg float64) {
	if len(pts) == 0 {
		return 0, 0, 0
	}
	minP, maxP = math.Inf(1), 0
	bestAgg := -1.0
	for _, p := range pts {
		minP = math.Min(minP, p.PrioBW)
		maxP = math.Max(maxP, p.PrioBW)
		if p.AggregateBW > bestAgg {
			bestAgg = p.AggregateBW
			atMaxAgg = p.PrioBW
		}
	}
	return minP, maxP, atMaxAgg
}

// distinctOutcomes counts configurations that produce meaningfully
// different (aggregate, priority) outcomes: MQ-DL's strict classes
// collapse its nine permutations into ~2-3 clusters (Q6).
func distinctOutcomes(pts []TradeoffPoint) int {
	const res = 150 << 20 // 150 MiB/s grid
	seen := map[[2]int64]bool{}
	for _, p := range pts {
		seen[[2]int64{int64(p.AggregateBW) / res, int64(p.PrioBW) / res}] = true
	}
	return len(seen)
}

// WriteTableI prints the paper's Table I with derived verdicts.
func WriteTableI(w io.Writer, rows []DesiderataRow, withEvidence bool) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "cgroups I/O control knob\tLow Overhead\tProportional Fairness\tPriority/Utilization Trade-offs\tPriority Bursts")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n",
			r.Knob.def().label, r.Overhead, r.Fairness, r.Tradeoffs, r.Bursts)
	}
	tw.Flush()
	if withEvidence {
		for _, r := range rows {
			fmt.Fprintf(w, "\n%s:\n", r.Knob.def().label)
			for _, e := range r.Evidence {
				fmt.Fprintf(w, "  - %s\n", e)
			}
		}
	}
}
