// Command perfbench measures the simulator's host performance on three
// workloads built through the isolbench library API: host wall time and
// simulated I/Os per unit of it, both in units of a reference workload
// interleaved with the cells, set-up time and peak memory, plus a
// traced run that splits the time by layer. Every cell's simulated
// statistics are digested and checked against reference digests, so a
// change that only speeds the simulator up must leave them identical.
//
// Run it from the repository root through perfbench/run.py, which
// builds this module and forwards the flags:
//
//	python3 perfbench/run.py --workload closed-mix --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}, with the end-to-end metrics at
// --trace 0 and the per-layer metrics at --trace 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"isolbench/internal/core"
)

func main() {
	// One engine runs on one goroutine; one P keeps the collector on the
	// same CPU, so host time and peak memory do not hinge on whether a
	// second, shared CPU happens to be free.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	sizes    sizes
	// refs are the reference digests for this workload and seed, keyed
	// by cell; nil means none are known.
	refs map[string]string
	// deadline bounds every cell's wall time, so an overlong run
	// reports failed cells instead of overrunning its budget.
	deadline time.Time
}

// metric is one named measurement with its unit.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is what one invocation measured and checked.
type report struct {
	attempted, failed int
	metrics           []metric
	digests           map[string]string // first pass, by cell
	bad               map[string]bool   // cells that have failed
	notes             []string          // human-readable lines printed before the JSON
}

func (r *report) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts a failed cell and says why.
func (r *report) fail(cellName, why string) {
	r.failed++
	r.bad[cellName] = true
	r.notef("FAIL %s: %s", cellName, why)
}

func run(args []string, stdout, stderr io.Writer) int {
	return runSized(args, fullSizes, stdout, stderr)
}

// runSized is run with the workloads' simulated lengths as a parameter,
// so tests can run every path at tiny lengths.
func runSized(args []string, sz sizes, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload: closed-mix | fleet-10k | replay-observed")
	seed := fs.Uint64("seed", 1, "seed: every cell's simulation seed")
	seconds := fs.Float64("seconds", 30, "measuring budget: seconds/30 untraced passes (at least one) and a twentieth for set-up samples")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	digests := fs.String("digests", "perfbench/digests.json", "reference digest table, by workload, seed and cell")
	record := fs.String("record", "", "table where digests of seeds missing from -digests are recorded on first use and checked on later runs (empty = none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	start := time.Now()
	if _, err := cellsFor(*wl, *seed, fullSizes); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	cfg := config{
		workload: *wl, seed: *seed, seconds: *seconds, trace: *traceMode == 1,
		sizes: sz, deadline: start.Add(165 * time.Second),
	}
	table, err := loadRefTable(*digests)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg.refs = table.lookup(*wl, *seed)
	refSource := *digests
	var recorded refTable
	if cfg.refs == nil && *record != "" {
		if recorded, err = loadRefTable(*record); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		cfg.refs = recorded.lookup(*wl, *seed)
		refSource = "recorded earlier in " + *record
	}
	if cfg.refs == nil {
		refSource = "none, so digests are checked across passes only"
		if *record != "" {
			refSource += "; recording them in " + *record
		}
	}

	env := describeEnv()
	rep := bench(cfg)
	if cfg.trace {
		rep.add("host.calib_ms", env.calibMS, "ms")
	}

	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d trace=%d\n", cfg.workload, cfg.seed, *traceMode)
	fmt.Fprintf(stdout, "# env %s\n", env)
	fmt.Fprintf(stdout, "# reference digests: %s\n", refSource)
	for _, n := range rep.notes {
		fmt.Fprintf(stdout, "# %s\n", n)
	}
	for _, m := range rep.metrics {
		fmt.Fprintf(stdout, "# metric %-30s %14.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(stdout, "# metric %-30s %14.6g %s (= failed/attempted; carried by the JSON counts)\n",
		"fail_frac", float64(rep.failed)/float64(max(rep.attempted, 1)), "ratio")

	if cfg.refs == nil && *record != "" && rep.failed == 0 {
		recorded.set(*wl, *seed, rep.digests)
		if err := recorded.save(*record); err != nil {
			fmt.Fprintln(stderr, "perfbench: recording digests:", err)
			return 1
		}
	}

	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]map[string]any{}}
	for _, m := range rep.metrics {
		out.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// setupSamples is how many set-up measurements setup_s is the median of.
const setupSamples = 5

// passSeconds is the nominal length of one untraced pass: a run makes
// seconds/passSeconds passes, at least one. The count never depends on
// how fast earlier passes ran. The first pass pays the process's page
// faults, so a speed-dependent count would mix cold-only runs with
// cold-and-warm ones.
const passSeconds = 30

// bench runs one invocation: untraced passes for the end-to-end
// metrics, or the traced run for the per-layer metrics.
func bench(cfg config) *report {
	rep := &report{bad: map[string]bool{}}
	cells, err := cellsFor(cfg.workload, cfg.seed, cfg.sizes)
	if err != nil {
		rep.attempted, rep.failed = 1, 1
		rep.notef("FAIL %v", err)
		return rep
	}
	ctl := core.RunControl{Deadline: cfg.deadline}

	// An untimed warm-up run of the first cell lets a fresh process
	// fault in its heap before anything is timed. Without it, a
	// fleet-10k pass in a fresh process was slower than a later pass
	// in the same process, by an amount that varied from run to run.
	warm := runPass(cells[:1], ctl, false, nil)
	ref := newRefClock()
	settle()
	rt0 := readRuntime()
	first := runPass(cells, ctl, false, ref)
	rt1 := readRuntime()
	check := func(p passOut, what string) {
		rep.attempted += len(p.cells)
		for i, c := range p.cells {
			switch {
			case c.err != nil:
				rep.fail(c.name, what+": "+c.err.Error())
			case i < len(first.cells) && first.cells[i].err == nil && c.digest != first.cells[i].digest:
				rep.fail(c.name, fmt.Sprintf("%s: digest %s differs from the first pass's %s", what, c.digest, first.cells[i].digest))
			case cfg.refs != nil && c.digest != cfg.refs[c.name]:
				rep.fail(c.name, fmt.Sprintf("%s: digest %s, reference %q", what, c.digest, cfg.refs[c.name]))
			}
		}
	}
	check(first, "pass 1")
	check(warm, "warm-up")
	rep.digests = map[string]string{}
	for _, c := range first.cells {
		rep.digests[c.name] = c.digest
	}
	if cfg.workload == "closed-mix" {
		closedMixChecks(cfg, first, rep)
	} else {
		rep.notef("accuracy: %s goes beyond the paper; its results are unvalidated", cfg.workload)
	}
	if cfg.workload == "replay-observed" {
		rep.notef("open-loop generator lateness: 0 by construction (arrivals are exact in virtual time)")
	}

	if cfg.trace {
		tracedRun(cells, ctl, first, rt1.minus(rt0), ref, check, rep)
		return rep
	}

	walls := []float64{first.wall.Seconds()}
	setups := []float64{first.setup.Seconds()}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	for pass := 2; pass <= int(cfg.seconds/passSeconds); pass++ {
		settle()
		p := runPass(cells, ctl, false, ref)
		check(p, fmt.Sprintf("pass %d", pass))
		walls = append(walls, p.wall.Seconds())
		setups = append(setups, p.setup.Seconds())
	}
	// Set-up alone is repeated until there are setupSamples samples and
	// a twentieth of the budget went into them: short set-ups get many.
	var spent time.Duration
	for len(setups) < setupSamples || spent < budget/20 {
		settle()
		d, err := setupOnly(cells, ctl)
		if err != nil {
			rep.attempted++
			rep.fail("setup-only", err.Error())
			break
		}
		setups = append(setups, d.Seconds())
		spent += d
	}
	wall := median(walls)
	refS := ref.mean().Seconds()
	rep.notef("passes=%d cells=%d wall_s per pass=%.3f setup_s samples=%d", len(walls), len(cells), walls, len(setups))
	rep.notef("reference: %d samples, mean %.2f ms; raw wall_s=%.4f s, sim_ios_per_s=%.1f IO/s", ref.n, 1000*refS, wall, float64(first.n.completed)/wall)
	rep.add("wall_ref", wall/refS, "ref")
	rep.add("sim_ios_per_ref", float64(first.n.completed)*refS/wall, "IO/ref")
	rep.add("setup_s", median(setups), "s")
	rss, err := peakRSSMiB()
	if err != nil {
		rep.attempted++
		rep.fail("max_rss_mib", err.Error())
	}
	rep.add("max_rss_mib", rss, "MiB")
	return rep
}

// tracedRun adds the per-layer metrics: span times, counters, runtime
// deltas and the reference time from the untraced first pass, CPU
// shares from a profiled pass, and a paranoid pass whose invariant
// checks must hold. Both extra passes must reproduce the first pass's
// digests exactly.
func tracedRun(cells []cell, ctl core.RunControl, base passOut, rt rtSample, ref *refClock, check func(passOut, string), rep *report) {
	settle()
	prof, raw, err := profiledPass(cells, ctl)
	if err != nil {
		rep.attempted++
		rep.fail("profiler", err.Error())
		return
	}
	check(prof, "profiled pass")

	settle()
	pctl := ctl
	pctl.Paranoid = true
	check(runPass(cells, pctl, false, nil), "paranoid pass")

	sp, n := base.sp, base.n
	ios := float64(max(n.completed, 1))
	rep.add("wall_s", base.wall.Seconds(), "s")
	rep.add("ref_ms", float64(ref.mean().Nanoseconds())/1e6, "ms")
	rep.add("core.new_fleet_s", sp.newFleet.Seconds(), "s")
	rep.add("core.populate_s", sp.populate.Seconds(), "s")
	rep.add("cgroup.setfile_s", sp.setFile.Seconds(), "s")
	rep.add("workload.gen_s", sp.gen.Seconds(), "s")
	rep.add("core.run_s", sp.run.Seconds(), "s")
	rep.add("core.result_s", sp.result.Seconds(), "s")

	shares, samples, err := moduleShares(raw)
	if err != nil {
		rep.attempted++
		rep.fail("profile", err.Error())
		return
	}
	covered := 0.0
	for _, m := range shareModules {
		rep.add(m+".cpu_share", shares[m], "ratio")
		covered += shares[m]
	}
	rep.add("runtime.gc_share", shares["runtime.gc"], "ratio")
	covered += shares["runtime.gc"]
	rep.notef("profile: %d samples inside RunPhase; named modules and runtime cover %.1f%%, other isolbench code %.1f%%",
		samples, 100*covered, 100*shares["other"])

	rep.add("sim.events", float64(n.events), "count")
	rep.add("sim.events_per_io", float64(n.events)/ios, "events/IO")
	rep.add("sim.ns_per_event", float64(sp.run.Nanoseconds())/float64(max(n.events, 1)), "ns")
	rep.add("sim.pending_end_mean", float64(n.pendingSum)/float64(max(n.pendingN, 1)), "count")
	rep.add("sim.pending_end_max", float64(n.pendingMax), "count")
	rep.add("blk.retries", float64(n.retries), "count")
	rep.add("blk.timeouts", float64(n.timeouts), "count")
	rep.add("blk.failures", float64(n.failures), "count")
	rep.add("blk.completed_per_submitted", float64(n.completed)/float64(max(n.submitted, 1)), "ratio")
	rep.add("device.gc_events", float64(n.gcEvents), "count")
	rep.add("device.fault_errors", float64(n.faultErrors), "count")
	rep.add("host.cycles_per_io", n.cycles/float64(max(n.cpuIOs, 1)), "cycles/IO")
	rep.add("host.ctx_per_io", n.ctx/float64(max(n.cpuIOs, 1)), "switches/IO")
	rep.add("workload.replay_sched_peak", float64(n.schedPeak), "count")
	rep.add("obs.spans_dropped", float64(n.spansDropped), "count")
	rep.add("obs.series_dropped", float64(n.seriesDropped), "count")
	rep.add("obs.folded_cgroups", float64(n.foldedCg), "count")
	rep.add("runtime.alloc_bytes", float64(rt.allocBytes), "B")
	rep.add("runtime.allocs_per_io", float64(rt.allocObjs)/ios, "allocs/IO")
	rep.add("runtime.gc_cycles", float64(rt.gcCycles), "count")
	rep.add("trace_overhead", prof.wall.Seconds()/base.wall.Seconds(), "ratio")
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
