package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"isolbench/internal/sim"
)

// tinySizes run every workload's code paths in well under a second.
var tinySizes = sizes{
	mixWarmup: 5 * sim.Millisecond, mixMeasure: 20 * sim.Millisecond, mixMeasureRW: 30 * sim.Millisecond,
	fleetTenants: 200, fleetWarmup: 5 * sim.Millisecond, fleetMeasure: 60 * sim.Millisecond,
	replayWarmup: 5 * sim.Millisecond, replayPhase: 20 * sim.Millisecond, replayPhases: 2,
}

type declared struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// runTiny runs the command at tiny lengths and decodes its last line.
func runTiny(t *testing.T, wl string, trace string) result {
	t.Helper()
	var out, errOut bytes.Buffer
	args := []string{"--workload", wl, "--seed", "3", "--seconds", "0.01", "--trace", trace, "--digests", ""}
	if code := runSized(args, tinySizes, &out, &errOut); code != 0 {
		t.Fatalf("%s trace=%s: exit %d: %s", wl, trace, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s trace=%s: last line: %v\n%s", wl, trace, err, out.String())
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("%s trace=%s: correct=%v attempted=%d failed=%d\n%s", wl, trace, r.Correct, r.Attempted, r.Failed, out.String())
	}
	return r
}

func TestEveryMetricPrintedWithUnit(t *testing.T) {
	d := loadDeclared(t)
	if len(d.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(d.Workloads), len(workloadNames))
	}
	for i, w := range d.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, w.Name, workloadNames[i])
		}
		for trace, want := range map[string][]struct{ Name, Unit string }{"0": d.EndToEnd, "1": d.PerLayer} {
			r := runTiny(t, w.Name, trace)
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics printed, %d declared", w.Name, trace, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%s: metric %s missing", w.Name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%s: metric %s unit %q, declared %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

func TestCorruptReferenceDigestIsAFailedCell(t *testing.T) {
	cfg := config{workload: "closed-mix", seed: 2, seconds: 0.01, sizes: tinySizes}
	good := bench(cfg)
	if good.failed != 0 {
		t.Fatalf("clean run failed %d cells: %v", good.failed, good.notes)
	}
	cfg.refs = map[string]string{}
	for k, v := range good.digests {
		cfg.refs[k] = v
	}
	cfg.refs["read-write/io.cost"] = "0000000000000000"
	bad := bench(cfg)
	if bad.failed != 1 || bad.attempted != good.attempted {
		t.Fatalf("corrupt reference: failed=%d attempted=%d, want 1 and %d", bad.failed, bad.attempted, good.attempted)
	}
}

// exactMetric reports whether a per-layer metric is an exact count
// that must repeat at the same seed (not a host time or share).
func exactMetric(name string) bool {
	return !strings.HasSuffix(name, "_s") && !strings.HasSuffix(name, "_share") &&
		!strings.HasPrefix(name, "runtime.") && name != "sim.ns_per_event" &&
		name != "trace_overhead" && name != "host.calib_ms" && name != "ref_ms"
}

func TestCountMetricsRepeatAtSameSeed(t *testing.T) {
	for _, wl := range workloadNames {
		a, b := runTiny(t, wl, "1"), runTiny(t, wl, "1")
		n := 0
		for name, m := range a.Metrics {
			if !exactMetric(name) {
				continue
			}
			n++
			if b.Metrics[name].Value != m.Value {
				t.Errorf("%s: %s = %v then %v", wl, name, m.Value, b.Metrics[name].Value)
			}
		}
		if n < 15 {
			t.Errorf("%s: only %d exact count metrics compared", wl, n)
		}
	}
}
