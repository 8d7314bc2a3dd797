package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"

	"isolbench/internal/core"
	"isolbench/internal/metrics"
)

// goldenPath is the quick-run golden report, relative to the repository
// root, whose Fig. 6 rows closed-mix reproduces at seed 1.
const goldenPath = "scripts/golden/all_quick.txt"

// paperAnchor is a Fig. 6 figure from the paper (EXPERIMENTS.md): a
// point value, or an upper bound when below is set.
type paperAnchor struct {
	cell   string
	metric string // "jain" or "agg_gib_s"
	paper  float64
	below  bool
}

var fig6Anchors = []paperAnchor{
	{"sizes-4k-256k/bfq", "jain", 0.82, false},
	{"read-write/io.cost", "jain", 0.89, false},
	{"sizes-4k-256k/none", "jain", 0.52, true},
	{"sizes-4k-256k/mq-deadline", "jain", 0.52, true},
	{"sizes-4k-256k/io.latency", "jain", 0.52, true},
	{"read-write/none", "agg_gib_s", 0.6, true},
}

// closedMixChecks prints the simulator's error against the paper's
// Fig. 6 anchors and, at seed 1 and full length, fails every cell whose
// Jain and aggregate row differs from the fig6 -quick golden report.
func closedMixChecks(cfg config, first passOut, rep *report) {
	byCell := map[string]*core.FairnessResult{}
	tables := map[string][]*core.FairnessResult{}
	for i, c := range first.cells {
		if c.err != nil {
			continue
		}
		mix := fig6Mixes[i/len(core.AllKnobs())]
		bws := make([]float64, len(c.last.Groups))
		for j, g := range c.last.Groups {
			bws[j] = g.BW
		}
		fr := &core.FairnessResult{Knob: c.last.Knob, Groups: 2, Mix: mix, Weights: []float64{1, 1}, GroupBW: bws}
		fr.Jain.Add(metrics.WeightedJainIndex(bws, fr.Weights))
		fr.AggBW.Add(c.last.AggregateBW)
		byCell[c.name] = fr
		tables[mix.String()] = append(tables[mix.String()], fr)
	}
	for _, a := range fig6Anchors {
		fr := byCell[a.cell]
		if fr == nil {
			continue
		}
		sim := fr.Jain.Mean()
		if a.metric == "agg_gib_s" {
			sim = fr.AggBW.Mean() / (1 << 30)
		}
		if a.below {
			verdict := "within"
			if sim >= a.paper {
				verdict = fmt.Sprintf("outside by %+.3f", sim-a.paper)
			}
			rep.notef("accuracy closed-mix %s %s: paper <%.2f, simulated %.3f (%s the paper's bound)", a.cell, a.metric, a.paper, sim, verdict)
			continue
		}
		rep.notef("accuracy closed-mix %s %s: paper %.2f, simulated %.3f, error %+.3f (%+.1f%%)",
			a.cell, a.metric, a.paper, sim, sim-a.paper, 100*(sim-a.paper)/a.paper)
	}

	if cfg.seed != 1 || cfg.sizes != fullSizes {
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		rep.attempted++
		rep.fail("fig6-golden", err.Error())
		return
	}
	want := fig6Rows(string(raw))
	var buf bytes.Buffer
	for _, mix := range fig6Mixes {
		fmt.Fprintf(&buf, "# Fig.6 fairness, mixed workloads (%s)\n", mix)
		core.WriteFairness(&buf, tables[mix.String()])
	}
	got := fig6Rows(buf.String())
	for _, mix := range fig6Mixes {
		for _, k := range core.AllKnobs() {
			name := mix.String() + "/" + k.String()
			if w, ok := want[name]; !ok || got[name] != w {
				why := fmt.Sprintf("fig6 golden row differs: got %q, want %q", got[name], w)
				if rep.bad[name] {
					rep.notef("%s also: %s", name, why) // counted once, as its digest failure
				} else {
					rep.fail(name, why)
				}
			}
		}
	}
	rep.notef("fig6 golden: %d rows checked against %s", len(want), goldenPath)
}

// fig6Rows extracts the Fig. 6 table rows of a report, keyed by
// "<mix>/<knob>", each row's fields joined by single spaces.
func fig6Rows(report string) map[string]string {
	rows := map[string]string{}
	mix := ""
	for _, line := range strings.Split(report, "\n") {
		if m, ok := strings.CutPrefix(line, "# Fig.6 fairness, mixed workloads ("); ok {
			mix = strings.TrimSuffix(m, ")")
			continue
		}
		f := strings.Fields(line)
		if mix == "" || len(f) == 0 || strings.HasPrefix(line, "#") {
			mix = ""
			continue
		}
		if f[0] != "knob" {
			rows[mix+"/"+f[0]] = strings.Join(f, " ")
		}
	}
	return rows
}
