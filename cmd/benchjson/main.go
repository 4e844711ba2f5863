// Command benchjson diffs two carsbench load reports (LOAD_<date>.json,
// see internal/load) stage by stage:
//
//	go run ./cmd/benchjson -compare LOAD_old.json LOAD_new.json
//
// It prints the per-stage delta of every latency quantile and of
// throughput, and warns on any regression above -threshold percent
// (default 5). Warnings are advisory: latency on a shared runner is
// noisy, so the command exits 0 even when regressions are found (the
// CI load job surfaces them without blocking). Exit status 2 on
// unreadable, empty or non-load reports, or on flag errors.
package main

import (
	"flag"
	"fmt"
	"os"

	carsload "carsgo/internal/load"
)

// loadDelta is one stage metric's movement between two load reports.
type loadDelta struct {
	stage, metric string
	old, new      float64
	pct           float64 // signed percent change; positive = regression
}

// compareLoadReports diffs two load reports stage by stage (matched by
// position in the ramp): latency quantiles regress upward, throughput
// regresses downward, both expressed with positive pct = worse. A
// quantile that either report omits (too few samples beyond it) is
// skipped.
func compareLoadReports(old, new *carsload.Report) []loadDelta {
	var deltas []loadDelta
	n := min(len(old.Stages), len(new.Stages))
	for i := 0; i < n; i++ {
		ob, nb := old.Stages[i], new.Stages[i]
		stage := fmt.Sprintf("stage%d", i+1)
		if nb.Concurrency > 0 {
			stage += fmt.Sprintf("/%dc", nb.Concurrency)
		} else if nb.RateRPS > 0 {
			stage += fmt.Sprintf("/%drps", nb.RateRPS)
		}
		add := func(metric string, ov, nv float64, higherIsWorse bool) {
			if ov <= 0 {
				return
			}
			pct := 100 * (nv - ov) / ov
			if !higherIsWorse {
				pct = -pct
			}
			deltas = append(deltas, loadDelta{stage: stage, metric: metric, old: ov, new: nv, pct: pct})
		}
		for _, q := range []struct {
			metric string
			ov, nv *float64
		}{
			{"p50Ms", ob.Latency.P50Ms, nb.Latency.P50Ms},
			{"p90Ms", ob.Latency.P90Ms, nb.Latency.P90Ms},
			{"p99Ms", ob.Latency.P99Ms, nb.Latency.P99Ms},
			{"p999Ms", ob.Latency.P999Ms, nb.Latency.P999Ms},
		} {
			if q.ov != nil && q.nv != nil {
				add(q.metric, *q.ov, *q.nv, true)
			}
		}
		add("throughputRps", ob.ThroughputRPS, nb.ThroughputRPS, false)
	}
	return deltas
}

// runLoadCompare loads and diffs two carsbench reports, warning (never
// failing) on latency/throughput regressions above threshold percent.
func runLoadCompare(oldPath, newPath string, threshold float64) int {
	old, err := carsload.ReadReport(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	new, err := carsload.ReadReport(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	if len(old.Stages) == 0 || len(new.Stages) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: load report has no stages")
		return 2
	}
	if len(old.Stages) != len(new.Stages) {
		fmt.Fprintf(os.Stderr, "benchjson: note: ramp shapes differ (%d vs %d stages); comparing the common prefix\n",
			len(old.Stages), len(new.Stages))
	}
	warned := 0
	for _, d := range compareLoadReports(old, new) {
		mark := "  "
		if d.pct > threshold {
			mark = "! "
			warned++
		}
		fmt.Printf("%s%-20s %-16s %12.3f -> %-12.3f %+.1f%%\n",
			mark, d.stage, d.metric, d.old, d.new, d.pct)
	}
	if warned > 0 {
		fmt.Fprintf(os.Stderr,
			"benchjson: WARNING: %d load metric(s) regressed more than %.0f%% vs %s (advisory — latency on a shared runner is noisy)\n",
			warned, threshold, oldPath)
	} else {
		fmt.Fprintf(os.Stderr, "benchjson: no load metric regressed more than %.0f%%\n", threshold)
	}
	return 0
}

func main() {
	compare := flag.Bool("compare", false, "diff two load reports (OLD NEW)")
	threshold := flag.Float64("threshold", 5, "warn when a load metric regresses more than this percent")
	flag.Parse()
	if !*compare || flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchjson -compare OLD.json NEW.json")
		os.Exit(2)
	}
	os.Exit(runLoadCompare(flag.Arg(0), flag.Arg(1), *threshold))
}
