package san

import (
	"context"
	"testing"

	"carsgo/internal/abi"
	"carsgo/internal/workloads"
)

// perfDiff links one workload under one mode and runs the perf
// differential at the default regret threshold.
func perfDiff(w *workloads.Workload, mode abi.Mode) (*PerfResult, error) {
	u, err := Link(w, mode)
	if err != nil {
		return nil, err
	}
	return u.PerfDiff(context.Background(), DefaultRegret)
}

// TestPerfDiffShallowCall exercises the full differential on the
// cheapest registry case: dominance, per-level occupancy exactness,
// and the advisor regret bound must all hold in every ABI mode.
func TestPerfDiffShallowCall(t *testing.T) {
	w, err := workloads.ByName("PERF_ShallowCall")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range abi.Modes {
		res, err := perfDiff(w, mode)
		if err != nil {
			t.Fatalf("[%s] %v", mode, err)
		}
		if !res.OK() {
			t.Fatalf("[%s] violations: %v", mode, res.Violations)
		}
		if res.Skipped {
			t.Fatalf("[%s] unexpectedly skipped: %s", mode, res.Reason)
		}
		for _, lr := range res.Levels {
			if lr.SimWarps != lr.StaticWarps || lr.SanWarps != lr.StaticWarps {
				t.Errorf("[%s] %s: static=%d sim=%d san=%d, want exact",
					mode, lr.Level, lr.StaticWarps, lr.SimWarps, lr.SanWarps)
			}
		}
		if mode == abi.CARS {
			if res.Advised != "High" {
				t.Errorf("[cars] advised %s, want High (the 8-slot demand is free)", res.Advised)
			}
			if res.Regret != 0 {
				t.Errorf("[cars] regret %.2f, want 0", res.Regret)
			}
		}
	}
}

// TestPerfDiffDeepCallAvoidsHigh is the advisor's negative control:
// the rarely-entered 16-deep chain makes High collapse occupancy, and
// the differential's AvoidHigh expectation must hold.
func TestPerfDiffDeepCallAvoidsHigh(t *testing.T) {
	if testing.Short() {
		t.Skip("level ladder of a full-size workload")
	}
	w, err := workloads.ByName("PERF_DeepCall")
	if err != nil {
		t.Fatal(err)
	}
	if !w.PerfExpect.AvoidHigh {
		t.Fatal("PERF_DeepCall must carry the AvoidHigh expectation")
	}
	res, err := perfDiff(w, abi.CARS)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Advised == "High" {
		t.Fatalf("advisor recommended High despite the occupancy cliff")
	}
}

// TestPerfDiffMultiKernelReducesScope: a workload that launches two
// distinct kernels cannot run the single-kernel level study; it must
// keep the dominance check and reduce scope, not fail.
func TestPerfDiffMultiKernelReducesScope(t *testing.T) {
	if testing.Short() {
		t.Skip("full PTA pipeline run")
	}
	w, err := workloads.ByName("PTA")
	if err != nil {
		t.Fatal(err)
	}
	res, err := perfDiff(w, abi.Baseline)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Skipped {
		t.Fatalf("unexpectedly skipped: %s", res.Reason)
	}
	if res.Reason == "" || len(res.Levels) != 0 {
		t.Fatalf("want a reduced-scope reason and no level rows, got reason=%q levels=%d",
			res.Reason, len(res.Levels))
	}
}

// TestPlanOnce: a unit's perf analysis runs once, so carsfuzz's lattice
// check can plan every unit after PerfDiff planned some of them. A
// second Plan must return the same shapes and leave the report as the
// first left it, here with its occupancy rows cleared in between.
func TestPlanOnce(t *testing.T) {
	w, err := workloads.ByName("PERF_ShallowCall")
	if err != nil {
		t.Fatal(err)
	}
	u, err := Link(w, abi.CARS)
	if err != nil {
		t.Fatal(err)
	}
	first, err := u.Plan()
	if err != nil {
		t.Fatal(err)
	}
	kr := u.Rep.Kernel(first[0].Kernel)
	if kr == nil || kr.Perf == nil || len(kr.Perf.Occupancy) == 0 {
		t.Fatalf("first Plan attached no occupancy rows: %+v", kr)
	}
	kr.Perf.Occupancy = nil
	again, err := u.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(first) || again[0] != first[0] {
		t.Errorf("second Plan returned shapes %+v, want %+v", again, first)
	}
	if kr.Perf.Occupancy != nil {
		t.Error("second Plan ran the perf analysis again")
	}
}
