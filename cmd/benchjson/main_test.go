package main

import (
	"path/filepath"
	"testing"

	carsload "carsgo/internal/load"
)

func loadReportFixture(t *testing.T, dir, name string, p50, p99, tput float64) string {
	t.Helper()
	r := &carsload.Report{
		SchemaVersion: carsload.ReportSchemaVersion,
		Kind:          carsload.ReportKind,
		Date:          "2026-08-08",
		Mode:          "closed",
		Stages: []carsload.StageReport{{
			Concurrency: 8, DurationSec: 5, Sent: 100, OK: 100,
			ThroughputRPS: tput,
			Latency:       carsload.Quantiles{P50Ms: p50, P90Ms: p50 * 2, P99Ms: p99, P999Ms: p99 * 2},
		}},
	}
	path := filepath.Join(dir, name)
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareLoadReports(t *testing.T) {
	old := &carsload.Report{Stages: []carsload.StageReport{{
		Concurrency:   8,
		ThroughputRPS: 100,
		Latency:       carsload.Quantiles{P50Ms: 1, P90Ms: 2, P99Ms: 5, P999Ms: 10},
	}}}
	// p99 regresses 40%, throughput drops 20%, p50 improves.
	new := &carsload.Report{Stages: []carsload.StageReport{{
		Concurrency:   8,
		ThroughputRPS: 80,
		Latency:       carsload.Quantiles{P50Ms: 0.5, P90Ms: 2, P99Ms: 7, P999Ms: 10},
	}}}
	deltas := compareLoadReports(old, new)
	if len(deltas) != 5 {
		t.Fatalf("deltas = %d, want 5: %+v", len(deltas), deltas)
	}
	byMetric := map[string]loadDelta{}
	for _, d := range deltas {
		if d.stage != "stage1/8c" {
			t.Errorf("stage label = %q", d.stage)
		}
		byMetric[d.metric] = d
	}
	if d := byMetric["p99Ms"]; d.pct < 39 || d.pct > 41 {
		t.Errorf("p99 pct = %+v", d)
	}
	if d := byMetric["throughputRps"]; d.pct < 19 || d.pct > 21 {
		t.Errorf("throughput drop should read as +20%% regression: %+v", d)
	}
	if d := byMetric["p50Ms"]; d.pct >= 0 {
		t.Errorf("p50 improvement should be negative pct: %+v", d)
	}
}

func TestRunLoadCompare(t *testing.T) {
	dir := t.TempDir()
	a := loadReportFixture(t, dir, "LOAD_old.json", 1, 5, 100)
	b := loadReportFixture(t, dir, "LOAD_new.json", 1.2, 9, 90)
	if code := runLoadCompare(a, b, 5); code != 0 {
		t.Fatalf("runLoadCompare = %d, want 0 (advisory)", code)
	}
	if code := runLoadCompare(a, filepath.Join(dir, "missing.json"), 5); code != 2 {
		t.Fatalf("missing file: exit %d, want 2", code)
	}
}
