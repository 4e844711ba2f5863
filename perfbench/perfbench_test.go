package main

import (
	"context"
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"
	"time"

	"carsgo"
	"carsgo/internal/load"
)

var update = flag.Bool("update", false, "rewrite oracle.json from the current simulator and toolchain")

// bruteQuantile is the nearest-rank definition applied literally: the
// smallest sample with at least q·n samples at or below it.
func bruteQuantile(samples []float64, q float64) float64 {
	best := math.Inf(1)
	for _, v := range samples {
		n := 0
		for _, w := range samples {
			if w <= v {
				n++
			}
		}
		if float64(n) >= q*float64(len(samples))-1e-9 && v < best {
			best = v
		}
	}
	return best
}

func TestPercentileMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 10, 99, 100, 101, 1000, 1234} {
		samples := make([]float64, n)
		for i := range samples {
			// Repeated values exercise ties.
			samples[i] = float64(r.Intn(n/2 + 1))
		}
		for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 1} {
			got := percentile(append([]float64(nil), samples...), q)
			if want := bruteQuantile(samples, q); got != want {
				t.Errorf("n=%d q=%v: percentile %v, brute force %v", n, q, got, want)
			}
		}
		sorted := append([]float64(nil), samples...)
		sort.Float64s(sorted)
		want := sorted[(n-1)/2]
		if n%2 == 0 {
			want = (sorted[n/2-1] + sorted[n/2]) / 2
		}
		if got := median(append([]float64(nil), samples...)); got != want {
			t.Errorf("n=%d: median %v, want %v", n, got, want)
		}
	}
}

func TestTailReportable(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true}, // ranks 991..1000 lie beyond
		{999, 0.99, false},
		{100, 0.9, true},
		{99, 0.9, false},
		{12, 0.99, false},
	} {
		if got := tailReportable(c.n, c.q); got != c.want {
			t.Errorf("tailReportable(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestOracleRejectsPlantedMismatch(t *testing.T) {
	o, err := loadOracle()
	if err != nil {
		t.Fatal(err)
	}
	w, err := carsgo.Workload("FIB")
	if err != nil {
		t.Fatal(err)
	}
	res, err := carsgo.RunContext(context.Background(), carsgo.Baseline(), w)
	if err != nil {
		t.Fatal(err)
	}
	key := simKey(carsgo.Baseline().Name, "FIB")
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if !o.check(key, data) {
		t.Fatalf("the real result fails its pinned digest: %v", o.failures())
	}
	res.Stats.Cycles++
	planted, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if o.check(key, planted) {
		t.Fatal("a result one cycle off passed the oracle")
	}
	if o.check("sim/V100/no-such-workload", data) {
		t.Fatal("a key with no pinned digest passed the oracle")
	}
	if n := len(o.failures()); n != 2 {
		t.Fatalf("oracle recorded %d mismatches, want 2", n)
	}
}

func TestReconcileRejectsPlantedMiscount(t *testing.T) {
	good := load.ServerDelta{RequestsCached: 6, RequestsCollapsed: 1, SimRuns: 3}
	tl := tally{ok: 10, cached: 6, shared: 1}
	if err := reconcile(tl, good); err != nil {
		t.Fatalf("matching counts rejected: %v", err)
	}
	for name, d := range map[string]load.ServerDelta{
		"extra simulation": {RequestsCached: 6, RequestsCollapsed: 1, SimRuns: 4},
		"missed cache hit": {RequestsCached: 5, RequestsCollapsed: 1, SimRuns: 3},
		"missed collapse":  {RequestsCached: 6, RequestsCollapsed: 0, SimRuns: 3},
	} {
		if reconcile(tl, d) == nil {
			t.Errorf("%s: planted miscount passed", name)
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced, on
// shrunken input sets, and requires every operation to pass the oracle.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	defer func(s, h []string) { sweepNames, hotRegistry = s, h }(sweepNames, hotRegistry)
	sweepNames, hotRegistry = []string{"FIB"}, []string{"FIB"}
	o, err := loadOracle()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"sweep", "toolchain", "serve-hot", "serve-cold"} {
		for _, traced := range []bool{false, true} {
			var tr *tracer
			if traced {
				tr = newTracer()
			}
			b, err := setup(w, 3, o, tr)
			if err != nil {
				t.Fatalf("%s: setup: %v", w, err)
			}
			out, err := b.run(context.Background(), 500*time.Millisecond, tr)
			b.close()
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if out.failed > 0 || len(out.mismatch) > 0 || len(out.latMs) == 0 {
				t.Errorf("%s traced=%v: %d of %d failed (%v), mismatches %v",
					w, traced, out.failed, out.attempted, out.failures, out.mismatch)
			}
			if traced && len(out.layers) == 0 {
				t.Errorf("%s: traced run measured no layer", w)
			}
		}
	}
	if f := o.failures(); len(f) > 0 {
		t.Errorf("oracle mismatches: %v", f)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables and
// BENCHMARK.json in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, table [][2]string, listed []struct{ Name, Unit string }) {
		if len(table) != len(listed) {
			t.Errorf("%s: %d metrics in the program, %d in BENCHMARK.json", kind, len(table), len(listed))
			return
		}
		for i := range table {
			if table[i][0] != listed[i].Name || table[i][1] != listed[i].Unit {
				t.Errorf("%s %d: program has %v, BENCHMARK.json %s %s", kind, i, table[i], listed[i].Name, listed[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, doc.EndToEnd)
	check("per_layer", perLayer, doc.PerLayer)
}

// TestPinnedOracle spot-checks oracle.json against a fresh computation,
// or with -update rewrites it from the current code.
func TestPinnedOracle(t *testing.T) {
	if *update {
		pins, err := pinAll()
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(pins, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("oracle.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	o, err := loadOracle()
	if err != nil {
		t.Fatal(err)
	}
	s := specPool()[0]
	res, err := analyze(nil, -1, s)
	if err != nil {
		t.Fatal(err)
	}
	payloads, err := res.payloads(s.Name)
	if err != nil {
		t.Fatal(err)
	}
	for key, data := range payloads {
		if !o.check(key, data) {
			t.Errorf("%s: %v", key, o.failures())
		}
	}
}
