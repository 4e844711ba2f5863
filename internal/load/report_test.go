package load

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// nsOf converts an optional quantile to nanoseconds for exact
// comparison against a sample; absent reads as -1.
func nsOf(p *float64) int64 {
	if p == nil {
		return -1
	}
	return int64(math.Round(*p * float64(time.Millisecond)))
}

// TestQuantileVsBruteForce: every reported quantile is exactly the
// nearest-rank order statistic of the samples.
func TestQuantileVsBruteForce(t *testing.T) {
	r := NewRNG(11)
	const n = 10000 // enough for p99.9 to be reported
	samples := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		// Latency-shaped: mostly sub-ms with a heavy tail.
		v := r.Uint64() % uint64(time.Millisecond)
		if r.Pct(5) {
			v = r.Uint64() % uint64(50*time.Millisecond)
		}
		samples = append(samples, time.Duration(v))
	}
	var sum time.Duration
	for _, d := range samples {
		sum += d
	}
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	q := QuantilesOf(samples)
	for _, c := range []struct {
		q   float64
		got *float64
	}{{0.5, q.P50Ms}, {0.9, q.P90Ms}, {0.99, q.P99Ms}, {0.999, q.P999Ms}} {
		exact := sorted[int(math.Ceil(c.q*float64(len(sorted))))-1]
		if got := nsOf(c.got); got != int64(exact) {
			t.Fatalf("q=%g: %d ns, want the order statistic %d", c.q, got, exact)
		}
	}
	if q.Samples != n {
		t.Fatalf("Samples = %d, want %d", q.Samples, n)
	}
	if got := nsOf(&q.MaxMs); got != int64(sorted[len(sorted)-1]) {
		t.Fatalf("Max = %d, want %d", got, sorted[len(sorted)-1])
	}
	if got := nsOf(&q.MeanMs); got != int64(sum/n) {
		t.Fatalf("Mean = %d, want %d", got, sum/n)
	}
}

// TestHistEmptyAndNegative: a negative latency (a clock step) records
// as 0, and a stage without samples archives no quantile.
func TestHistEmptyAndNegative(t *testing.T) {
	empty := QuantilesOf(nil)
	if empty != (Quantiles{}) {
		t.Fatalf("empty stage = %+v, want the zero value", empty)
	}
	data, err := json.Marshal(empty)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "p50") || strings.Contains(string(data), "p9") {
		t.Fatalf("empty stage archives a quantile: %s", data)
	}

	res := StageResult{Codes: map[int]int{}}
	rc := &recorder{res: &res}
	rc.observe(Request{}, Outcome{Code: 200}, -5*time.Millisecond)
	if !slices.Equal(res.Latencies, []time.Duration{0}) {
		t.Fatalf("negative observation recorded as %v, want [0]", res.Latencies)
	}
	if q := QuantilesOf(res.Latencies); q.Samples != 1 || q.MaxMs != 0 || q.P50Ms != nil {
		t.Fatalf("one zero sample = %+v", q)
	}
}

// TestQuantileNeverExceedsMax: no reported quantile lies above the
// observed max. The short sets, whose values once landed in histogram
// buckets ending above them (126.238174 ms in one ending at
// 127.926271 ms), now report no quantile at all; the long one reports
// all four.
func TestQuantileNeverExceedsMax(t *testing.T) {
	r := NewRNG(23)
	tail := make([]time.Duration, 0, 20000)
	for i := 0; i < 20000; i++ {
		tail = append(tail, time.Duration(r.Uint64()%uint64(126238174)))
	}
	tail = append(tail, 126238174)
	for _, samples := range [][]time.Duration{
		{126238174},
		{21660000, 3100000, 21500000, 9870000, 14000001},
		tail,
	} {
		q := QuantilesOf(samples)
		for _, p := range []*float64{q.P50Ms, q.P90Ms, q.P99Ms, q.P999Ms} {
			if p != nil && *p > q.MaxMs {
				t.Fatalf("%d samples: quantile %v ms above max %v ms (%+v)", len(samples), *p, q.MaxMs, q)
			}
		}
	}
}

// TestQuantileTenBeyond pins where each quantile starts to be
// reported: the first sample count with ten samples beyond its rank,
// where the rank is n−10.
func TestQuantileTenBeyond(t *testing.T) {
	for _, c := range []struct {
		name string
		n    int
		get  func(Quantiles) *float64
	}{
		{"p50", 20, func(q Quantiles) *float64 { return q.P50Ms }},
		{"p90", 100, func(q Quantiles) *float64 { return q.P90Ms }},
		{"p99", 1000, func(q Quantiles) *float64 { return q.P99Ms }},
		{"p99.9", 10000, func(q Quantiles) *float64 { return q.P999Ms }},
	} {
		for _, n := range []int{c.n - 1, c.n} {
			samples := make([]time.Duration, n)
			for i := range samples {
				samples[i] = time.Duration(n-i) * time.Microsecond
			}
			got := c.get(QuantilesOf(samples))
			if n < c.n && got != nil {
				t.Errorf("%s at %d samples = %v ms, want absent", c.name, n, *got)
			}
			if want := int64(n-minBeyond) * int64(time.Microsecond); n == c.n && nsOf(got) != want {
				t.Errorf("%s at %d samples = %d ns, want %d", c.name, n, nsOf(got), want)
			}
		}
	}
}

// TestHistConcurrent drives the driver's recorder from 16 goroutines
// and checks that every latency and count arrives exactly once.
func TestHistConcurrent(t *testing.T) {
	res := StageResult{Codes: map[int]int{}}
	rc := &recorder{res: &res}
	const workers, per = 16, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				rc.observe(Request{}, Outcome{Code: 200}, time.Duration(seed*per+uint64(i)))
			}
		}(uint64(w))
	}
	wg.Wait()
	if res.Sent != workers*per || res.OK != workers*per || len(res.Latencies) != workers*per {
		t.Fatalf("Sent %d, OK %d, %d latencies; want %d each", res.Sent, res.OK, len(res.Latencies), workers*per)
	}
	slices.Sort(res.Latencies)
	for i, d := range res.Latencies {
		if d != time.Duration(i) {
			t.Fatalf("latency %d = %v, want %v: a sample was lost or duplicated", i, d, time.Duration(i))
		}
	}
}

// TestReadReportRefusesOtherSchemas: a report archived under another
// schema is refused, naming its version and the one this build reads.
func TestReadReportRefusesOtherSchemas(t *testing.T) {
	path := filepath.Join(t.TempDir(), "LOAD_old.json")
	if err := os.WriteFile(path, []byte(`{"schemaVersion": 1, "kind": "load"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ReadReport(path)
	if err == nil {
		t.Fatal("ReadReport accepted a schema-1 report")
	}
	for _, want := range []string{"version 1", "reads 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}
