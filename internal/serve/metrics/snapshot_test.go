package metrics

import (
	"encoding/json"
	"math"
	"reflect"
	"sync"
	"testing"
)

func TestSnapshotBasics(t *testing.T) {
	r := NewRegistry()
	r.Counter("cars_a_total", "a").Add(3)
	r.Gauge("cars_b_depth", "b").Set(-2)
	r.GaugeFunc("cars_c_fn", "c", func() float64 { return 42 })
	cv := r.CounterVec("cars_req_total", "reqs", "endpoint", "code")
	cv.With("simulate", "200").Add(5)
	cv.With("simulate", "429").Inc()
	cv.With("vet", "200").Add(2)

	s := r.Snapshot()
	if s.SchemaVersion != SnapshotSchemaVersion {
		t.Fatalf("schema version %d", s.SchemaVersion)
	}
	// Families sorted by name.
	for i := 1; i < len(s.Families); i++ {
		if s.Families[i-1].Name >= s.Families[i].Name {
			t.Fatalf("families unsorted: %q >= %q", s.Families[i-1].Name, s.Families[i].Name)
		}
	}
	if v, ok := s.Value("cars_a_total"); !ok || v != 3 {
		t.Fatalf("cars_a_total = %v, %v", v, ok)
	}
	if v, ok := s.Value("cars_b_depth"); !ok || v != -2 {
		t.Fatalf("cars_b_depth = %v, %v", v, ok)
	}
	if v, ok := s.Value("cars_c_fn"); !ok || v != 42 {
		t.Fatalf("cars_c_fn = %v, %v", v, ok)
	}
	if v, ok := s.Value("cars_req_total", "simulate", "200"); !ok || v != 5 {
		t.Fatalf("labeled value = %v, %v", v, ok)
	}
	if _, ok := s.Value("cars_req_total", "simulate", "404"); ok {
		t.Fatal("nonexistent series reported present")
	}
	if _, ok := s.Value("cars_missing"); ok {
		t.Fatal("nonexistent family reported present")
	}
	if got := s.SumWhere("cars_req_total", "code", "200"); got != 7 {
		t.Fatalf("SumWhere(code=200) = %v, want 7", got)
	}
	if got := s.SumWhere("cars_req_total", "endpoint", "simulate"); got != 6 {
		t.Fatalf("SumWhere(endpoint=simulate) = %v, want 6", got)
	}
	if got := s.SumWhere("cars_req_total", "nope", "x"); got != 0 {
		t.Fatalf("SumWhere over unknown label = %v", got)
	}
	f := s.Family("cars_req_total")
	if f == nil || f.Kind != "counter" || !reflect.DeepEqual(f.LabelNames, []string{"endpoint", "code"}) {
		t.Fatalf("family readout = %+v", f)
	}
}

// TestSnapshotLabelRoundTrip: label values reach the snapshot as
// With received them, quotes, commas, backslashes and newlines too.
func TestSnapshotLabelRoundTrip(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("cars_weird_total", "weird labels", "k")
	values := []string{`plain`, `with"quote`, `comma,inside`, `back\slash`, "new\nline", `tr\"icky,"mix`}
	for _, v := range values {
		cv.With(v).Inc()
	}
	s := r.Snapshot()
	f := s.Family("cars_weird_total")
	if f == nil || len(f.Series) != len(values) {
		t.Fatalf("family = %+v", f)
	}
	for _, v := range values {
		if got, ok := s.Value("cars_weird_total", v); !ok || got != 1 {
			t.Fatalf("label %q did not round-trip (got %v, ok=%v); series: %+v", v, got, ok, f.Series)
		}
	}
}

func TestSnapshotHistogram(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("cars_lat_seconds", "latency", []float64{0.1, 1, 10}, "endpoint")
	h := hv.With("simulate")
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	s := r.Snapshot()
	f := s.Family("cars_lat_seconds")
	if f == nil || len(f.Series) != 1 || f.Series[0].Histogram == nil {
		t.Fatalf("family = %+v", f)
	}
	hs := f.Series[0].Histogram
	if hs.Count != 5 || math.Abs(hs.Sum-56.05) > 1e-9 {
		t.Fatalf("count=%d sum=%v", hs.Count, hs.Sum)
	}
	wantCum := []uint64{1, 3, 4} // cumulative per bucket; +Inf covered by Count
	for i, b := range hs.Buckets {
		if b.Count != wantCum[i] {
			t.Fatalf("bucket %d (le=%v) count=%d want %d", i, b.UpperBound, b.Count, wantCum[i])
		}
	}
}

func TestSnapshotJSONStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("cars_x_total", "x").Inc()
	a, _ := json.Marshal(r.Snapshot())
	b, _ := json.Marshal(r.Snapshot())
	if string(a) != string(b) {
		t.Fatalf("snapshots of unchanged state differ:\n%s\n%s", a, b)
	}
}

func TestDeltaHelpers(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cars_d_total", "d")
	cv := r.CounterVec("cars_dv_total", "dv", "code")
	cv.With("429").Add(2)
	before := r.Snapshot()
	c.Add(10)
	cv.With("429").Add(3)
	cv.With("503").Inc()
	after := r.Snapshot()

	if got := Delta(before, after, "cars_d_total"); got != 10 {
		t.Fatalf("Delta = %v", got)
	}
	if got := Delta(after, before, "cars_d_total"); got != 0 {
		t.Fatalf("reversed Delta = %v, want floor at 0", got)
	}
	if got := DeltaWhere(before, after, "cars_dv_total", "code", "429"); got != 3 {
		t.Fatalf("DeltaWhere(429) = %v", got)
	}
	if got := DeltaWhere(before, after, "cars_dv_total", "code", "503"); got != 1 {
		t.Fatalf("DeltaWhere(503, new series) = %v", got)
	}
}

// TestSnapshotConcurrent is the satellite's concurrent-observation
// test: goroutines hammer counters and histograms while other
// goroutines snapshot. Counters must never appear to decrease across
// snapshots, and the final snapshot must read the exact totals.
func TestSnapshotConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cars_cc_total", "concurrent counter")
	cv := r.CounterVec("cars_ccv_total", "concurrent labeled", "worker")
	hv := r.HistogramVec("cars_ch_seconds", "concurrent hist", []float64{1, 10}, "worker")

	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id byte) {
			defer wg.Done()
			label := string('a' + id)
			lc := cv.With(label)
			lh := hv.With(label)
			for i := 0; i < per; i++ {
				c.Inc()
				lc.Inc()
				lh.Observe(float64(i % 20))
			}
		}(byte(w))
	}

	stop := make(chan struct{})
	var snapWG sync.WaitGroup
	for s := 0; s < 3; s++ {
		snapWG.Add(1)
		go func() {
			defer snapWG.Done()
			last := -1.0
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := r.Snapshot()
				v, _ := snap.Value("cars_cc_total")
				if v < last {
					t.Errorf("counter went backwards across snapshots: %v after %v", v, last)
					return
				}
				last = v
			}
		}()
	}

	wg.Wait()
	close(stop)
	snapWG.Wait()
	if t.Failed() {
		return
	}

	final := r.Snapshot()
	if v, _ := final.Value("cars_cc_total"); v != workers*per {
		t.Fatalf("final counter = %v, want %d", v, workers*per)
	}
	for w := 0; w < workers; w++ {
		label := string(rune('a' + w))
		if v, ok := final.Value("cars_ccv_total", label); !ok || v != per {
			t.Fatalf("worker %s counter = %v, %v", label, v, ok)
		}
	}
	hf := final.Family("cars_ch_seconds")
	var histTotal uint64
	for _, ss := range hf.Series {
		histTotal += ss.Histogram.Count
	}
	if histTotal != workers*per {
		t.Fatalf("histogram total = %d, want %d", histTotal, workers*per)
	}
}
