package metrics

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/metrics.golden and testdata/metricsz.golden")

// goldenRegistry holds one series of every kind carsd registers:
// labeled counters, a histogram vec, an unlabeled histogram, plain
// and callback gauges and callback counters. Its label values carry
// quotes, commas and non-ASCII text but no backslash or newline, whose
// escaping TestLabelEscaping pins.
func goldenRegistry() *Registry {
	r := NewRegistry()
	req := r.CounterVec("carsd_http_requests_total", "HTTP requests by endpoint and status code.", "endpoint", "code")
	req.With("simulate", "200").Add(41)
	req.With("simulate", "429").Inc()
	req.With("vet", "200").Add(3)
	req.With("metrics", "200").Inc()
	req.With(`say "hi", twice`, "200").Inc()
	req.With("héllo wörld", "503").Add(2)
	lat := r.HistogramVec("carsd_http_request_seconds", "Request latency by endpoint.", nil, "endpoint")
	for _, v := range []float64{0.0004, 0.002, 0.002, 0.03, 0.2, 0.7, 3, 45} {
		lat.With("simulate").Observe(v)
	}
	lat.With("vet").Observe(0.0125)
	plain := r.HistogramVec("carsd_plain_seconds", "An unlabeled histogram.", []float64{0.5, 1, 2.5}).With()
	for _, v := range []float64{0.25, 2, 7.5} {
		plain.Observe(v)
	}
	r.Counter("carsd_sim_runs_total", "Simulations executed.").Add(48)
	r.Counter("carsd_sim_cycles_total", "Simulated cycles served.").Add(2.5e15)
	r.Gauge("carsd_offset", "A gauge that went negative.").Set(-2.75)
	r.GaugeFunc("carsd_queue_depth", "Jobs admitted but not yet running.", func() float64 { return 3 })
	r.GaugeFunc("carsd_uptime_seconds", "Seconds since the daemon started.", func() float64 { return 12.375 })
	r.CounterFunc("carsd_cache_hits_total", "Result-cache hits.", func() float64 { return 751 })
	return r
}

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs (run with -update to accept):\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}

// TestExpositionGolden pins /metrics byte for byte.
func TestExpositionGolden(t *testing.T) {
	rec := httptest.NewRecorder()
	goldenRegistry().Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	checkGolden(t, "metrics.golden", rec.Body.Bytes())
}

// TestSnapshotGolden pins the /metricsz document of the same registry.
func TestSnapshotGolden(t *testing.T) {
	data, err := json.MarshalIndent(goldenRegistry().Snapshot(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metricsz.golden", append(data, '\n'))
}

// TestLabelEscaping: the text format escapes backslash, double quote
// and newline in a label value, each exactly once.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("cars_esc_total", "escaping", "k")
	for _, v := range []string{`back\slash`, `with"quote`, "new\nline"} {
		cv.With(v).Inc()
	}
	out := render(r)
	for _, want := range []string{
		`cars_esc_total{k="back\\slash"} 1`,
		`cars_esc_total{k="with\"quote"} 1`,
		`cars_esc_total{k="new\nline"} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}
