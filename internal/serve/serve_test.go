package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func testServer(t *testing.T, opt Options) *Server {
	t.Helper()
	if opt.Workers == 0 {
		opt.Workers = 4
	}
	if opt.DefaultTimeout == 0 {
		opt.DefaultTimeout = time.Minute
	}
	s := New(opt)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	return s
}

func doJSON(s *Server, method, path string, doc any) *httptest.ResponseRecorder {
	var body *bytes.Reader
	if doc != nil {
		data, _ := json.Marshal(doc)
		body = bytes.NewReader(data)
	} else {
		body = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, body)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func metricValue(t *testing.T, s *Server, name string) float64 {
	t.Helper()
	rec := doJSON(s, "GET", "/metrics", nil)
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v float64
			if _, err := fmt.Sscanf(line[len(name)+1:], "%g", &v); err != nil {
				t.Fatalf("parse %s: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not exposed", name)
	return 0
}

func TestHealthz(t *testing.T) {
	s := testServer(t, Options{Workers: 2})
	rec := doJSON(s, "GET", "/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d: %s", rec.Code, rec.Body.String())
	}
	var h healthz
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Workers != 2 || h.SchemaVersion != SchemaVersion {
		t.Fatalf("healthz = %+v", h)
	}
}

// TestSingleFlightCollapse is the acceptance criterion: 32 concurrent
// identical simulate requests on a cold cache execute the simulation
// exactly once, observable via carsd_sim_runs_total.
func TestSingleFlightCollapse(t *testing.T) {
	s := testServer(t, Options{Workers: 4})
	doc := map[string]any{"config": "base", "workload": "FIB"}

	const n = 32
	var wg sync.WaitGroup
	codes := make([]int, n)
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := doJSON(s, "POST", "/v1/simulate", doc)
			codes[i] = rec.Code
			bodies[i] = rec.Body.Bytes()
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d = %d: %s", i, codes[i], bodies[i])
		}
	}
	if runs := metricValue(t, s, "carsd_sim_runs_total"); runs != 1 {
		t.Fatalf("carsd_sim_runs_total = %v, want exactly 1", runs)
	}
	// Every response carries the same content address and result bytes.
	var first Response
	if err := json.Unmarshal(bodies[0], &first); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		var r Response
		if err := json.Unmarshal(bodies[i], &r); err != nil {
			t.Fatal(err)
		}
		if r.Key != first.Key || !bytes.Equal(r.Result, first.Result) {
			t.Fatalf("response %d diverged", i)
		}
	}
	// A follow-up request is a pure cache hit: still one run.
	rec := doJSON(s, "POST", "/v1/simulate", doc)
	var r Response
	json.Unmarshal(rec.Body.Bytes(), &r)
	if rec.Code != http.StatusOK || !r.Cached {
		t.Fatalf("follow-up = %d cached=%v", rec.Code, r.Cached)
	}
	if runs := metricValue(t, s, "carsd_sim_runs_total"); runs != 1 {
		t.Fatalf("cache hit re-executed: runs = %v", runs)
	}
	if hits := metricValue(t, s, "carsd_cache_hits_total"); hits < 1 {
		t.Fatalf("carsd_cache_hits_total = %v", hits)
	}
}

// TestDeadlineExceeded: a request with a hopeless deadline gets a
// structured 504 and does not leak its worker.
func TestDeadlineExceeded(t *testing.T) {
	s := testServer(t, Options{Workers: 1})
	rec := doJSON(s, "POST", "/v1/simulate",
		map[string]any{"config": "base", "workload": "MST", "timeoutMs": 1})
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("code = %d: %s", rec.Code, rec.Body.String())
	}
	var e apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if e.Error.Code != "deadline_exceeded" {
		t.Fatalf("error = %+v", e.Error)
	}
	if metricValue(t, s, "carsd_request_timeouts_total") != 1 {
		t.Fatal("timeout not counted")
	}
	// The cancelled simulation must release its worker: with one
	// worker, a small follow-up request succeeds.
	deadline := time.Now().Add(15 * time.Second)
	for {
		rec := doJSON(s, "POST", "/v1/simulate",
			map[string]any{"config": "base", "workload": "FIB"})
		if rec.Code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker leaked: follow-up = %d: %s", rec.Code, rec.Body.String())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestQueueFullBackpressure: with one worker and a one-slot queue, a
// burst of distinct requests sees 429 + Retry-After, never unbounded
// queueing.
func TestQueueFullBackpressure(t *testing.T) {
	s := testServer(t, Options{Workers: 1, QueueCap: 1})
	var wg sync.WaitGroup
	var mu sync.Mutex
	got429 := 0
	retryAfter := ""
	// Distinct workloads defeat the single-flight collapse so each
	// request needs its own pool slot.
	for _, wl := range []string{"MST", "SSSP", "CFD", "TRAF", "GOL", "FIB"} {
		wg.Add(1)
		go func(wl string) {
			defer wg.Done()
			rec := doJSON(s, "POST", "/v1/simulate",
				map[string]any{"config": "base", "workload": wl})
			if rec.Code == http.StatusTooManyRequests {
				mu.Lock()
				got429++
				retryAfter = rec.Header().Get("Retry-After")
				mu.Unlock()
			}
		}(wl)
	}
	wg.Wait()
	if got429 == 0 {
		t.Skip("burst drained without contention on this machine")
	}
	if retryAfter == "" {
		t.Fatal("429 without Retry-After")
	}
	if metricValue(t, s, "carsd_queue_rejected_total") < 1 {
		t.Fatal("rejections not counted")
	}
}

func TestVetEndpoint(t *testing.T) {
	s := testServer(t, Options{})
	rec := doJSON(s, "POST", "/v1/vet", map[string]any{"config": "cars", "workload": "FIB"})
	if rec.Code != http.StatusOK {
		t.Fatalf("vet = %d: %s", rec.Code, rec.Body.String())
	}
	var r Response
	if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Mode  string `json:"mode"`
		Funcs []any  `json:"funcs"`
	}
	if err := json.Unmarshal(r.Result, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Mode == "" || len(rep.Funcs) == 0 {
		t.Fatalf("report = %+v", rep)
	}
	// Vetting must not count as a simulation.
	if metricValue(t, s, "carsd_sim_runs_total") != 0 {
		t.Fatal("vet incremented sim runs")
	}
}

func TestExperimentEndpoint(t *testing.T) {
	s := testServer(t, Options{})
	rec := doJSON(s, "POST", "/v1/experiment", map[string]any{"id": "fig1"})
	if rec.Code != http.StatusOK {
		t.Fatalf("experiment = %d: %s", rec.Code, rec.Body.String())
	}
	var r Response
	json.Unmarshal(rec.Body.Bytes(), &r)
	var tb struct {
		ID   string     `json:"ID"`
		Rows [][]string `json:"Rows"`
	}
	if err := json.Unmarshal(r.Result, &tb); err != nil {
		t.Fatal(err)
	}
	if tb.ID != "fig1" || len(tb.Rows) == 0 {
		t.Fatalf("table = %+v", tb)
	}
	// Second request: served from cache.
	rec = doJSON(s, "POST", "/v1/experiment", map[string]any{"id": "fig1"})
	json.Unmarshal(rec.Body.Bytes(), &r)
	if !r.Cached {
		t.Fatal("experiment result not cached")
	}
	// Unknown id is a 404, not a pool trip.
	rec = doJSON(s, "POST", "/v1/experiment", map[string]any{"id": "fig99"})
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown experiment = %d", rec.Code)
	}
}

func TestBadRequests(t *testing.T) {
	s := testServer(t, Options{})
	for _, c := range []struct {
		path string
		doc  map[string]any
	}{
		{"/v1/simulate", map[string]any{"config": "nope", "workload": "FIB"}},
		{"/v1/simulate", map[string]any{"config": "base", "workload": "NOPE"}},
		{"/v1/simulate", map[string]any{"config": "base", "workload": "FIB", "force": "low"}},
		{"/v1/simulate", map[string]any{"config": "cars", "workload": "FIB", "force": "sideways"}},
		{"/v1/simulate", map[string]any{"bogus": true}},
		{"/v1/vet", map[string]any{"config": "base", "workload": "NOPE"}},
	} {
		rec := doJSON(s, "POST", c.path, c.doc)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s %v = %d, want 400", c.path, c.doc, rec.Code)
		}
		var e apiError
		if json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error.Code == "" {
			t.Errorf("%s %v: unstructured error %s", c.path, c.doc, rec.Body.String())
		}
	}
}

func TestForcedLevelChangesKey(t *testing.T) {
	s := testServer(t, Options{})
	recA := doJSON(s, "POST", "/v1/simulate",
		map[string]any{"config": "cars", "workload": "FIB"})
	recB := doJSON(s, "POST", "/v1/simulate",
		map[string]any{"config": "cars", "workload": "FIB", "force": "high"})
	if recA.Code != http.StatusOK || recB.Code != http.StatusOK {
		t.Fatalf("codes = %d, %d: %s", recA.Code, recB.Code, recB.Body.String())
	}
	var a, b Response
	json.Unmarshal(recA.Body.Bytes(), &a)
	json.Unmarshal(recB.Body.Bytes(), &b)
	if a.Key == b.Key {
		t.Fatal("forced policy did not change the content address")
	}
}

func TestAsyncJobLifecycle(t *testing.T) {
	s := testServer(t, Options{})
	rec := doJSON(s, "POST", "/v1/jobs", map[string]any{
		"kind":     "simulate",
		"simulate": map[string]any{"config": "base", "workload": "FIB"},
	})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", rec.Code, rec.Body.String())
	}
	var st JobStatus
	json.Unmarshal(rec.Body.Bytes(), &st)
	if st.ID == "" {
		t.Fatalf("status = %+v", st)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		rec = doJSON(s, "GET", "/v1/jobs/"+st.ID, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("poll = %d", rec.Code)
		}
		json.Unmarshal(rec.Body.Bytes(), &st)
		if st.Status == "done" {
			break
		}
		if st.Status == "error" {
			t.Fatalf("job failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(20 * time.Millisecond)
	}

	rec = doJSON(s, "GET", "/v1/jobs/"+st.ID+"/result", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("fetch = %d: %s", rec.Code, rec.Body.String())
	}
	var r Response
	if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil {
		t.Fatal(err)
	}
	var res struct{ Workload string }
	if err := json.Unmarshal(r.Result, &res); err != nil || res.Workload != "FIB" {
		t.Fatalf("result = %s (%v)", r.Result, err)
	}
	if rec := doJSON(s, "GET", "/v1/jobs/doesnotexist", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown job = %d", rec.Code)
	}
}

// TestDrain: Close stops admission (503s), finishes in-flight work,
// and persists the cache for the next process.
func TestDrain(t *testing.T) {
	cacheFile := filepath.Join(t.TempDir(), "serve.cache")
	s := New(Options{Workers: 2, CacheFile: cacheFile, DefaultTimeout: time.Minute})
	if rec := doJSON(s, "POST", "/v1/simulate",
		map[string]any{"config": "base", "workload": "FIB"}); rec.Code != http.StatusOK {
		t.Fatalf("warm-up = %d: %s", rec.Code, rec.Body.String())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	rec := doJSON(s, "POST", "/v1/simulate", map[string]any{"config": "base", "workload": "FIB"})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain simulate = %d", rec.Code)
	}
	if rec := doJSON(s, "GET", "/healthz", nil); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain healthz = %d", rec.Code)
	}

	// A fresh server warm-starts from the persisted cache: the same
	// request is a hit with zero executions.
	s2 := testServer(t, Options{Workers: 2, CacheFile: cacheFile})
	rec = doJSON(s2, "POST", "/v1/simulate", map[string]any{"config": "base", "workload": "FIB"})
	var r Response
	json.Unmarshal(rec.Body.Bytes(), &r)
	if rec.Code != http.StatusOK || !r.Cached {
		t.Fatalf("warm start = %d cached=%v", rec.Code, r.Cached)
	}
	if runs := metricValue(t, s2, "carsd_sim_runs_total"); runs != 0 {
		t.Fatalf("warm start executed %v sims", runs)
	}
}

// TestMetricsExposition asserts the metric names the CI smoke job (and
// operators' dashboards) depend on.
func TestMetricsExposition(t *testing.T) {
	s := testServer(t, Options{})
	doJSON(s, "POST", "/v1/simulate", map[string]any{"config": "base", "workload": "FIB"})
	rec := doJSON(s, "GET", "/metrics", nil)
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	body := rec.Body.String()
	for _, name := range []string{
		"carsd_http_requests_total",
		"carsd_http_request_seconds",
		"carsd_sim_runs_total",
		"carsd_sim_cycles_total",
		"carsd_queue_depth",
		"carsd_queue_capacity",
		"carsd_queue_rejected_total",
		"carsd_inflight_jobs",
		"carsd_workers",
		"carsd_cache_hits_total",
		"carsd_cache_misses_total",
		"carsd_cache_evictions_total",
		"carsd_cache_bytes",
		"carsd_cache_entries",
		"carsd_singleflight_executions_total",
		"carsd_singleflight_collapsed_total",
		"carsd_request_timeouts_total",
		"carsd_job_panics_total",
		"carsd_uptime_seconds",
	} {
		if !strings.Contains(body, "\n"+name) && !strings.HasPrefix(body, "# HELP "+name) {
			t.Errorf("metric %s missing from /metrics", name)
		}
	}
	if !strings.Contains(body, `carsd_http_requests_total{endpoint="simulate",code="200"}`) {
		t.Errorf("per-endpoint request counter missing:\n%s", body)
	}
	if metricValue(t, s, "carsd_sim_cycles_total") <= 0 {
		t.Error("simulated cycles not counted")
	}
}

// tinySpec is a minimal but call-exercising workload-spec document.
// Written as raw JSON: the wire format is the surface under test.
const tinySpec = `{
  "schema": 1, "name": "tiny", "grid": 1, "block": 32, "iters": 1,
  "pattern": "gather", "footprintWords": 256,
  "kernel": {"calls": ["f"]},
  "funcs": [{"name": "f", "calleeSaved": 1, "alu": 2}]
}`

func TestSpecWorkloadEndpoints(t *testing.T) {
	s := testServer(t, Options{})
	rec := doJSON(s, "POST", "/v1/vet",
		map[string]any{"config": "cars", "spec": json.RawMessage(tinySpec)})
	if rec.Code != http.StatusOK {
		t.Fatalf("vet spec = %d: %s", rec.Code, rec.Body.String())
	}
	var r Response
	if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Mode  string `json:"mode"`
		Funcs []any  `json:"funcs"`
	}
	if err := json.Unmarshal(r.Result, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Mode == "" || len(rep.Funcs) == 0 {
		t.Fatalf("report = %+v", rep)
	}

	// Content addressing hashes the canonical spec: a reformatted
	// document (reordered fields, different whitespace) is the same
	// workload and must hit the first request's cache entry.
	reformatted := `{"name":"tiny","schema":1,"iters":1,"block":32,"grid":1,
		"footprintWords":256,"pattern":"gather",
		"funcs":[{"calleeSaved":1,"name":"f","alu":2}],
		"kernel":{"calls":["f"]}}`
	rec = doJSON(s, "POST", "/v1/vet",
		map[string]any{"config": "cars", "spec": json.RawMessage(reformatted)})
	if rec.Code != http.StatusOK {
		t.Fatalf("vet reformatted spec = %d: %s", rec.Code, rec.Body.String())
	}
	var r2 Response
	json.Unmarshal(rec.Body.Bytes(), &r2)
	if r2.Key != r.Key {
		t.Fatalf("reformatted spec got key %s, want %s (content address must cover the canonical form)", r2.Key, r.Key)
	}
	if !r2.Cached {
		t.Fatal("reformatted spec missed the cache")
	}

	// The simulate endpoint accepts the same inline document.
	rec = doJSON(s, "POST", "/v1/simulate",
		map[string]any{"config": "cars", "spec": json.RawMessage(tinySpec)})
	if rec.Code != http.StatusOK {
		t.Fatalf("simulate spec = %d: %s", rec.Code, rec.Body.String())
	}

	// And so does async submit, under the same content address family.
	rec = doJSON(s, "POST", "/v1/jobs", map[string]any{
		"kind":     "simulate",
		"simulate": map[string]any{"config": "cars", "spec": json.RawMessage(tinySpec)},
	})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit spec job = %d: %s", rec.Code, rec.Body.String())
	}
}

func TestSpecWorkloadBadRequests(t *testing.T) {
	s := testServer(t, Options{})
	for name, doc := range map[string]map[string]any{
		"both workload and spec": {"config": "base", "workload": "FIB", "spec": json.RawMessage(tinySpec)},
		"neither":                {"config": "base"},
		"invalid spec":           {"config": "base", "spec": json.RawMessage(`{"schema": 1, "name": "x"}`)},
		"wrong schema":           {"config": "base", "spec": json.RawMessage(`{"schema": 99}`)},
	} {
		for _, path := range []string{"/v1/simulate", "/v1/vet"} {
			rec := doJSON(s, "POST", path, doc)
			if rec.Code != http.StatusBadRequest {
				t.Errorf("%s %s = %d, want 400: %s", path, name, rec.Code, rec.Body.String())
			}
		}
	}
}

// TestJobPanicIsContained: a job that panics answers its request with
// a structured 500, is counted and caches nothing, and the daemon's
// only worker goes on to serve the same request.
func TestJobPanicIsContained(t *testing.T) {
	s := testServer(t, Options{Workers: 1})
	req := &SimulateRequest{Config: "base", Workload: "FIB"}
	p, rerr := s.prepareSimulate(req)
	if rerr != nil {
		t.Fatal(rerr.message)
	}
	p.job = func(context.Context) (any, error) { panic("simulator bug") }
	rec := httptest.NewRecorder()
	s.serveSync(rec, httptest.NewRequest("POST", "/v1/simulate", nil), p, nil)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking job = %d: %s", rec.Code, rec.Body.String())
	}
	var e apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error.Code != "internal" ||
		!strings.Contains(e.Error.Message, "simulator bug") {
		t.Fatalf("error envelope = %s (%v)", rec.Body.String(), err)
	}
	if _, ok := s.cache.Get(p.key); ok {
		t.Fatal("a panicked execution was cached")
	}
	if n := metricValue(t, s, "carsd_job_panics_total"); n != 1 {
		t.Fatalf("carsd_job_panics_total = %v, want 1", n)
	}

	rec = doJSON(s, "POST", "/v1/simulate", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("request after the panic = %d: %s", rec.Code, rec.Body.String())
	}
	var r Response
	if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil || r.Cached || r.Key != p.key.String() {
		t.Fatalf("response after the panic: cached=%v key=%s (%v), want a fresh run of %s", r.Cached, r.Key, err, p.key)
	}
	if n := metricValue(t, s, "carsd_job_panics_total"); n != 1 {
		t.Fatalf("carsd_job_panics_total = %v after a clean run, want 1", n)
	}
}
