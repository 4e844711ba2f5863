package serve

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"carsgo/internal/serve/cache"
	"carsgo/internal/spec"
)

// encoded is the reference envelope: the bytes json.Encoder writes for
// r, which respond must write without re-encoding r.Result.
func encoded(t testing.TB, r Response) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRespondMatchesEncoder: every success body — sync miss and hit,
// the async fetch, and respond itself under each cached × shared
// combination — equals what json.Encoder writes for the Response over
// the stored result, and Content-Length counts it exactly.
func TestRespondMatchesEncoder(t *testing.T) {
	s := testServer(t, Options{})
	type stored struct {
		name string
		key  cache.Key
		data []byte
	}
	var results []stored
	gen := json.RawMessage(spec.Canon(spec.Generate(1)))
	for _, rq := range []struct {
		name string
		job  JobRequest
	}{
		{"FIB", JobRequest{Kind: "simulate", Simulate: &SimulateRequest{Config: "base", Workload: "FIB"}}},
		{"RAY", JobRequest{Kind: "simulate", Simulate: &SimulateRequest{Config: "base", Workload: "RAY"}}},
		{"generated spec", JobRequest{Kind: "simulate", Simulate: &SimulateRequest{Config: "base", Spec: gen}}},
		{"vet report", JobRequest{Kind: "vet", Vet: &VetRequest{Config: "cars", Workload: "FIB"}}},
		{"experiment", JobRequest{Kind: "experiment", Experiment: &ExperimentRequest{ID: "fig1"}}},
	} {
		path, doc := "/v1/"+rq.job.Kind, any(rq.job.Simulate)
		switch rq.job.Kind {
		case "vet":
			doc = rq.job.Vet
		case "experiment":
			doc = rq.job.Experiment
		}
		miss := doJSON(s, "POST", path, doc)
		if miss.Code != http.StatusOK {
			t.Fatalf("%s: miss = %d: %s", rq.name, miss.Code, miss.Body.String())
		}
		var r Response
		if err := json.Unmarshal(miss.Body.Bytes(), &r); err != nil {
			t.Fatalf("%s: %v", rq.name, err)
		}
		var key cache.Key
		if raw, err := hex.DecodeString(r.Key); err != nil || len(raw) != len(key) {
			t.Fatalf("%s: bad key %q", rq.name, r.Key)
		} else {
			copy(key[:], raw)
		}
		data, ok := s.cache.Get(key)
		if !ok {
			t.Fatalf("%s: result not cached", rq.name)
		}
		if want := encoded(t, Response{Key: r.Key, Result: data}); !bytes.Equal(miss.Body.Bytes(), want) {
			t.Errorf("%s: miss body differs from the encoder's (%d vs %d bytes)", rq.name, miss.Body.Len(), len(want))
		}
		hit := doJSON(s, "POST", path, doc)
		if want := encoded(t, Response{Key: r.Key, Cached: true, Result: data}); hit.Code != http.StatusOK || !bytes.Equal(hit.Body.Bytes(), want) {
			t.Errorf("%s: hit = %d, body differs from the encoder's (%d vs %d bytes)", rq.name, hit.Code, hit.Body.Len(), len(want))
		}

		sub := doJSON(s, "POST", "/v1/jobs", rq.job)
		if sub.Code != http.StatusAccepted {
			t.Fatalf("%s: submit = %d: %s", rq.name, sub.Code, sub.Body.String())
		}
		var st JobStatus
		json.Unmarshal(sub.Body.Bytes(), &st)
		waitJob(t, s, st.ID)
		if fetch := doJSON(s, "GET", "/v1/jobs/"+st.ID+"/result", nil); fetch.Code != http.StatusOK || !bytes.Equal(fetch.Body.Bytes(), hit.Body.Bytes()) {
			t.Errorf("%s: async fetch = %d, body differs from the sync hit's (%d vs %d bytes)", rq.name, fetch.Code, fetch.Body.Len(), hit.Body.Len())
		}
		results = append(results, stored{rq.name, key, data})
	}
	escaped, err := json.Marshal(map[string]string{"s": "<a & b> \u2028 \u2029"})
	if err != nil {
		t.Fatal(err)
	}
	results = append(results, stored{"HTML and line separators", cache.Key{1, 2, 3}, escaped})

	for _, st := range results {
		for _, cached := range []bool{false, true} {
			for _, shared := range []bool{false, true} {
				rec := httptest.NewRecorder()
				respond(rec, st.key, st.data, cached, shared)
				want := encoded(t, Response{Key: st.key.String(), Cached: cached, Shared: shared, Result: st.data})
				if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
					t.Errorf("%s cached=%v shared=%v: %d, body differs from the encoder's:\n got %.120q\nwant %.120q",
						st.name, cached, shared, rec.Code, rec.Body.Bytes(), want)
				}
				if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(len(want)) {
					t.Errorf("%s cached=%v shared=%v: Content-Length %s, want %d", st.name, cached, shared, got, len(want))
				}
				if got := rec.Header().Get("Content-Type"); got != "application/json" {
					t.Errorf("%s: Content-Type %q", st.name, got)
				}
			}
		}
	}
}

// discardWriter is a ResponseWriter that keeps headers and the status
// and drops the body, so BenchmarkServeHit times the handler, not a
// recorder's copy.
type discardWriter struct {
	h    http.Header
	code int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(code int)        { d.code = code }

// BenchmarkServeHit times one cache hit through Server.ServeHTTP on a
// registry key (RAY on base, a 68.6 KB stored result) and on an
// inline-spec key, whose hit also parses and canonicalises the spec.
func BenchmarkServeHit(b *testing.B) {
	s := New(Options{Workers: 1})
	b.Cleanup(func() { s.Close(context.Background()) })
	for _, c := range []struct {
		name string
		req  SimulateRequest
	}{
		{"registry", SimulateRequest{Config: "base", Workload: "RAY"}},
		{"spec", SimulateRequest{Config: "base", Spec: json.RawMessage(spec.Canon(spec.Generate(1)))}},
	} {
		body, err := json.Marshal(c.req)
		if err != nil {
			b.Fatal(err)
		}
		post := func(w http.ResponseWriter) {
			s.ServeHTTP(w, httptest.NewRequest("POST", "/v1/simulate", bytes.NewReader(body)))
		}
		rec := httptest.NewRecorder()
		post(rec)
		if rec.Code != http.StatusOK {
			b.Fatalf("%s: prefill = %d: %s", c.name, rec.Code, rec.Body.String())
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			w := &discardWriter{h: http.Header{}}
			for b.Loop() {
				clear(w.h)
				post(w)
			}
			if w.code != http.StatusOK {
				b.Fatalf("hit = %d", w.code)
			}
		})
	}
}
