package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestJobStoreEvictionOrder pins the bounded store's overflow
// behavior: finished jobs are evicted oldest-first, pending jobs are
// never evicted, and a store of nothing but pending jobs refuses new
// submissions instead of dropping live work.
func TestJobStoreEvictionOrder(t *testing.T) {
	st := newJobStore(3)
	mk := func(id string, finished bool) *asyncJob {
		j := &asyncJob{id: id, kind: "simulate", created: time.Now(), done: make(chan struct{})}
		if finished {
			close(j.done)
		}
		return j
	}

	a, b, c := mk("a", true), mk("b", false), mk("c", true)
	for _, j := range []*asyncJob{a, b, c} {
		if err := st.add(j); err != nil {
			t.Fatalf("add %s: %v", j.id, err)
		}
	}

	// Overflow: a (oldest finished) goes; b survives despite being
	// older-positioned than c because it is still pending.
	if err := st.add(mk("d", false)); err != nil {
		t.Fatalf("add with an evictable slot: %v", err)
	}
	if _, ok := st.get("a"); ok {
		t.Fatal("oldest finished job not evicted on overflow")
	}
	for _, id := range []string{"b", "c", "d"} {
		if _, ok := st.get(id); !ok {
			t.Fatalf("job %s wrongly evicted", id)
		}
	}
	if st.len() != 3 {
		t.Fatalf("len = %d, want 3", st.len())
	}

	// Next overflow takes c: b is still pending and must be skipped.
	if err := st.add(mk("e", false)); err != nil {
		t.Fatalf("second overflow: %v", err)
	}
	if _, ok := st.get("c"); ok {
		t.Fatal("next finished job not evicted on second overflow")
	}
	if _, ok := st.get("b"); !ok {
		t.Fatal("pending job evicted")
	}

	// b, d, e are all pending: the store is full of live work and must
	// refuse, mirroring the queue's explicit admission bound.
	err := st.add(mk("f", false))
	if err == nil || !strings.Contains(err.Error(), "job store full") {
		t.Fatalf("all-pending add err = %v, want job store full", err)
	}
}

// TestJobFetchAfterEvict drives the eviction through the HTTP API: a
// small JobStoreCap forces a finished job out, and both the poll and
// result endpoints must answer 404 not_found for the evicted id — the
// same shape as a never-issued id, so clients need one recovery path.
func TestJobFetchAfterEvict(t *testing.T) {
	s := testServer(t, Options{JobStoreCap: 2})

	submit := func(wl string) string {
		t.Helper()
		rec := doJSON(s, "POST", "/v1/jobs", map[string]any{
			"kind":     "simulate",
			"simulate": map[string]any{"config": "base", "workload": wl},
		})
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submit %s = %d: %s", wl, rec.Code, rec.Body.String())
		}
		var st JobStatus
		json.Unmarshal(rec.Body.Bytes(), &st)
		return st.ID
	}
	id1 := submit("FIB")
	waitJob(t, s, id1)
	id2 := submit("GOL")
	waitJob(t, s, id2)

	// The store holds [id1 id2]; a third submission evicts id1, the
	// oldest finished job.
	id3 := submit("FIB")

	for _, path := range []string{"/v1/jobs/" + id1, "/v1/jobs/" + id1 + "/result"} {
		rec := doJSON(s, "GET", path, nil)
		if rec.Code != http.StatusNotFound {
			t.Fatalf("GET %s after evict = %d: %s", path, rec.Code, rec.Body.String())
		}
		var e apiError
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatalf("error body: %v", err)
		}
		if e.Error.Code != "not_found" || !strings.Contains(e.Error.Message, "no job") {
			t.Fatalf("error = %+v, want not_found / no job", e.Error)
		}
	}

	// The survivors still answer.
	if rec := doJSON(s, "GET", "/v1/jobs/"+id2+"/result", nil); rec.Code != http.StatusOK {
		t.Fatalf("fetch survivor = %d: %s", rec.Code, rec.Body.String())
	}
	waitJob(t, s, id3)
	if rec := doJSON(s, "GET", "/v1/jobs/"+id3+"/result", nil); rec.Code != http.StatusOK {
		t.Fatalf("fetch evictor = %d: %s", rec.Code, rec.Body.String())
	}
}

// waitJob polls an async job until it is done, failing on an error
// status or after 30 s.
func waitJob(t *testing.T, s *Server, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		rec := doJSON(s, "GET", "/v1/jobs/"+id, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("poll %s = %d", id, rec.Code)
		}
		var st JobStatus
		json.Unmarshal(rec.Body.Bytes(), &st)
		if st.Status == "done" {
			return
		}
		if st.Status == "error" {
			t.Fatalf("job %s failed: %s", id, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished", id)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJobExperiment submits exhibits through the async path, which
// resolves them with the synchronous endpoint's resolver: an unknown
// ID answers that endpoint's 404 body, and a known one is accepted and
// delivers the bytes the synchronous endpoint computes.
func TestJobExperiment(t *testing.T) {
	s := testServer(t, Options{})
	submit := func(id string) *httptest.ResponseRecorder {
		return doJSON(s, "POST", "/v1/jobs", map[string]any{
			"kind": "experiment", "experiment": map[string]any{"id": id},
		})
	}

	async := submit("fig99")
	sync := doJSON(s, "POST", "/v1/experiment", map[string]any{"id": "fig99"})
	if async.Code != http.StatusNotFound || async.Body.String() != sync.Body.String() {
		t.Fatalf("async unknown experiment = %d %s, want the sync answer %d %s",
			async.Code, async.Body.String(), sync.Code, sync.Body.String())
	}

	rec := submit("fig1")
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit fig1 = %d: %s", rec.Code, rec.Body.String())
	}
	var st JobStatus
	json.Unmarshal(rec.Body.Bytes(), &st)
	waitJob(t, s, st.ID)
	rec = doJSON(s, "GET", "/v1/jobs/"+st.ID+"/result", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("fetch fig1 = %d: %s", rec.Code, rec.Body.String())
	}
	var got, want Response
	json.Unmarshal(rec.Body.Bytes(), &got)
	// A fresh server computes the synchronous answer, so the async
	// result is compared with an execution, not with its own cache entry.
	rec = doJSON(testServer(t, Options{}), "POST", "/v1/experiment", map[string]any{"id": "fig1"})
	if rec.Code != http.StatusOK {
		t.Fatalf("sync fig1 = %d: %s", rec.Code, rec.Body.String())
	}
	json.Unmarshal(rec.Body.Bytes(), &want)
	if want.Cached || got.Key != want.Key || !bytes.Equal(got.Result, want.Result) {
		t.Fatalf("async fig1 = key %s, %d result bytes; sync = key %s (cached %v), %d bytes",
			got.Key, len(got.Result), want.Key, want.Cached, len(want.Result))
	}
}

// TestJobCancelledMidQueue parks a job behind a busy worker with a
// budget too small to ever reach the front: polling must surface the
// deadline as a status "error" record, and the result endpoint must
// map it onto the synchronous 504 contract.
func TestJobCancelledMidQueue(t *testing.T) {
	s := testServer(t, Options{Workers: 1, QueueCap: 4})

	// Occupy the only worker with a slow simulation.
	rec := doJSON(s, "POST", "/v1/jobs", map[string]any{
		"kind":     "simulate",
		"simulate": map[string]any{"config": "base", "workload": "MST"},
	})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("blocker submit = %d: %s", rec.Code, rec.Body.String())
	}

	// Queue a distinct job with a 5ms budget; its context expires while
	// it waits for the worker.
	rec = doJSON(s, "POST", "/v1/jobs", map[string]any{
		"kind":     "simulate",
		"simulate": map[string]any{"config": "base", "workload": "GOL", "timeoutMs": 5},
	})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", rec.Code, rec.Body.String())
	}
	var st JobStatus
	json.Unmarshal(rec.Body.Bytes(), &st)

	deadline := time.Now().Add(10 * time.Second)
	for st.Status != "error" {
		if st.Status == "done" {
			t.Skip("queued job reached the worker before its deadline on this machine")
		}
		if time.Now().After(deadline) {
			t.Fatal("cancelled job never reported an error status")
		}
		time.Sleep(10 * time.Millisecond)
		rec = doJSON(s, "GET", "/v1/jobs/"+st.ID, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("poll = %d", rec.Code)
		}
		json.Unmarshal(rec.Body.Bytes(), &st)
	}
	if !strings.Contains(st.Error, "deadline") {
		t.Fatalf("status error = %q, want a deadline error", st.Error)
	}

	rec = doJSON(s, "GET", "/v1/jobs/"+st.ID+"/result", nil)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("fetch of deadline-killed job = %d: %s", rec.Code, rec.Body.String())
	}
	var e apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if e.Error.Code != "deadline_exceeded" {
		t.Fatalf("error = %+v, want deadline_exceeded", e.Error)
	}
}
