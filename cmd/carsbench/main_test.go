package main

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"carsgo/internal/load"
	"carsgo/internal/serve"
)

func testDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	s := serve.New(serve.Options{Workers: 4, QueueCap: 4096, DefaultTimeout: time.Minute})
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	return ts
}

// TestRunClosedEndToEnd drives a live daemon over HTTP and checks the
// archived report carries latency quantiles and the daemon's dedup
// counters — the acceptance-criteria path.
func TestRunClosedEndToEnd(t *testing.T) {
	ts := testDaemon(t)
	out := filepath.Join(t.TempDir(), "LOAD_test.json")
	var buf strings.Builder
	code := run([]string{
		"-addr", ts.URL, "-mode", "closed", "-ramp", "8x30s",
		"-requests", "200", "-seed", "7", "-keys", "4", "-skew", "2",
		"-o", out,
	}, &buf, os.Stderr)
	if code != 0 {
		t.Fatalf("run exited %d\n%s", code, buf.String())
	}

	r, err := load.ReadReport(out)
	if err != nil {
		t.Fatalf("ReadReport: %v", err)
	}
	if r.Mode != "closed" || r.Seed != 7 || r.Model.Keys != 4 {
		t.Fatalf("report identity = %+v", r)
	}
	if len(r.Stages) != 1 {
		t.Fatalf("stages = %d", len(r.Stages))
	}
	st := r.Stages[0]
	if st.Sent != 200 || st.OK != 200 {
		t.Fatalf("stage = %+v", st)
	}
	// 200 samples leave 100 beyond p50 and 20 beyond p90, but only 2
	// beyond p99, so p99 and p99.9 are not reported.
	lat := st.Latency
	if lat.Samples != 200 || lat.P50Ms == nil || lat.P90Ms == nil || *lat.P50Ms <= 0 || *lat.P90Ms < *lat.P50Ms ||
		*lat.P90Ms > lat.MaxMs || lat.P99Ms != nil || lat.P999Ms != nil {
		t.Fatalf("latency quantiles = %+v", lat)
	}
	if r.Server == nil {
		t.Fatal("server delta missing")
	}
	if int(r.Server.RequestsCached) != st.Cached || int(r.Server.RequestsCollapsed) != st.Shared {
		t.Fatalf("daemon counters (cached %.0f, collapsed %.0f) disagree with client (%d, %d)",
			r.Server.RequestsCached, r.Server.RequestsCollapsed, st.Cached, st.Shared)
	}
	if r.Server.SimRuns < 1 || int(r.Server.SimRuns) > 4+st.ColdSent {
		t.Fatalf("sim runs %.0f outside [1, %d]", r.Server.SimRuns, 4+st.ColdSent)
	}
	// 4 hot keys, 200 requests: the dedup stack must have absorbed most.
	if r.Server.CacheHitRatio == 0 && r.Server.CollapseRate == 0 {
		t.Fatalf("no dedup observed: %+v", r.Server)
	}

	text := buf.String()
	for _, want := range []string{"latency p50", "collapse rate", "archived "} {
		if !strings.Contains(text, want) {
			t.Errorf("summary missing %q:\n%s", want, text)
		}
	}
}

func TestRunOpenEndToEnd(t *testing.T) {
	ts := testDaemon(t)
	var buf strings.Builder
	code := run([]string{
		"-addr", ts.URL, "-mode", "open", "-ramp", "400x30s",
		"-requests", "100", "-seed", "3", "-keys", "2", "-o", "-",
	}, &buf, os.Stderr)
	if code != 0 {
		t.Fatalf("run exited %d\n%s", code, buf.String())
	}
	if !strings.Contains(buf.String(), "req/s") {
		t.Fatalf("open summary:\n%s", buf.String())
	}
}

func TestRunBadFlags(t *testing.T) {
	var buf strings.Builder
	for _, args := range [][]string{
		{"-mode", "sideways"},
		{"-ramp", "nope"},
		{"-skew", "9"},
	} {
		if code := run(args, &buf, &buf); code != 2 {
			t.Errorf("run(%v) exited %d, want 2", args, code)
		}
	}
}
