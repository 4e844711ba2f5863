package load

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingTarget is a fake system under test: first execution per key
// is "real", repeats report cached (roughly what carsd's cache does for
// a serialized client, enough for counter plumbing tests).
type countingTarget struct {
	mu   sync.Mutex
	seen map[string]bool
	hits atomic.Int64
}

func (c *countingTarget) target(ctx context.Context, req Request) Outcome {
	c.hits.Add(1)
	c.mu.Lock()
	cached := c.seen[req.Key]
	c.seen[req.Key] = true
	c.mu.Unlock()
	return Outcome{Code: 200, Cached: cached}
}

func TestRunClosedRequestBudget(t *testing.T) {
	src, err := Model{Seed: 1, Keys: 4}.Stream()
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	ct := &countingTarget{seen: map[string]bool{}}
	stages := []Stage{{Concurrency: 4, Requests: 100}}
	results := RunClosed(context.Background(), stages, src, ct.target)
	if len(results) != 1 {
		t.Fatalf("got %d results, want 1", len(results))
	}
	res := results[0]
	if res.Sent != 100 {
		t.Fatalf("Sent = %d, want exactly the 100-request budget", res.Sent)
	}
	if res.OK != 100 || res.Codes[200] != 100 {
		t.Fatalf("OK = %d, Codes = %v, want 100 OK", res.OK, res.Codes)
	}
	if got := ct.hits.Load(); got != 100 {
		t.Fatalf("target executed %d times, want 100", got)
	}
	if len(res.Latencies) != 100 {
		t.Fatalf("recorded %d latencies, want 100", len(res.Latencies))
	}
	// 4 distinct keys → at most 4 uncached responses.
	if res.Cached < res.OK-4 {
		t.Fatalf("Cached = %d of %d OK over 4 keys", res.Cached, res.OK)
	}
	if res.Throughput() <= 0 {
		t.Fatalf("Throughput = %v, want > 0", res.Throughput())
	}
}

func TestRunClosedDurationBound(t *testing.T) {
	src, err := Model{Seed: 2, Keys: 2}.Stream()
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	ct := &countingTarget{seen: map[string]bool{}}
	stages := []Stage{{Concurrency: 2, Duration: 50 * time.Millisecond}}
	start := time.Now()
	results := RunClosed(context.Background(), stages, src, ct.target)
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("duration-bound stage ran %v", e)
	}
	if results[0].Sent == 0 {
		t.Fatal("duration-bound stage sent nothing")
	}
}

func TestRunClosedCancel(t *testing.T) {
	src, err := Model{Seed: 3, Keys: 2}.Stream()
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := RunClosed(ctx, []Stage{{Concurrency: 2, Requests: 10}, {Concurrency: 2, Requests: 10}},
		src, func(context.Context, Request) Outcome { return Outcome{Code: 200} })
	if len(results) != 0 {
		t.Fatalf("cancelled run produced %d stage results, want 0", len(results))
	}
}

func TestRecorderStatusAndTransport(t *testing.T) {
	src, err := Model{Seed: 4, Keys: 2}.Stream()
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	var n atomic.Int64
	target := func(ctx context.Context, req Request) Outcome {
		switch n.Add(1) % 3 {
		case 0:
			return Outcome{Code: 429}
		case 1:
			return Outcome{Code: 0, Err: errors.New("conn refused")}
		default:
			return Outcome{Code: 200, Shared: true}
		}
	}
	res := RunClosed(context.Background(), []Stage{{Concurrency: 1, Requests: 30}}, src, target)[0]
	if res.Sent != 30 {
		t.Fatalf("Sent = %d", res.Sent)
	}
	if res.Codes[429] != 10 || res.TransportErrors != 10 || res.OK != 10 || res.Shared != 10 {
		t.Fatalf("counts off: codes=%v transport=%d ok=%d shared=%d",
			res.Codes, res.TransportErrors, res.OK, res.Shared)
	}
}

// TestRunOpenSheds: a slow target with MaxInFlight 1 and a fast rate
// must shed arrivals as Dropped rather than queueing unboundedly.
func TestRunOpenSheds(t *testing.T) {
	src, err := Model{Seed: 5, Keys: 2}.Stream()
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	block := make(chan struct{})
	target := func(ctx context.Context, req Request) Outcome {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return Outcome{Code: 200}
	}
	stages := []Stage{{Rate: 500, Requests: 50, MaxInFlight: 1, Duration: 2 * time.Second}}
	done := make(chan []StageResult, 1)
	go func() { done <- RunOpen(context.Background(), stages, src, target) }()
	time.Sleep(300 * time.Millisecond)
	close(block)
	results := <-done
	res := results[0]
	if res.Dropped == 0 {
		t.Fatalf("open loop at 500 rps over a blocked 1-in-flight target dropped nothing: %+v", res)
	}
	if res.Sent != res.Dropped+res.OK+res.TransportErrors+nonOKCodes(res) {
		t.Fatalf("accounting broken: %+v", res)
	}
}

func nonOKCodes(r StageResult) int {
	n := 0
	for code, c := range r.Codes {
		if code != 200 {
			n += c
		}
	}
	return n
}

func TestRunOpenCompletes(t *testing.T) {
	src, err := Model{Seed: 6, Keys: 2}.Stream()
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	target := func(ctx context.Context, req Request) Outcome { return Outcome{Code: 200} }
	res := RunOpen(context.Background(),
		[]Stage{{Rate: 2000, Requests: 40, Duration: 5 * time.Second}}, src, target)[0]
	if res.Sent != 40 {
		t.Fatalf("Sent = %d, want the 40-request budget", res.Sent)
	}
	if res.OK+res.Dropped != 40 {
		t.Fatalf("OK %d + Dropped %d != 40", res.OK, res.Dropped)
	}
}

func TestParseRamp(t *testing.T) {
	stages, err := ParseRamp("8x10s, 16x500ms", true)
	if err != nil {
		t.Fatalf("ParseRamp: %v", err)
	}
	if len(stages) != 2 || stages[0].Concurrency != 8 || stages[0].Duration != 10*time.Second ||
		stages[1].Concurrency != 16 || stages[1].Duration != 500*time.Millisecond {
		t.Fatalf("stages = %+v", stages)
	}
	open, err := ParseRamp("100x1s", false)
	if err != nil || open[0].Rate != 100 || open[0].Concurrency != 0 {
		t.Fatalf("open stages = %+v, err %v", open, err)
	}
	for _, bad := range []string{"", "x10s", "8x", "0x10s", "-1x10s", "8x0s", "8*10s"} {
		if _, err := ParseRamp(bad, true); err == nil {
			t.Errorf("ParseRamp(%q) accepted", bad)
		}
	}
}
