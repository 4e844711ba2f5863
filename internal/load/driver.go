package load

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Outcome is what a Target observed for one request.
type Outcome struct {
	// Code is the HTTP status (0 on transport error).
	Code int
	// Cached/Shared echo the daemon's response envelope: answered from
	// the result cache, or collapsed onto another caller's execution.
	Cached bool
	Shared bool
	// Err is the transport error, when Code is 0.
	Err error
}

// Target executes one request against the system under test. It must
// be safe for concurrent calls.
type Target func(ctx context.Context, req Request) Outcome

// Stage is one step of a ramp schedule. Closed-loop stages fix
// Concurrency (virtual clients, each waiting for its response);
// open-loop stages fix Rate (requests/second, arrivals independent of
// latency). A stage ends at Duration, or earlier once Requests have
// been sent when Requests > 0.
type Stage struct {
	Concurrency int           // closed-loop virtual clients
	Rate        int           // open-loop arrivals per second
	Duration    time.Duration // wall-clock budget (0 = Requests-bound only)
	Requests    int           // request budget (0 = Duration-bound only)
	// MaxInFlight bounds an open-loop stage's outstanding requests
	// (arrivals past the bound are counted as Dropped, not silently
	// queued — client-side overload is part of the measurement).
	// Default 1024. Ignored by closed-loop stages.
	MaxInFlight int
}

// StageResult is one stage's measurement.
type StageResult struct {
	Stage   Stage
	Elapsed time.Duration
	Sent    int
	// Codes counts responses by HTTP status.
	Codes map[int]int
	// OK/Cached/Shared count 200 responses and their dedup provenance
	// (Cached+Shared ≤ OK; OK−Cached−Shared led real executions).
	OK     int
	Cached int
	Shared int
	// ColdSent counts requests drawn from the cold (fresh-spec) mix.
	ColdSent int
	// TransportErrors counts requests that never got an HTTP status.
	TransportErrors int
	// Dropped counts open-loop arrivals shed at the MaxInFlight bound.
	Dropped int
	// Latencies holds every response latency in completion order
	// (transport errors included: the client waited that long either
	// way).
	Latencies []time.Duration
}

// Throughput is the stage's completed responses per second.
func (r *StageResult) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Sent-r.Dropped) / r.Elapsed.Seconds()
}

// recorder folds observations into a stage result under one mutex.
type recorder struct {
	mu  sync.Mutex
	res *StageResult
}

// observe records one response: its latency (a negative one, from a
// clock step, as 0) and its status counts.
func (rc *recorder) observe(req Request, out Outcome, d time.Duration) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.res.Latencies = append(rc.res.Latencies, max(d, 0))
	rc.res.Sent++
	if req.Cold {
		rc.res.ColdSent++
	}
	if out.Code == 0 {
		rc.res.TransportErrors++
		return
	}
	rc.res.Codes[out.Code]++
	if out.Code == 200 {
		rc.res.OK++
		if out.Cached {
			rc.res.Cached++
		}
		if out.Shared {
			rc.res.Shared++
		}
	}
}

// RunClosed drives the stages closed-loop: Stage.Concurrency virtual
// clients each issue a request, wait for the response, and repeat
// until the stage's duration or request budget ends (or ctx does).
// Results come back per stage, in order.
func RunClosed(ctx context.Context, stages []Stage, src Source, target Target) []StageResult {
	results := make([]StageResult, 0, len(stages))
	for _, st := range stages {
		if ctx.Err() != nil {
			break
		}
		results = append(results, runClosedStage(ctx, st, src, target))
	}
	return results
}

func runClosedStage(ctx context.Context, st Stage, src Source, target Target) StageResult {
	if st.Concurrency < 1 {
		st.Concurrency = 1
	}
	res := StageResult{Stage: st, Codes: map[int]int{}}
	rc := &recorder{res: &res}
	sctx, cancel := stageContext(ctx, st)
	defer cancel()

	var budget atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < st.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sctx.Err() == nil {
				if st.Requests > 0 && budget.Add(1) > int64(st.Requests) {
					return
				}
				req := src.Next()
				t0 := time.Now()
				out := target(sctx, req)
				rc.observe(req, out, time.Since(t0))
			}
		}()
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	return res
}

// RunOpen drives the stages open-loop: arrivals at Stage.Rate per
// second regardless of response latency, each served on its own
// goroutine, bounded by Stage.MaxInFlight (excess arrivals are shed
// and counted as Dropped). Open loop is the honest overload probe:
// when the daemon slows down, the offered rate does not — queues and
// 429s, not a politely self-throttling client, absorb the difference.
func RunOpen(ctx context.Context, stages []Stage, src Source, target Target) []StageResult {
	results := make([]StageResult, 0, len(stages))
	for _, st := range stages {
		if ctx.Err() != nil {
			break
		}
		results = append(results, runOpenStage(ctx, st, src, target))
	}
	return results
}

func runOpenStage(ctx context.Context, st Stage, src Source, target Target) StageResult {
	if st.Rate < 1 {
		st.Rate = 1
	}
	if st.MaxInFlight <= 0 {
		st.MaxInFlight = 1024
	}
	res := StageResult{Stage: st, Codes: map[int]int{}}
	rc := &recorder{res: &res}
	sctx, cancel := stageContext(ctx, st)
	defer cancel()

	interval := time.Second / time.Duration(st.Rate)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	inflight := make(chan struct{}, st.MaxInFlight)
	var wg sync.WaitGroup
	launched := 0
	start := time.Now()
loop:
	for {
		select {
		case <-sctx.Done():
			break loop
		case <-ticker.C:
			if st.Requests > 0 && launched+res.Dropped >= st.Requests {
				break loop
			}
			select {
			case inflight <- struct{}{}:
			default:
				rc.mu.Lock()
				res.Dropped++
				res.Sent++
				rc.mu.Unlock()
				continue
			}
			launched++
			req := src.Next()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-inflight }()
				t0 := time.Now()
				out := target(sctx, req)
				rc.observe(req, out, time.Since(t0))
			}()
		}
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	return res
}

// stageContext bounds a stage by its duration under the run context.
func stageContext(ctx context.Context, st Stage) (context.Context, context.CancelFunc) {
	if st.Duration > 0 {
		return context.WithTimeout(ctx, st.Duration)
	}
	return context.WithCancel(ctx)
}

// ParseRamp parses a ramp schedule like "8x10s,16x10s,32x30s": each
// comma-separated stage is LEVELxDURATION, where LEVEL is the
// concurrency (closed-loop) or arrival rate in requests/second
// (open-loop).
func ParseRamp(s string, closed bool) ([]Stage, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("load: empty ramp schedule")
	}
	var stages []Stage
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		lvl, durs, ok := strings.Cut(part, "x")
		if !ok {
			return nil, fmt.Errorf("load: ramp stage %q: want LEVELxDURATION (e.g. 8x10s)", part)
		}
		n, err := strconv.Atoi(lvl)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("load: ramp stage %q: bad level %q", part, lvl)
		}
		d, err := time.ParseDuration(durs)
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("load: ramp stage %q: bad duration %q", part, durs)
		}
		st := Stage{Duration: d}
		if closed {
			st.Concurrency = n
		} else {
			st.Rate = n
		}
		stages = append(stages, st)
	}
	return stages, nil
}
