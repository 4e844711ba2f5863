// Command carsbench drives a live carsd with a deterministic load
// model and archives the serving layer's latency trajectory.
//
//	carsbench -addr http://localhost:8344 -mode closed -ramp 8x5s,16x5s
//	carsbench -mode open -ramp 200x10s -keys 64 -skew 1 -cold 10
//	carsbench -requests 2000 -seed 42 -o LOAD_2026-08-08.json
//
// The offered load is a zipf-skewed hot set of Keys distinct workload
// specs mixed with -cold percent never-before-seen specs, all derived
// from -seed (equal seeds replay the exact request-key byte sequence —
// see internal/load). Around the run carsbench reads the daemon's
// /metricsz typed snapshot, so the report pairs client-observed
// latency quantiles with the daemon's own ground truth: singleflight
// collapse rate, cache hit ratio, and 429/503/504 counts. The result
// is a LOAD_<date>.json report; cmd/benchjson -compare diffs two of
// them advisorily.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"carsgo/internal/load"
	"carsgo/internal/serve/metrics"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("carsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", envOr("CARSD_ADDR", "http://localhost:8344"), "carsd base URL")
	mode := fs.String("mode", "closed", "driver mode: closed (fixed concurrency) or open (fixed arrival rate)")
	ramp := fs.String("ramp", "8x5s", "ramp schedule LEVELxDURATION[,...]: concurrency levels (closed) or req/s (open)")
	requests := fs.Int("requests", 0, "per-stage request budget (0 = duration-bound only)")
	maxInFlight := fs.Int("max-in-flight", 0, "open-loop in-flight bound before arrivals are shed (0 = default 1024)")
	seed := fs.Uint64("seed", 1, "load-model seed; equal seeds replay the exact request sequence")
	keys := fs.Int("keys", 16, "hot-set size: distinct cacheable specs")
	skew := fs.Int("skew", 1, "zipf exponent over the hot set (0 = uniform)")
	cold := fs.Int("cold", 0, "percent of requests carrying a fresh never-seen spec")
	config := fs.String("config", "base", "carsd configuration name in each request")
	full := fs.Bool("full", false, "generate full specs (realistic cold cost) instead of mini specs")
	timeout := fs.Duration("timeout", 0, "per-request deadline stamped into request bodies")
	out := fs.String("o", "", "archive path (default LOAD_<date>.json; \"-\" for stdout only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	model := load.Model{
		Seed: *seed, Keys: *keys, Skew: *skew, ColdPct: *cold,
		Config: *config, Full: *full,
	}
	if *timeout > 0 {
		model.TimeoutMs = timeout.Milliseconds()
	}
	if err := model.Validate(); err != nil {
		fmt.Fprintln(stderr, "carsbench:", err)
		return 2
	}
	closed := *mode == "closed"
	if !closed && *mode != "open" {
		fmt.Fprintf(stderr, "carsbench: -mode %q: want closed or open\n", *mode)
		return 2
	}
	stages, err := load.ParseRamp(*ramp, closed)
	if err != nil {
		fmt.Fprintln(stderr, "carsbench:", err)
		return 2
	}
	for i := range stages {
		stages[i].Requests = *requests
		stages[i].MaxInFlight = *maxInFlight
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	client := &http.Client{}
	if err := waitHealthy(ctx, client, *addr); err != nil {
		fmt.Fprintln(stderr, "carsbench:", err)
		return 1
	}

	src, err := model.Stream()
	if err != nil {
		fmt.Fprintln(stderr, "carsbench:", err)
		return 2
	}

	before, berr := fetchSnapshot(ctx, client, *addr)
	if berr != nil {
		fmt.Fprintf(stderr, "carsbench: /metricsz unavailable before run: %v (server counters omitted)\n", berr)
	}

	target := httpTarget(client, *addr)
	var results []load.StageResult
	if closed {
		results = load.RunClosed(ctx, stages, src, target)
	} else {
		results = load.RunOpen(ctx, stages, src, target)
	}
	if len(results) == 0 {
		fmt.Fprintln(stderr, "carsbench: run cancelled before any stage completed")
		return 1
	}

	report := &load.Report{
		SchemaVersion: load.ReportSchemaVersion,
		Kind:          load.ReportKind,
		Date:          time.Now().UTC().Format("2006-01-02"),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		Mode:          *mode,
		Seed:          model.Seed,
		Model: load.ModelInfo{
			Keys: src.Model().Keys, Skew: src.Model().Skew, ColdPct: src.Model().ColdPct,
			Config: src.Model().Config, Full: src.Model().Full,
		},
	}
	for _, res := range results {
		report.Stages = append(report.Stages, load.StageReportOf(res))
	}
	if berr == nil {
		if after, err := fetchSnapshot(ctx, client, *addr); err == nil {
			delta := load.ServerDeltaOf(before, after)
			report.Server = &delta
		} else {
			fmt.Fprintf(stderr, "carsbench: /metricsz unavailable after run: %v (server counters omitted)\n", err)
		}
	}

	printSummary(stdout, report)

	path := *out
	if path == "" {
		path = "LOAD_" + report.Date + ".json"
	}
	if path != "-" {
		if err := report.WriteFile(path); err != nil {
			fmt.Fprintln(stderr, "carsbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "archived %s\n", path)
	}
	return 0
}

func envOr(k, def string) string {
	if v := os.Getenv(k); v != "" {
		return v
	}
	return def
}

// waitHealthy polls /healthz briefly so `carsd & carsbench` races in
// scripts don't fail on the daemon's startup window.
func waitHealthy(ctx context.Context, client *http.Client, addr string) error {
	deadline := time.Now().Add(10 * time.Second)
	var last error
	for time.Now().Before(deadline) {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			last = fmt.Errorf("healthz: %s", resp.Status)
		} else {
			last = err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(200 * time.Millisecond):
		}
	}
	return fmt.Errorf("carsd at %s not healthy: %v", addr, last)
}

func fetchSnapshot(ctx context.Context, client *http.Client, addr string) (metrics.Snapshot, error) {
	var snap metrics.Snapshot
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/metricsz", nil)
	if err != nil {
		return snap, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("/metricsz: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, fmt.Errorf("decode /metricsz: %w", err)
	}
	return snap, nil
}

// httpTarget posts one request body to /v1/simulate and folds the
// response envelope into a driver outcome.
func httpTarget(client *http.Client, addr string) load.Target {
	return func(ctx context.Context, req load.Request) load.Outcome {
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
			addr+"/v1/simulate", bytes.NewReader(req.Body))
		if err != nil {
			return load.Outcome{Err: err}
		}
		hreq.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(hreq)
		if err != nil {
			return load.Outcome{Err: err}
		}
		defer resp.Body.Close()
		out := load.Outcome{Code: resp.StatusCode}
		if resp.StatusCode == http.StatusOK {
			var envelope struct {
				Cached bool `json:"cached"`
				Shared bool `json:"shared"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&envelope); err == nil {
				out.Cached = envelope.Cached
				out.Shared = envelope.Shared
			}
		} else {
			io.Copy(io.Discard, resp.Body)
		}
		return out
	}
}

func printSummary(w io.Writer, r *load.Report) {
	fmt.Fprintf(w, "carsbench %s seed=%d keys=%d skew=%d cold=%d%%\n",
		r.Mode, r.Seed, r.Model.Keys, r.Model.Skew, r.Model.ColdPct)
	for i, st := range r.Stages {
		level := st.Concurrency
		unit := "clients"
		if r.Mode == "open" {
			level = st.RateRPS
			unit = "req/s"
		}
		fmt.Fprintf(w, "stage %d: %d %s for %.1fs: %d sent, %d ok, %.0f req/s\n",
			i+1, level, unit, st.DurationSec, st.Sent, st.OK, st.ThroughputRPS)
		fmt.Fprintf(w, "  latency p50 %.3fms p90 %.3fms p99 %.3fms p99.9 %.3fms max %.3fms\n",
			st.Latency.P50Ms, st.Latency.P90Ms, st.Latency.P99Ms, st.Latency.P999Ms, st.Latency.MaxMs)
		fmt.Fprintf(w, "  cached %d, collapsed %d, cold %d, dropped %d, transport errors %d\n",
			st.Cached, st.Shared, st.ColdSent, st.Dropped, st.TransportErrors)
		if len(st.Codes) > 0 {
			fmt.Fprintf(w, "  codes %v\n", st.Codes)
		}
	}
	if s := r.Server; s != nil {
		fmt.Fprintf(w, "server: %.0f sim runs, collapse rate %.3f, cache hit ratio %.3f\n",
			s.SimRuns, s.CollapseRate, s.CacheHitRatio)
		fmt.Fprintf(w, "  429 rejected %.0f, 503 draining %.0f, 504 deadline %.0f\n",
			s.Rejected429, s.Unavailable503, s.Timeout504)
	}
}
