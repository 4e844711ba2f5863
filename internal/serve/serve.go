// Package serve is the carsd simulation-as-a-service layer: an HTTP/
// JSON daemon exposing the existing engines — simulate (carsgo.Run
// over the workload registry), vet (vet.Report over linked programs),
// and experiment regeneration — behind a bounded worker pool with an
// explicit admission queue, per-request deadlines, single-flight
// deduplication of identical in-flight requests, and a content-
// addressed LRU result cache.
//
// The serving contract:
//
//   - Admission is bounded. When the queue is full the daemon answers
//     429 with a Retry-After estimate instead of piling up goroutines;
//     clients are expected to back off and resubmit.
//   - Every request runs under a deadline (its own timeoutMs, clamped
//     to the server max, or the server default). A simulation that
//     exceeds it is cancelled cooperatively inside the cycle loop and
//     surfaces as a structured 504, never a leaked worker.
//   - Identical requests share work twice over: an in-flight duplicate
//     joins the running execution (single-flight), and a completed one
//     is served from the content-addressed cache keyed by the
//     canonical hash of (schemaVersion, config, workload, ABI mode,
//     forced CARS policy).
//   - Everything observable is on /metrics (Prometheus text format)
//     and /healthz; request logs are structured JSON lines.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"carsgo/internal/experiments"
	"carsgo/internal/serve/cache"
	"carsgo/internal/serve/jobq"
	"carsgo/internal/serve/metrics"
	"carsgo/internal/serve/singleflight"
	"carsgo/internal/sim"
)

// SchemaVersion versions the request/response contract and is part of
// every cache key: bump it whenever a field is renamed, removed, or
// changes meaning, and old cache entries become unreachable rather
// than wrong.
const SchemaVersion = 1

// Options configures a Server. Zero values pick sane defaults.
type Options struct {
	// Workers bounds concurrent simulations (default: NumCPU).
	Workers int
	// QueueCap bounds the admission queue (default: 4×Workers).
	QueueCap int
	// CacheBytes is the result cache budget (default: 256 MiB).
	CacheBytes int64
	// CacheFile, when set, persists the cache across restarts.
	CacheFile string
	// DefaultTimeout bounds requests that name no timeout (default 2m).
	DefaultTimeout time.Duration
	// MaxTimeout clamps client-requested timeouts (default 10m).
	MaxTimeout time.Duration
	// Logger receives structured request logs; nil silences them.
	Logger *slog.Logger
	// JobStoreCap bounds the async job store (default 1024); when full,
	// the oldest finished jobs are evicted to admit new submissions.
	JobStoreCap int
}

func (o *Options) withDefaults() Options {
	v := *o
	if v.Workers <= 0 {
		v.Workers = runtime.NumCPU()
	}
	if v.QueueCap <= 0 {
		v.QueueCap = 4 * v.Workers
	}
	if v.CacheBytes == 0 {
		v.CacheBytes = 256 << 20
	}
	if v.DefaultTimeout <= 0 {
		v.DefaultTimeout = 2 * time.Minute
	}
	if v.MaxTimeout <= 0 {
		v.MaxTimeout = 10 * time.Minute
	}
	if v.Logger == nil {
		v.Logger = slog.New(slog.DiscardHandler)
	}
	if v.JobStoreCap <= 0 {
		v.JobStoreCap = 1024
	}
	return v
}

// Server is the carsd HTTP handler plus its serving machinery.
type Server struct {
	opt    Options
	mux    *http.ServeMux
	pool   *jobq.Pool
	cache  *cache.Cache
	flight *singleflight.Group
	reg    *metrics.Registry
	runner *experiments.Runner
	jobs   *jobStore
	log    *slog.Logger

	baseCtx    context.Context
	baseCancel context.CancelFunc
	start      time.Time
	draining   atomic.Bool

	reqTotal     *metrics.CounterFamily
	reqLatency   *metrics.HistogramFamily
	simRuns      *metrics.Counter
	simCycles    *metrics.Counter
	rejected     *metrics.Counter
	timeouts     *metrics.Counter
	reqCached    *metrics.Counter
	reqCollapsed *metrics.Counter
	jobPanics    *metrics.Counter
}

// New builds a Server. Call Close to drain it.
func New(opt Options) *Server {
	o := opt.withDefaults()
	s := &Server{
		opt:    o,
		mux:    http.NewServeMux(),
		pool:   jobq.New(o.Workers, o.QueueCap),
		cache:  cache.New(o.CacheBytes),
		flight: &singleflight.Group{},
		reg:    metrics.NewRegistry(),
		jobs:   newJobStore(o.JobStoreCap),
		log:    o.Logger,
		start:  time.Now(),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	// The shared experiment runner memoises simulations across
	// /v1/experiment requests on its own small pool (separate from the
	// admission pool: an experiment occupies one admission worker and
	// fans its simulations out here, so the two pools never nest).
	s.runner = experiments.NewRunner(max(1, o.Workers/2))
	s.runner.Ctx = s.baseCtx

	if o.CacheFile != "" {
		loaded, skipped, err := s.cache.LoadFile(o.CacheFile)
		if err != nil {
			s.log.Warn("cache load failed", "path", o.CacheFile, "err", err.Error())
		} else if loaded > 0 || skipped > 0 {
			s.log.Info("cache loaded", "path", o.CacheFile, "entries", loaded, "skipped", skipped)
		}
	}
	s.registerMetrics()
	s.routes()
	return s
}

func (s *Server) registerMetrics() {
	r := s.reg
	s.reqTotal = r.CounterVec("carsd_http_requests_total",
		"HTTP requests served, by endpoint and status code.", "endpoint", "code")
	s.reqLatency = r.HistogramVec("carsd_http_request_seconds",
		"HTTP request latency in seconds, by endpoint.", nil, "endpoint")
	s.simRuns = r.Counter("carsd_sim_runs_total",
		"Simulations actually executed (cache hits and collapsed duplicates excluded).")
	s.simCycles = r.Counter("carsd_sim_cycles_total",
		"Simulated GPU cycles served by executed simulations.")
	s.rejected = r.Counter("carsd_queue_rejected_total",
		"Requests refused with 429 because the admission queue was full.")
	s.timeouts = r.Counter("carsd_request_timeouts_total",
		"Requests that exceeded their deadline mid-simulation.")
	// Request-level dedup provenance: these count exactly the responses
	// whose envelope said cached:true / shared:true, so a load client's
	// own tallies must reconcile against them (the serve zipf test and
	// carsbench both assert that).
	s.reqCached = r.Counter("carsd_requests_cached_total",
		"Requests answered from the result cache without executing.")
	s.reqCollapsed = r.Counter("carsd_requests_collapsed_total",
		"Requests that joined another caller's in-flight execution.")
	s.jobPanics = r.Counter("carsd_job_panics_total",
		"Executions that panicked; the worker recovered and the request got a 500.")

	r.GaugeFunc("carsd_queue_depth", "Jobs admitted but not yet running.",
		func() float64 { return float64(s.pool.Depth()) })
	r.GaugeFunc("carsd_queue_capacity", "Admission queue capacity.",
		func() float64 { return float64(s.pool.Cap()) })
	r.GaugeFunc("carsd_inflight_jobs", "Jobs currently executing.",
		func() float64 { return float64(s.pool.InFlight()) })
	r.GaugeFunc("carsd_workers", "Worker-pool size.",
		func() float64 { return float64(s.pool.Workers()) })
	r.GaugeFunc("carsd_uptime_seconds", "Seconds since the daemon started.",
		func() float64 { return time.Since(s.start).Seconds() })

	r.CounterFunc("carsd_cache_hits_total", "Result-cache hits.",
		func() float64 { return float64(s.cache.Stats().Hits) })
	r.CounterFunc("carsd_cache_misses_total", "Result-cache misses.",
		func() float64 { return float64(s.cache.Stats().Misses) })
	r.CounterFunc("carsd_cache_evictions_total", "Result-cache LRU evictions.",
		func() float64 { return float64(s.cache.Stats().Evictions) })
	r.GaugeFunc("carsd_cache_bytes", "Result-cache payload footprint.",
		func() float64 { return float64(s.cache.Stats().Bytes) })
	r.GaugeFunc("carsd_cache_entries", "Result-cache entry count.",
		func() float64 { return float64(s.cache.Stats().Entries) })

	r.CounterFunc("carsd_singleflight_executions_total",
		"Request executions that led a flight.",
		func() float64 { return float64(s.flight.Stats().Executions) })
	r.CounterFunc("carsd_singleflight_collapsed_total",
		"Requests collapsed onto an identical in-flight execution.",
		func() float64 { return float64(s.flight.Stats().Collapsed) })
}

func (s *Server) routes() {
	s.handle("GET /healthz", "healthz", s.handleHealthz)
	s.handle("GET /metrics", "metrics", s.reg.Handler().ServeHTTP)
	s.handle("GET /metricsz", "metricsz", s.handleMetricsz)
	s.handle("POST /v1/simulate", "simulate", s.handleSimulate)
	s.handle("POST /v1/vet", "vet", s.handleVet)
	s.handle("POST /v1/experiment", "experiment", s.handleExperiment)
	s.handle("POST /v1/jobs", "jobs-submit", s.handleJobSubmit)
	s.handle("GET /v1/jobs/{id}", "jobs-poll", s.handleJobPoll)
	s.handle("GET /v1/jobs/{id}/result", "jobs-fetch", s.handleJobFetch)
}

// handle wraps a route with metrics and structured logging.
func (s *Server) handle(pattern, endpoint string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		rw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(rw, r)
		dur := time.Since(t0)
		s.reqTotal.With(endpoint, strconv.Itoa(rw.code)).Inc()
		s.reqLatency.With(endpoint).Observe(dur.Seconds())
		s.log.Info("request",
			"method", r.Method, "path", r.URL.Path, "endpoint", endpoint,
			"status", rw.code, "durMs", dur.Milliseconds(),
			"bytes", rw.bytes, "remote", r.RemoteAddr)
	})
}

// statusWriter captures the response code and size for logs/metrics.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// ServeHTTP dispatches to the routed handlers.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Registry exposes the metric registry (tests, embedding).
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Cache exposes the result cache (tests, embedding).
func (s *Server) Cache() *cache.Cache { return s.cache }

// Draining reports whether Close has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close drains the server: admission stops (new work answers 503),
// in-flight jobs run to completion (bounded by ctx), and the cache is
// persisted when a cache file is configured. The HTTP listener's own
// graceful shutdown is the caller's job (http.Server.Shutdown); call
// Close after it so handlers still waiting on jobs get their answers.
func (s *Server) Close(ctx context.Context) error {
	s.draining.Store(true)
	err := s.pool.Drain(ctx)
	if err != nil {
		// The deadline cut the drain short: abandon remaining jobs so
		// their context checks terminate them.
		s.baseCancel()
	}
	if s.opt.CacheFile != "" {
		if serr := s.cache.SaveFile(s.opt.CacheFile); serr != nil && err == nil {
			err = serr
		} else if serr == nil {
			s.log.Info("cache saved", "path", s.opt.CacheFile, "entries", s.cache.Len())
		}
	}
	s.baseCancel()
	return err
}

// healthz is the liveness/readiness document.
type healthz struct {
	Status        string `json:"status"` // "ok" or "draining"
	UptimeSeconds int64  `json:"uptimeSeconds"`
	Workers       int    `json:"workers"`
	QueueDepth    int    `json:"queueDepth"`
	QueueCapacity int    `json:"queueCapacity"`
	InFlight      int    `json:"inFlight"`
	CacheEntries  int    `json:"cacheEntries"`
	SchemaVersion int    `json:"schemaVersion"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := healthz{
		Status:        "ok",
		UptimeSeconds: int64(time.Since(s.start).Seconds()),
		Workers:       s.pool.Workers(),
		QueueDepth:    s.pool.Depth(),
		QueueCapacity: s.pool.Cap(),
		InFlight:      s.pool.InFlight(),
		CacheEntries:  s.cache.Len(),
		SchemaVersion: SchemaVersion,
	}
	code := http.StatusOK
	if s.draining.Load() {
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

// handleMetricsz serves the registry's typed JSON snapshot — the same
// counters as /metrics, as data instead of exposition lines, so load
// clients (carsbench, carsctl) diff daemon state without text parsing.
// The document is metrics.Snapshot and carries its own schemaVersion.
func (s *Server) handleMetricsz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.Snapshot())
}

// apiError is the error envelope every non-2xx JSON response uses.
type apiError struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Cycles/BlocksDone carry partial simulation state on timeouts.
	Cycles     int64 `json:"cycles,omitempty"`
	BlocksDone int   `json:"blocksDone,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, errCode, format string, args ...any) {
	writeJSON(w, code, apiError{Error: errorBody{Code: errCode, Message: fmt.Sprintf(format, args...)}})
}

// writeExecError maps an execution error onto the HTTP contract:
// backpressure → 429 + Retry-After, deadline → structured 504,
// cancellation → 503 during drain, anything else → 500.
func (s *Server) writeExecError(w http.ResponseWriter, err error) {
	var cancel *sim.CancelError
	switch {
	case errors.Is(err, jobq.ErrQueueFull):
		s.rejected.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
		writeError(w, http.StatusTooManyRequests, "queue_full",
			"admission queue full (%d queued, %d running); retry later",
			s.pool.Depth(), s.pool.InFlight())
	case errors.Is(err, jobq.ErrDraining) || errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, "draining", "server is draining")
	case errors.As(err, &cancel):
		s.timeouts.Inc()
		body := errorBody{Code: "deadline_exceeded", Message: err.Error(),
			Cycles: cancel.Cycles, BlocksDone: cancel.BlocksDone}
		if errors.Is(cancel.Err, context.Canceled) {
			body.Code = "cancelled"
		}
		writeJSON(w, http.StatusGatewayTimeout, apiError{Error: body})
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Inc()
		writeError(w, http.StatusGatewayTimeout, "deadline_exceeded", "%v", err)
	case errors.Is(err, context.Canceled):
		writeError(w, http.StatusServiceUnavailable, "cancelled", "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "internal", "%v", err)
	}
}

// retryAfter estimates seconds until a queue slot frees: queued work
// divided by worker throughput, floored at one second.
func (s *Server) retryAfter() int {
	est := s.pool.Depth() / max(1, s.pool.Workers())
	return max(1, est)
}

// reqTimeout clamps a client-requested timeout to the server policy.
func (s *Server) reqTimeout(ms int64) time.Duration {
	d := s.opt.DefaultTimeout
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	if d > s.opt.MaxTimeout {
		d = s.opt.MaxTimeout
	}
	return d
}

// ErrDraining mirrors jobq.ErrDraining at the API layer.
var ErrDraining = errors.New("serve: server is draining")
