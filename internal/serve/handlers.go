package serve

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"

	"carsgo"
	"carsgo/internal/cars"
	"carsgo/internal/config"
	"carsgo/internal/serve/cache"
	"carsgo/internal/serve/jobq"
	wspec "carsgo/internal/spec"
	"carsgo/internal/vet"
	"carsgo/internal/workloads"
)

// SimulateRequest names a simulation: a configuration from the shared
// registry (config.Named), a workload — either a Table I name or an
// inline declarative spec document (internal/spec) — an optional
// forced CARS allocation level, and an optional per-request timeout.
type SimulateRequest struct {
	Config   string `json:"config"`
	Workload string `json:"workload,omitempty"`
	// Spec is an inline workload-spec document; exactly one of
	// Workload and Spec must be set. Spec-built results are content-
	// addressed by the spec's canonical JSON, so two documents
	// describing the same workload share one cache entry.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Force pins CARS to one allocation level ("low", "high", "<N>xlow");
	// empty keeps the configuration's own policy. CARS configs only.
	Force     string `json:"force,omitempty"`
	TimeoutMs int64  `json:"timeoutMs,omitempty"`
}

// VetRequest names a program to verify: the workload's modules linked
// for the configuration's ABI mode. Workload and Spec behave as in
// SimulateRequest.
type VetRequest struct {
	Config    string          `json:"config"`
	Workload  string          `json:"workload,omitempty"`
	Spec      json.RawMessage `json:"spec,omitempty"`
	TimeoutMs int64           `json:"timeoutMs,omitempty"`
}

// ExperimentRequest names a paper exhibit to regenerate.
type ExperimentRequest struct {
	ID        string `json:"id"`
	TimeoutMs int64  `json:"timeoutMs,omitempty"`
}

// Response is the success envelope shared by the three endpoints:
// the content-address of the result, whether it came from the cache,
// whether a collapsed duplicate shared another caller's execution,
// and the endpoint-specific payload. The server writes it by hand
// (respond), so a field added here must be added there too;
// TestRespondMatchesEncoder holds both to the same bytes.
type Response struct {
	Key    string          `json:"key"`
	Cached bool            `json:"cached"`
	Shared bool            `json:"shared,omitempty"`
	Result json.RawMessage `json:"result"`
}

// keySpec is the canonical value hashed into a result's content
// address: schema version, endpoint kind, configuration, workload,
// ABI mode, and forced CARS policy. Field order is fixed by the type.
type keySpec struct {
	Schema   int    `json:"schema"`
	Kind     string `json:"kind"`
	Config   string `json:"config,omitempty"`
	Workload string `json:"workload,omitempty"`
	// Spec is the canonical single-line JSON (spec.Canon) of an inline
	// workload spec: the content address covers the whole document, so
	// renaming a field's value — not just the workload name — misses.
	Spec    string `json:"spec,omitempty"`
	ABIMode string `json:"abiMode,omitempty"`
	Forced  string `json:"forced,omitempty"`
	ID      string `json:"id,omitempty"`
}

// parseForce maps a wire-level force string to a CARS level.
func parseForce(s string) (cars.Level, error) {
	switch t := strings.ToLower(strings.TrimSpace(s)); {
	case t == "low":
		return cars.Level{Kind: cars.KindLow, N: 1}, nil
	case t == "high":
		return cars.Level{Kind: cars.KindHigh}, nil
	case strings.HasSuffix(t, "xlow"):
		n, err := strconv.Atoi(strings.TrimSuffix(t, "xlow"))
		if err != nil || n < 2 {
			return cars.Level{}, fmt.Errorf("bad forced level %q", s)
		}
		return cars.Level{Kind: cars.KindNxLow, N: n}, nil
	}
	return cars.Level{}, fmt.Errorf("unknown forced level %q (want low, high, or <N>xlow)", s)
}

// abiModeName names the ABI mode a configuration compiles with.
func abiModeName(cfg carsgo.Config, lto bool) string {
	switch {
	case lto:
		return "lto"
	case cfg.CARSEnabled:
		return "cars"
	case cfg.SharedSpillABI:
		return "sharedspill"
	}
	return "baseline"
}

// resolveWorkload turns a request's workload naming — a registry name
// or an inline spec document, exactly one of the two — into the
// workload plus the canonical spec text for content addressing
// (empty for registry workloads).
func resolveWorkload(name string, doc json.RawMessage) (*workloads.Workload, string, error) {
	if (name == "") == (len(doc) == 0) {
		return nil, "", fmt.Errorf("exactly one of workload and spec must be set")
	}
	if name != "" {
		w, err := workloads.ByName(name)
		return w, "", err
	}
	s, err := wspec.Parse(doc)
	if err != nil {
		return nil, "", err
	}
	return workloads.FromSpec(s), wspec.Canon(s), nil
}

// prepared is a request resolved for execution: the content address
// of its result, the pool job that computes it, and the request's own
// timeout (0: the server default). The synchronous endpoints and the
// async job path resolve each request kind through one function.
type prepared struct {
	key     cache.Key
	job     func(ctx context.Context) (any, error)
	timeout int64
}

// requestError is a request that cannot run, with the status and
// error body it answers.
type requestError struct {
	status        int
	code, message string
}

func (e *requestError) write(w http.ResponseWriter) {
	writeError(w, e.status, e.code, "%s", e.message)
}

func badRequest(err error) *requestError {
	return &requestError{http.StatusBadRequest, "bad_request", err.Error()}
}

// prepare content-addresses a resolved request.
func prepare(spec keySpec, job func(ctx context.Context) (any, error), timeout int64) (prepared, *requestError) {
	key, err := cache.KeyOf(spec)
	if err != nil {
		return prepared{}, &requestError{http.StatusInternalServerError, "internal", err.Error()}
	}
	return prepared{key: key, job: job, timeout: timeout}, nil
}

// prepareSimulate resolves a SimulateRequest into a runnable
// configuration and workload, keyed by its cache key spec.
func (s *Server) prepareSimulate(req *SimulateRequest) (prepared, *requestError) {
	cfg, lto, err := config.Named(req.Config)
	if err != nil {
		return prepared{}, badRequest(err)
	}
	forced := ""
	if req.Force != "" {
		if !cfg.CARSEnabled {
			return prepared{}, badRequest(fmt.Errorf("force=%q needs a CARS configuration, not %q", req.Force, req.Config))
		}
		lvl, err := parseForce(req.Force)
		if err != nil {
			return prepared{}, badRequest(err)
		}
		cfg = config.WithCARSPolicy(cfg, cars.ForcedPolicy(lvl))
		cfg.Name += "-" + lvl.Name()
		forced = lvl.Name()
	}
	w, canon, err := resolveWorkload(req.Workload, req.Spec)
	if err != nil {
		return prepared{}, badRequest(err)
	}
	spec := keySpec{Schema: SchemaVersion, Kind: "simulate", Config: req.Config,
		Workload: w.Name, Spec: canon, ABIMode: abiModeName(cfg, lto), Forced: forced}
	return prepare(spec, s.simulateJob(cfg, lto, w), req.TimeoutMs)
}

// execCached is the serving core every endpoint goes through:
// result cache → single-flight (identical in-flight requests join one
// execution) → bounded pool (full queue rejects, never queues
// unboundedly) → cache fill. The double cache check inside the flight
// closes the race where a result lands between the first check and
// the flight forming.
func (s *Server) execCached(ctx context.Context, key cache.Key, job func(ctx context.Context) (any, error)) (data []byte, cached, shared bool, err error) {
	if s.draining.Load() {
		return nil, false, false, ErrDraining
	}
	if data, ok := s.cache.Get(key); ok {
		s.reqCached.Inc()
		return data, true, false, nil
	}
	v, err, shared := s.flight.Do(ctx, key.String(), func(fctx context.Context) (any, error) {
		if data, ok := s.cache.Get(key); ok {
			return data, nil
		}
		t, err := s.pool.Submit(fctx, job)
		if err != nil {
			return nil, err
		}
		v, err := t.Wait(fctx)
		if err != nil {
			s.notePanic(key, err)
			return nil, err
		}
		data := v.([]byte)
		s.cache.Put(key, data)
		return data, nil
	})
	if err != nil {
		return nil, false, shared, err
	}
	if shared {
		// Counted only on success: a collapsed caller that inherited the
		// leader's error got no deduplicated result, and the response
		// envelope it receives is an error, not shared:true.
		s.reqCollapsed.Inc()
	}
	return v.([]byte), false, shared, nil
}

// notePanic counts and logs an execution that panicked — in the
// admission pool, or in the experiment runner's pool under it. The
// request gets a 500 (writeExecError) and nothing is cached.
func (s *Server) notePanic(key cache.Key, err error) {
	var pe *jobq.PanicError
	if !errors.As(err, &pe) {
		return
	}
	s.jobPanics.Inc()
	s.log.Error("job panicked", "key", key.String(), "panic", fmt.Sprint(pe.Value), "stack", string(pe.Stack))
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "decode request: %v", err)
		return false
	}
	return true
}

// respond writes the success envelope every endpoint answers with —
// sync and async, miss, hit and collapsed duplicate — around a stored
// result without re-encoding it: a head that ends in `"result":`, the
// result's bytes as stored, and `}` plus the newline json.Encoder
// ends with. The body equals json.NewEncoder(w).Encode(Response{…}):
// the encoder compacts and HTML-escapes a json.RawMessage, and every
// stored result is already in that form, since each comes from
// json.Marshal or from cache.LoadFile, which admits only that form.
// Only the head is built; the result goes out from the cache's own
// slice, so a hit allocates nothing in proportion to its size.
func respond(w http.ResponseWriter, key cache.Key, data []byte, cached, shared bool) {
	var buf [len(`{"key":"`) + 2*len(key) + len(`","cached":false,"shared":true,"result":`)]byte
	head := append(buf[:0], `{"key":"`...)
	head = hex.AppendEncode(head, key[:])
	head = append(head, `","cached":`...)
	head = strconv.AppendBool(head, cached)
	if shared {
		head = append(head, `,"shared":true`...)
	}
	head = append(head, `,"result":`...)
	const tail = "}\n"
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(head)+len(data)+len(tail)))
	w.WriteHeader(http.StatusOK)
	// A failed write means the client has gone; there is no one left
	// to answer.
	w.Write(head)
	w.Write(data)
	io.WriteString(w, tail)
}

// simulateJob builds the pool job for a simulate request. Execution
// metrics (sim runs, simulated cycles) are counted here and only
// here, so cache hits and collapsed duplicates provably do not
// re-execute: carsd_sim_runs_total is the daemon's ground truth.
func (s *Server) simulateJob(cfg carsgo.Config, lto bool, w *workloads.Workload) func(ctx context.Context) (any, error) {
	return func(ctx context.Context) (any, error) {
		run := carsgo.RunContext
		if lto {
			run = carsgo.RunLTOContext
		}
		res, err := run(ctx, cfg, w)
		if err != nil {
			return nil, err
		}
		s.simRuns.Inc()
		s.simCycles.Add(float64(res.Stats.Cycles))
		return json.Marshal(res)
	}
}

// serveSync answers a synchronous request: its resolution error, or
// its result under the request's own deadline.
func (s *Server) serveSync(w http.ResponseWriter, r *http.Request, p prepared, rerr *requestError) {
	if rerr != nil {
		rerr.write(w)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.reqTimeout(p.timeout))
	defer cancel()
	data, cached, shared, err := s.execCached(ctx, p.key, p.job)
	if err != nil {
		s.writeExecError(w, err)
		return
	}
	respond(w, p.key, data, cached, shared)
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	p, rerr := s.prepareSimulate(&req)
	s.serveSync(w, r, p, rerr)
}

// vetJob links the workload for the configuration and runs the full
// static verifier, returning the machine-readable report. Unlike the
// simulator path, a program with vet errors is the useful answer here,
// so it links without Compile's vet gate.
func vetJob(cfg carsgo.Config, lto bool, wl *workloads.Workload) func(ctx context.Context) (any, error) {
	return func(_ context.Context) (any, error) {
		prog, err := carsgo.Link(cfg, wl.Modules(), lto)
		if err != nil {
			return nil, err
		}
		return json.Marshal(vet.Report(prog))
	}
}

// prepareVet resolves a VetRequest into a configuration and workload,
// keyed by its cache key spec.
func prepareVet(req *VetRequest) (prepared, *requestError) {
	cfg, lto, err := config.Named(req.Config)
	if err != nil {
		return prepared{}, badRequest(err)
	}
	wl, canon, err := resolveWorkload(req.Workload, req.Spec)
	if err != nil {
		return prepared{}, badRequest(err)
	}
	spec := keySpec{Schema: SchemaVersion, Kind: "vet", Config: req.Config,
		Workload: wl.Name, Spec: canon, ABIMode: abiModeName(cfg, lto)}
	return prepare(spec, vetJob(cfg, lto, wl), req.TimeoutMs)
}

func (s *Server) handleVet(w http.ResponseWriter, r *http.Request) {
	var req VetRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	p, rerr := prepareVet(&req)
	s.serveSync(w, r, p, rerr)
}

// prepareExperiment resolves an exhibit by ID; an unknown ID is a 404
// naming the known ones, not a pool trip.
func (s *Server) prepareExperiment(req *ExperimentRequest) (prepared, *requestError) {
	ids := s.runner.IDs()
	if !slices.Contains(ids, req.ID) {
		return prepared{}, &requestError{http.StatusNotFound, "not_found",
			fmt.Sprintf("unknown experiment %q (have %s)", req.ID, strings.Join(ids, ", "))}
	}
	id := req.ID
	// The experiment's own simulations run on the shared runner (its
	// own pool, its own memo, daemon-lifetime context): abandoning the
	// request at its deadline does not waste them — a retry finds the
	// memoised results and finishes quickly.
	job := func(_ context.Context) (any, error) {
		tb, err := s.runner.Run(id)
		if err != nil {
			return nil, err
		}
		return json.Marshal(tb)
	}
	return prepare(keySpec{Schema: SchemaVersion, Kind: "experiment", ID: id}, job, req.TimeoutMs)
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	var req ExperimentRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	p, rerr := s.prepareExperiment(&req)
	s.serveSync(w, r, p, rerr)
}
