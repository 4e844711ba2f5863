package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"carsgo"
	"carsgo/internal/load"
	"carsgo/internal/serve"
	"carsgo/internal/serve/cache"
	"carsgo/internal/serve/metrics"
	"carsgo/internal/spec"
	"carsgo/internal/workloads"
)

const (
	// clients closed-loop clients drive the server, each on its own
	// keep-alive connection, against as many workers.
	clients = 2
	// serve-hot: every hot key is cached during setup; draws are
	// zipf(hotSkew) over the hot set in a fixed popularity order, so the
	// seed changes the sequence but not the mix.
	hotSpecs = 12
	hotSkew  = 1
	// serve-cold: coldHotKeys pool specs are the hot set; coldPct percent
	// of requests walk the next coldKeys pool specs in seeded order,
	// round and round. The cache holds about 60 results, far fewer than
	// the coldKeys+coldHotKeys requests between two visits of a cold key,
	// so every cold request misses and cold inserts evict hot entries. A
	// run walks the cold set several times, so its mix of cheap and
	// costly specs hardly depends on where the walk stops.
	coldHotKeys    = 16
	coldKeys       = 128
	coldPct        = 75
	coldCacheBytes = 2 << 20
	// missReplays and hitReplays bound how many timed requests the
	// traced runs replay through the exported calls of the miss and hit
	// paths.
	missReplays = 48
	hitReplays  = 320
	// spanHeader carries the client's request span to the handler
	// wrapper in traced runs.
	spanHeader = "X-Perfbench-Span"
)

// servedKey is one distinct simulate request.
type servedKey struct {
	oracleKey string
	body      []byte
	doc       []byte // the inline spec document; nil for a registry name
}

// serveBench drives an in-process carsd server (serve.Server) over a
// loopback listener: serve-hot is the cache-hit path, serve-cold the
// cold POST /v1/simulate path.
type serveBench struct {
	cold   bool
	seed   uint64
	o      *oracle
	tr     *tracer
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	hot    []servedKey
	coldQ  []servedKey // serve-cold: the cold set in seeded order
	// prefill holds each hot key's cache address and payload.
	prefill []reply
}

func registryKey(name string) (servedKey, error) {
	body, err := json.Marshal(serve.SimulateRequest{Config: "base", Workload: name})
	return servedKey{oracleKey: simKey(carsgo.Baseline().Name, name), body: body}, err
}

func specKeys(specs []*spec.Spec) ([]servedKey, error) {
	var keys []servedKey
	for _, s := range specs {
		doc := []byte(spec.Canon(s))
		body, err := json.Marshal(serve.SimulateRequest{Config: "base", Spec: doc})
		if err != nil {
			return nil, err
		}
		keys = append(keys, servedKey{oracleKey: simKey(carsgo.Baseline().Name, s.Name), body: body, doc: doc})
	}
	return keys, nil
}

func setupServe(seed uint64, cold bool, o *oracle, tr *tracer) (*serveBench, error) {
	b := &serveBench{cold: cold, seed: seed, o: o, tr: tr}
	pool := specPool()
	hot := pool[:hotSpecs]
	var coldSet []*spec.Spec
	if cold {
		hot = pool[:coldHotKeys]
		for _, i := range permutation(seed, coldKeys) {
			coldSet = append(coldSet, pool[coldHotKeys+i])
		}
	} else {
		for _, name := range hotRegistry {
			k, err := registryKey(name)
			if err != nil {
				return nil, err
			}
			b.hot = append(b.hot, k)
		}
	}
	keys, err := specKeys(hot)
	if err != nil {
		return nil, err
	}
	b.hot = append(b.hot, keys...)
	if b.coldQ, err = specKeys(coldSet); err != nil {
		return nil, err
	}

	opts := serve.Options{Workers: clients}
	if cold {
		opts.CacheBytes = coldCacheBytes
	}
	b.srv = serve.New(opts)
	var h http.Handler = b.srv
	if tr != nil {
		h = http.HandlerFunc(b.traceHandler)
	}
	b.ts = httptest.NewServer(h)
	b.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}}
	if err := b.fill(); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// fill requests every hot key once, clients at a time, so the timed
// phase starts with the hot set cached.
func (b *serveBench) fill() error {
	b.prefill = make([]reply, len(b.hot))
	errs := make([]error, len(b.hot))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(b.hot); i += clients {
				rep, err := b.post(context.Background(), b.hot[i].body, -1)
				if err == nil && rep.code != http.StatusOK {
					err = fmt.Errorf("status %d", rep.code)
				}
				if err == nil && !b.o.check(b.hot[i].oracleKey, rep.env.Result) {
					err = fmt.Errorf("result differs from the pinned digest")
				}
				if err != nil {
					errs[i] = fmt.Errorf("prefill %s: %w", b.hot[i].oracleKey, err)
				}
				b.prefill[i] = rep
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (b *serveBench) close() {
	b.ts.Close()
	b.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	b.srv.Close(ctx)
}

// traceHandler times Server.ServeHTTP as a child of the client's
// request span.
func (b *serveBench) traceHandler(w http.ResponseWriter, r *http.Request) {
	parent, err := strconv.Atoi(r.Header.Get(spanHeader))
	if err != nil {
		b.srv.ServeHTTP(w, r)
		return
	}
	i := b.tr.begin("serve.handler", parent)
	b.srv.ServeHTTP(w, r)
	b.tr.end(i)
}

// reply is one response as the client saw it.
type reply struct {
	code int
	env  serve.Response
	dur  time.Duration // from send to the last body byte
}

func (b *serveBench) post(ctx context.Context, body []byte, span int) (reply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.ts.URL+"/v1/simulate", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if span >= 0 {
		req.Header.Set(spanHeader, strconv.Itoa(span))
	}
	t0 := time.Now()
	resp, err := b.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rep := reply{code: resp.StatusCode, dur: time.Since(t0)}
	if err != nil {
		return rep, err
	}
	if rep.code == http.StatusOK {
		if err := json.Unmarshal(data, &rep.env); err != nil {
			return rep, fmt.Errorf("decode response: %w", err)
		}
	}
	return rep, nil
}

func (b *serveBench) metricsz() (metrics.Snapshot, error) {
	var snap metrics.Snapshot
	resp, err := b.client.Get(b.ts.URL + "/metricsz")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("/metricsz: status %d", resp.StatusCode)
	}
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// serveSource is the seeded request stream: zipf(hotSkew) draws over the
// hot set, and on serve-cold coldPct percent of draws take the next key
// of the cold set. Cold marks a request whose key the run has not sent
// before.
type serveSource struct {
	mu   sync.Mutex
	hot  []servedKey
	cold []servedKey
	zipf *load.Zipf
	draw *load.RNG
	next int
}

func (s *serveSource) Next() load.Request {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.cold) > 0 && s.draw.Pct(coldPct) {
		k := s.cold[s.next%len(s.cold)]
		fresh := s.next < len(s.cold)
		s.next++
		return load.Request{Key: k.oracleKey, Cold: fresh, Body: k.body}
	}
	k := s.hot[s.zipf.Next()]
	return load.Request{Key: k.oracleKey, Body: k.body}
}

// served is one timed request.
type served struct {
	ms             float64
	span           int
	cached, shared bool
	cacheKey       string
	oracleKey      string
}

// tally is the client's count of 200 responses by provenance.
type tally struct{ ok, cached, shared int }

// reconcile checks the client's tallies against the server's own
// counter deltas over the same interval: every cached and collapsed
// response must be counted as such, and every other 200 must have run
// exactly one simulation.
func reconcile(t tally, d load.ServerDelta) error {
	executed := t.ok - t.cached - t.shared
	if float64(t.cached) != d.RequestsCached || float64(t.shared) != d.RequestsCollapsed || float64(executed) != d.SimRuns {
		return fmt.Errorf("client saw %d cached, %d collapsed, %d executed; /metricsz counted %.0f, %.0f, %.0f",
			t.cached, t.shared, executed, d.RequestsCached, d.RequestsCollapsed, d.SimRuns)
	}
	return nil
}

func (b *serveBench) run(ctx context.Context, budget time.Duration, tr *tracer) (*outcome, error) {
	src := &serveSource{
		hot:  b.hot,
		zipf: load.NewZipf(load.NewRNG(b.seed^0x21bf), len(b.hot), hotSkew),
		draw: load.NewRNG(b.seed ^ 0xC01d),
	}
	if b.cold {
		src.cold = b.coldQ
	}
	var mu sync.Mutex
	var log []served
	var out *outcome
	// In-flight requests finish after the stage ends: the target sends on
	// ctx, not on the stage's context, so no request is cut off and every
	// simulation the server runs is one the client counts.
	target := func(_ context.Context, req load.Request) load.Outcome {
		root := tr.begin("serve.request", -1)
		rep, err := b.post(ctx, req.Body, root)
		tr.end(root)
		pinned := err == nil && rep.code == http.StatusOK && b.o.check(req.Key, rep.env.Result)
		mu.Lock()
		defer mu.Unlock()
		out.attempted++
		switch {
		case err != nil:
			out.fail(fmt.Sprintf("%s: %v", req.Key, err))
			return load.Outcome{Code: rep.code, Err: err}
		case rep.code != http.StatusOK:
			out.fail(fmt.Sprintf("%s: status %d", req.Key, rep.code))
			return load.Outcome{Code: rep.code}
		case !pinned:
			out.fail(req.Key + ": result differs from the pinned digest")
		case !b.cold && !rep.env.Cached:
			out.fail(req.Key + ": hot request was not answered from the cache")
		case req.Cold && (rep.env.Cached || rep.env.Shared):
			out.fail(req.Key + ": first request for a key was not executed")
		default:
			out.record(rep.dur, 1)
			log = append(log, served{ms: ms(rep.dur), span: root, cached: rep.env.Cached,
				shared: rep.env.Shared, cacheKey: rep.env.Key, oracleKey: req.Key})
		}
		return load.Outcome{Code: rep.code, Cached: rep.env.Cached, Shared: rep.env.Shared}
	}

	before, err := b.metricsz()
	if err != nil {
		return nil, err
	}
	out = newOutcome()
	res := load.RunClosed(ctx, []load.Stage{{Concurrency: clients, Duration: budget}}, src, target)[0]
	after, err := b.metricsz()
	if err != nil {
		return nil, err
	}
	out.wall = res.Elapsed
	delta := load.ServerDeltaOf(before, after)
	if err := reconcile(tally{ok: res.OK, cached: res.Cached, shared: res.Shared}, delta); err != nil {
		out.mismatch = append(out.mismatch, err.Error())
	}
	if tr == nil {
		return out, nil
	}

	out.layers = map[string]float64{
		"cache.hit_ratio":            delta.CacheHitRatio,
		"cache.evictions":            metrics.Delta(before, after, "carsd_cache_evictions_total"),
		"singleflight.collapse_rate": delta.CollapseRate,
		"jobq.rejected_429":          delta.Rejected429,
		"serve.timeouts_504":         delta.Timeout504,
		"sim.runs":                   delta.SimRuns,
	}
	var kb float64
	for _, p := range b.prefill {
		kb += float64(len(p.env.Result)) / 1024
	}
	out.layers["serve.result_kb"] = kb / float64(len(b.prefill))
	handler := tr.childDurations("serve.handler")
	b.handlerLayers(log, handler, out.layers)
	var pairs []replayed
	if b.cold {
		pairs, err = b.replayMisses(ctx, tr, log, handler, out)
	} else {
		pairs, err = b.replayHits(tr, log, handler)
	}
	if err != nil {
		return nil, err
	}
	// The replays explain each paired request's handler time; what they
	// leave is queue wait, single-flight wait, key hashing and CPU
	// contention.
	var residuals []float64
	var handled, left float64
	for _, p := range pairs {
		residuals = append(residuals, p.handlerMs-p.explainedMs)
		handled += p.handlerMs
		left += p.handlerMs - p.explainedMs
	}
	if handled > 0 {
		out.layers["trace.unexplained_pct"] = 100 * left / handled
	}
	if b.cold && len(residuals) > 0 {
		out.layers["serve.miss_residual_ms"] = median(residuals)
	}
	out.addSpanLayers(tr, "")
	return out, nil
}

// handlerLayers splits the handler spans into hits and misses and
// takes the transport share of each request's round trip.
func (b *serveBench) handlerLayers(log []served, handler map[int]float64, layers map[string]float64) {
	var all, hits, misses, transport []float64
	for _, s := range log {
		d, ok := handler[s.span]
		if !ok {
			continue
		}
		h := d / 1e6
		all = append(all, h)
		transport = append(transport, s.ms-h)
		switch {
		case s.cached:
			hits = append(hits, h)
		case !s.shared:
			misses = append(misses, h)
		}
	}
	layers["serve.handler_p50_ms"] = median(all)
	if tailReportable(len(all), 0.99) {
		layers["serve.handler_p99_ms"] = percentile(all, 0.99)
	}
	if len(hits) > 0 {
		layers["serve.hit_handler_p50_ms"] = median(hits)
	}
	if len(misses) > 0 {
		layers["serve.miss_handler_p50_ms"] = median(misses)
	}
	layers["http.transport_p50_ms"] = median(transport)
}

// replayed pairs one timed request's handler time with the time the
// layer spans of its replay cover.
type replayed struct{ handlerMs, explainedMs float64 }

// replayHits replays the first hitReplays timed requests' hit path, one
// call at a time, through the exported calls the handler makes: request
// decoding, spec.Parse and spec.Canon for inline specs, the cache
// lookup, and encoding the response envelope.
func (b *serveBench) replayHits(tr *tracer, log []served, handler map[int]float64) ([]replayed, error) {
	var pairs []replayed
	for _, s := range log[:min(hitReplays, len(log))] {
		key, err := parseCacheKey(s.cacheKey)
		if err != nil {
			return nil, err
		}
		k, ok := b.lookup(s.oracleKey)
		if !ok {
			return nil, fmt.Errorf("replay: unknown key %s", s.oracleKey)
		}
		root := tr.begin("serve.hit_replay", -1)
		var req serve.SimulateRequest
		tr.timed("serve.decode", root, func() { err = json.Unmarshal(k.body, &req) })
		if err != nil {
			return nil, err
		}
		if k.doc != nil {
			var sp *spec.Spec
			tr.timed("spec.parse", root, func() { sp, err = spec.Parse(req.Spec) })
			if err != nil {
				return nil, err
			}
			tr.timed("spec.canon", root, func() { spec.Canon(sp) })
		}
		var data []byte
		tr.timed("cache.get", root, func() { data, ok = b.srv.Cache().Get(key) })
		if !ok {
			return nil, fmt.Errorf("replay %s: not cached", s.oracleKey)
		}
		tr.timed("serve.encode", root, func() {
			err = json.NewEncoder(io.Discard).Encode(serve.Response{Key: s.cacheKey, Cached: true, Result: data})
		})
		tr.end(root)
		if err != nil {
			return nil, err
		}
		pairs = append(pairs, replayed{handler[s.span] / 1e6, tr.covered(root) / 1e6})
	}
	return pairs, nil
}

// replayMisses replays up to missReplays of the timed phase's misses,
// spread evenly over it, one at a time, through the miss path's
// exported calls: spec.Parse, Spec.Modules, carsgo.Compile, sim.New,
// Setup, RunContext, json.Marshal and Cache.Put. The server runs them
// inside its worker, where the benchmark cannot place spans.
func (b *serveBench) replayMisses(ctx context.Context, tr *tracer, log []served, handler map[int]float64, out *outcome) ([]replayed, error) {
	var misses []served
	for _, s := range log {
		if !s.cached && !s.shared {
			misses = append(misses, s)
		}
	}
	stride := max(1, len(misses)/missReplays)
	var pairs []replayed
	var winstr uint64
	for i := 0; i < len(misses) && len(pairs) < missReplays; i += stride {
		s := misses[i]
		key, err := parseCacheKey(s.cacheKey)
		if err != nil {
			return nil, err
		}
		k, ok := b.lookup(s.oracleKey)
		if !ok {
			return nil, fmt.Errorf("replay: unknown key %s", s.oracleKey)
		}
		root := tr.begin("serve.miss_replay", -1)
		var sp *spec.Spec
		tr.timed("spec.parse", root, func() { sp, err = spec.Parse(k.doc) })
		if err != nil {
			return nil, err
		}
		res, _, err := simulate(ctx, tr, root, "spec.lower", carsgo.Baseline(), workloads.FromSpec(sp), nil)
		if err != nil {
			return nil, err
		}
		var data []byte
		tr.timed("serve.marshal", root, func() { data, err = json.Marshal(res) })
		if err != nil {
			return nil, err
		}
		tr.timed("cache.put", root, func() { b.srv.Cache().Put(key, data) })
		tr.end(root)
		if !b.o.check(s.oracleKey, data) {
			out.mismatch = append(out.mismatch, s.oracleKey+": replayed result differs from the pinned digest")
		}
		winstr += res.Stats.TotalInstructions()
		pairs = append(pairs, replayed{handler[s.span] / 1e6, tr.covered(root) / 1e6})
	}
	simRunLayers(tr, winstr, out.layers)
	return pairs, nil
}

func (b *serveBench) lookup(oracleKey string) (servedKey, bool) {
	for _, ks := range [][]servedKey{b.hot, b.coldQ} {
		for _, k := range ks {
			if k.oracleKey == oracleKey {
				return k, true
			}
		}
	}
	return servedKey{}, false
}

func parseCacheKey(s string) (cache.Key, error) {
	var k cache.Key
	raw, err := hex.DecodeString(s)
	if err != nil || len(raw) != len(k) {
		return k, fmt.Errorf("bad cache key %q", s)
	}
	copy(k[:], raw)
	return k, nil
}
