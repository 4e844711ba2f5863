package load

import (
	"encoding/json"
	"fmt"
	"sync"

	"carsgo/internal/spec"
)

// Model describes a request population for the carsd simulate
// endpoint: a hot set of Keys distinct workload specs whose popularity
// is zipf(Skew)-distributed (repeats — the cache/singleflight food),
// mixed with ColdPct percent cold requests whose spec is freshly
// generated per draw and therefore content-addresses to a key the
// daemon has never seen (guaranteed cache misses that keep the
// simulator itself busy). Everything derives from Seed: the hot-set
// population, the popularity draws, and the cold seeds — one number
// replays the whole offered sequence byte for byte.
type Model struct {
	// Seed drives every stream; equal seeds yield byte-identical
	// request sequences.
	Seed uint64
	// Keys is the hot-set population (distinct cacheable specs), ≥ 1.
	Keys int
	// Skew is the integer zipf exponent over the hot set (0 uniform,
	// 1 classic zipf, higher = hotter head).
	Skew int
	// ColdPct is the percentage of requests drawing a fresh generated
	// spec instead of a hot-set key, in [0,100].
	ColdPct int
	// Config is the carsd configuration name requests carry
	// (default "base").
	Config string
	// Full switches spec synthesis from the mini generator (tiny
	// single-kernel specs, microseconds of simulated work — right for
	// cache-path studies and CI smoke) to internal/spec's full
	// generator (call graphs, loops, divergence — realistic cold-miss
	// cost). The key-sequence discipline is identical either way.
	Full bool
	// TimeoutMs, when positive, is stamped into every request document
	// as the per-request deadline.
	TimeoutMs int64
}

func (m Model) withDefaults() Model {
	if m.Keys <= 0 {
		m.Keys = 16
	}
	if m.Config == "" {
		m.Config = "base"
	}
	return m
}

// Validate rejects out-of-range knobs.
func (m Model) Validate() error {
	m = m.withDefaults()
	if m.Keys > 1<<16 {
		return fmt.Errorf("load: Keys=%d exceeds 2^16", m.Keys)
	}
	if m.Skew < 0 || m.Skew > 4 {
		return fmt.Errorf("load: Skew=%d outside [0,4]", m.Skew)
	}
	if m.ColdPct < 0 || m.ColdPct > 100 {
		return fmt.Errorf("load: ColdPct=%d outside [0,100]", m.ColdPct)
	}
	return nil
}

// Request is one offered request: the spec's name as the client-side
// identity key (two requests with equal Key are byte-identical
// documents and must content-address to the same daemon cache entry)
// and the ready-to-POST /v1/simulate body.
type Request struct {
	Key  string
	Cold bool
	Body []byte
}

// Source yields the request sequence a driver offers. Implementations
// must be safe for concurrent Next calls.
type Source interface {
	Next() Request
}

// simulateDoc is the wire document; field order fixed by the type so
// bodies are byte-deterministic.
type simulateDoc struct {
	Config    string          `json:"config"`
	Spec      json.RawMessage `json:"spec"`
	TimeoutMs int64           `json:"timeoutMs,omitempty"`
}

// Stream is the Model's request sequence: a mutex-serialized Source
// (drivers share one stream across workers; the interleaving across
// workers is scheduling-dependent, but the single-threaded sequence —
// what the generator test pins — is bit-deterministic).
type Stream struct {
	m    Model
	mu   sync.Mutex
	draw *RNG  // cold/hot decisions and cold seeds
	zipf *Zipf // hot-set popularity
	hot  []Request
}

// Stream builds the model's request stream.
func (m Model) Stream() (*Stream, error) {
	m = m.withDefaults()
	if err := m.Validate(); err != nil {
		return nil, err
	}
	// Separate salted streams: the hot-set population must not shift
	// when ColdPct changes the number of draws consumed.
	pool := NewRNG(m.Seed ^ 0x407)
	s := &Stream{
		m:    m,
		draw: NewRNG(m.Seed ^ 0xC01d),
		hot:  make([]Request, m.Keys),
	}
	s.zipf = NewZipf(NewRNG(m.Seed^0x21bf), m.Keys, m.Skew)
	for i := range s.hot {
		req, err := m.buildRequest(pool.Uint64(), false)
		if err != nil {
			return nil, err
		}
		s.hot[i] = req
	}
	return s, nil
}

// Next draws the next request of the sequence.
func (s *Stream) Next() Request {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m.ColdPct > 0 && s.draw.Pct(s.m.ColdPct) {
		req, err := s.m.buildRequest(s.draw.Uint64(), true)
		if err != nil {
			// Generators validate their own output; an error here is a
			// programming bug, not load-dependent state.
			panic(fmt.Sprintf("load: cold request build failed: %v", err))
		}
		return req
	}
	return s.hot[s.zipf.Next()]
}

// Model returns the stream's (defaulted) model.
func (s *Stream) Model() Model { return s.m }

// buildRequest synthesizes the spec for a seed and wraps it into the
// POST body.
func (m Model) buildRequest(seed uint64, cold bool) (Request, error) {
	var sp *spec.Spec
	if m.Full {
		sp = spec.Generate(seed)
	} else {
		sp = MiniSpec(seed)
	}
	body, err := json.Marshal(simulateDoc{
		Config:    m.Config,
		Spec:      json.RawMessage(spec.Canon(sp)),
		TimeoutMs: m.TimeoutMs,
	})
	if err != nil {
		return Request{}, err
	}
	return Request{Key: sp.Name, Cold: cold, Body: body}, nil
}

// MiniSpec emits a tiny valid workload spec for the seed: one kernel,
// no device functions, one block of one warp, a handful of iterations
// — microseconds of simulated work, so a load run measures the serving
// stack (admission, cache, singleflight) rather than the simulator.
// Deterministic: the seed is baked into the name, so distinct seeds
// are distinct cache keys and equal seeds are byte-identical specs.
func MiniSpec(seed uint64) *spec.Spec {
	r := NewRNG(seed ^ 0x3141)
	s := &spec.Spec{
		Schema:         spec.SchemaVersion,
		Name:           fmt.Sprintf("load%016x", seed),
		Seed:           seed,
		Grid:           1 + r.Intn(2),
		Block:          32,
		Iters:          1 + r.Intn(2),
		Pattern:        spec.PatStream,
		FootprintWords: 1 << 8,
	}
	s.Kernel.ALU = r.Intn(8)
	s.Kernel.Loads = r.Intn(2)
	if err := s.Validate(); err != nil {
		panic(fmt.Sprintf("load: MiniSpec emitted an invalid spec for seed %d: %v", seed, err))
	}
	return s
}
