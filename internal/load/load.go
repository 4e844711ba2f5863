// Package load is the serving layer's load-model subsystem: the
// workload that carsbench (and the serve tests) put on a carsd daemon.
// It answers three questions every serving-layer measurement needs
// pinned down:
//
//   - WHAT is requested: a bit-deterministic request population — a
//     zipf-skewed hot set of cached workload specs mixed with cold,
//     never-before-seen generated specs — so the cache/singleflight
//     stack is exercised the way skewed real traffic would (few keys
//     absorb most requests; a tail of misses keeps the simulator busy);
//   - HOW it is offered: an open-loop driver (fixed arrival rate,
//     latency excluded from the arrival process — the honest way to
//     measure queueing collapse) and a closed-loop driver (fixed
//     concurrency, each virtual client waits for its response — the
//     way N programs hammering a daemon actually behave), both with
//     multi-stage ramp schedules;
//   - WHAT came back: every response latency, summarised as exact
//     nearest-rank quantiles over the raw samples (each reported only
//     when ten samples lie beyond it), plus per-stage status-code and
//     dedup counts.
//
// Randomness discipline: every stream in this package derives from a
// caller-supplied seed through a self-contained splitmix64 generator —
// the same discipline as internal/spec — never math/rand, never
// time.Now, and no float arithmetic anywhere near the key sequence.
// The same seed therefore replays the exact request-key byte sequence
// on every platform, which is what makes a LOAD_<date>.json archive
// comparable across commits.
package load

// rngSalt decorrelates load streams from internal/spec's generator
// streams (which xor a different salt into the same splitmix64 core).
const rngSalt = 0x10adBeef5eed

// RNG is a splitmix64 pseudo-random stream (identical core to
// internal/spec's generator; duplicated because both packages keep the
// generator private to their reproducibility contract).
type RNG struct{ s uint64 }

// NewRNG returns a stream for the seed. Equal seeds yield equal
// streams on every platform.
func NewRNG(seed uint64) *RNG { return &RNG{s: seed ^ rngSalt} }

// Uint64 returns the next value of the stream.
func (r *RNG) Uint64() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a value in [0,n); n must be positive.
func (r *RNG) Intn(n int) int { return int(r.Uint64() % uint64(n)) }

// Pct reports true pct percent of the time.
func (r *RNG) Pct(pct int) bool { return r.Intn(100) < pct }
