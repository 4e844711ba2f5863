package experiments

import (
	"encoding/json"
	"fmt"

	"carsgo"
	"carsgo/internal/serve/cache"
)

// The runner's disk memo rides the shared content-addressed cache
// (internal/serve/cache): every memoised simulation result is stored
// under the canonical hash of its request spec, in the same
// corruption-tolerant line format the carsd daemon persists. A
// damaged entry (torn write, bit rot, hand edit) is skipped and the
// simulation simply recomputed — loading never fails on content.

// cacheSchema versions the key derivation and payload layout; bumping
// it orphans (but does not invalidate the parsing of) old entries.
const cacheSchema = 3

// cacheKeySpec is the canonical key-spec hashed into each entry's
// address. Field order is fixed by the type; values are scalars.
type cacheKeySpec struct {
	Schema   int    `json:"schema"`
	Kind     string `json:"kind"`
	Config   string `json:"config"`
	Workload string `json:"workload"`
	LTO      bool   `json:"lto"`
	Kernel   string `json:"kernel"`
}

func (q request) keySpec() cacheKeySpec {
	return cacheKeySpec{Schema: cacheSchema, Kind: "experiment-run",
		Config: q.cfgName, Workload: q.workload, LTO: q.lto, Kernel: q.kernel}
}

// cachePayload is one entry's JSON value: the request identity again
// (the hash is one-way) plus the memoised result. Output regions are
// included, keeping cross-configuration equivalence checks meaningful.
type cachePayload struct {
	Config   string
	Workload string
	LTO      bool
	Kernel   string
	Result   *carsgo.Result
}

// SaveCache writes every memoised result to path, so a later Runner
// can skip simulations that already ran.
func (r *Runner) SaveCache(path string) error {
	store := cache.New(0)
	r.mu.Lock()
	var err error
	for q, res := range r.results {
		data, merr := json.Marshal(cachePayload{
			Config: q.cfgName, Workload: q.workload, LTO: q.lto, Kernel: q.kernel, Result: res,
		})
		if merr != nil {
			err = fmt.Errorf("experiments: encode cache entry: %w", merr)
			break
		}
		k, kerr := cache.KeyOf(q.keySpec())
		if kerr != nil {
			err = kerr
			break
		}
		store.Put(k, data)
	}
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return store.SaveFile(path)
}

// LoadCache seeds the runner with results from a prior SaveCache,
// returning how many entries were usable. A missing file is not an
// error (first run), and neither is damage: an entry that fails the
// checksum, fails to decode, or whose payload disagrees with its
// content address is skipped and will be recomputed on demand.
// Entries whose configuration name the current process has not
// defined yet are still usable: configurations are looked up only on
// a miss.
func (r *Runner) LoadCache(path string) (int, error) {
	store := cache.New(0)
	if _, _, err := store.LoadFile(path); err != nil {
		return 0, err
	}
	n := 0
	store.Range(func(k cache.Key, v []byte) bool {
		var e cachePayload
		if json.Unmarshal(v, &e) != nil || e.Result == nil {
			return true
		}
		q := request{cfgName: e.Config, workload: e.Workload, lto: e.LTO, kernel: e.Kernel}
		// The payload must live at its own content address; a mismatch
		// means the entry was corrupted or relocated.
		want, err := cache.KeyOf(q.keySpec())
		if err != nil || want != k {
			return true
		}
		r.mu.Lock()
		if _, dup := r.results[q]; !dup {
			r.results[q] = e.Result
			n++
		}
		r.mu.Unlock()
		return true
	})
	return n, nil
}
