package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"carsgo"
	"carsgo/internal/abi"
	"carsgo/internal/workloads"
)

// oracle.json pins the digest of every output the benchmark can
// produce, taken from the simulator and toolchain at the commit the
// benchmark was defined on. A result that differs in any bit — a
// simulated statistic, an output word, a vet verdict, a certificate —
// is a failed operation. The digests check that results are
// bit-identical, not that the model is accurate: it has not been
// validated against hardware. Regenerate with `go test -run
// TestPinnedOracle -update` only when a change means to alter results.
//
//go:embed oracle.json
var pinnedJSON []byte

// digest is a short content hash of one output.
func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// Keys of the pinned table.
func simKey(cfgName, workload string) string   { return "sim/" + cfgName + "/" + workload }
func vetKey(mode abi.Mode, name string) string { return "vet/" + mode.String() + "/" + name }
func optKey(name string) string                { return "opt/" + name }

// oracle checks outputs against the pinned digests and keeps every
// mismatch for the report.
type oracle struct {
	want map[string]string

	mu         sync.Mutex
	mismatches []string
}

func loadOracle() (*oracle, error) {
	want := map[string]string{}
	if err := json.Unmarshal(pinnedJSON, &want); err != nil {
		return nil, fmt.Errorf("oracle.json: %w", err)
	}
	return &oracle{want: want}, nil
}

// check reports whether payload matches the digest pinned under key; a
// key with no pinned digest is a mismatch too.
func (o *oracle) check(key string, payload []byte) bool {
	got := digest(payload)
	want, ok := o.want[key]
	if ok && got == want {
		return true
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if !ok {
		want = "(not pinned)"
	}
	o.mismatches = append(o.mismatches, fmt.Sprintf("%s: digest %s, pinned %s", key, got, want))
	return false
}

// failures returns the recorded mismatches.
func (o *oracle) failures() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]string(nil), o.mismatches...)
}

// toolchainModes are the ABI modes the toolchain workload links under.
var toolchainModes = []abi.Mode{abi.Baseline, abi.CARS, abi.SharedSpill}

// pinAll computes the digest of every output the workloads can produce.
// It runs every simulation once, which takes about half a minute.
func pinAll() (map[string]string, error) {
	out := map[string]string{}
	pinSim := func(cfg carsgo.Config, w *workloads.Workload, key string) error {
		res, err := carsgo.RunContext(context.Background(), cfg, w)
		if err != nil {
			return err
		}
		data, err := json.Marshal(res)
		if err != nil {
			return err
		}
		out[key] = digest(data)
		return nil
	}
	names := append(append([]string(nil), sweepNames...), hotRegistry...)
	sort.Strings(names)
	for _, name := range names {
		w, err := carsgo.Workload(name)
		if err != nil {
			return nil, err
		}
		for _, cfg := range sweepConfigs() {
			if _, done := out[simKey(cfg.Name, name)]; done {
				continue
			}
			if err := pinSim(cfg, w, simKey(cfg.Name, name)); err != nil {
				return nil, err
			}
		}
	}
	for i, s := range specPool() {
		if i < servedSpecs {
			if err := pinSim(carsgo.Baseline(), workloads.FromSpec(s), simKey(carsgo.Baseline().Name, s.Name)); err != nil {
				return nil, err
			}
		}
		res, err := analyze(nil, -1, s)
		if err != nil {
			return nil, err
		}
		payloads, err := res.payloads(s.Name)
		if err != nil {
			return nil, err
		}
		for key, data := range payloads {
			out[key] = digest(data)
		}
	}
	return out, nil
}
