// Package workloads defines the 22 function-calling applications of
// Table I as synthetic kernels for the simulator.
//
// The paper's evaluation depends on each workload's call depth, call
// frequency (CPKI), working-set size, locality class, and occupancy —
// not on the exact arithmetic it performs — so each workload here is a
// generated kernel parameterised to land in the same region of that
// space, tagged with the paper's reported numbers for comparison
// (Table I) and its dominant speedup factor (Table II).
//
// The call-chain applications, PTA's kernels and the perf cases are
// workload specs (internal/spec, the one description of the kernel
// idiom): a compact parameter table expands into specs, which lower
// the kernels and, for the single-kernel workloads, build the device
// memory exactly as a user-supplied spec does. PTA lays out its eight
// kernels' memory itself. Only FIB (recursive) and the negative
// workloads are hand-written kir; they follow the register conventions
// documented in internal/spec.
package workloads

import (
	"fmt"
	"sync"

	"carsgo/internal/isa"
	"carsgo/internal/kir"
	"carsgo/internal/sim"
	"carsgo/internal/spec"
)

// Workload is one benchmark application.
type Workload struct {
	Name  string
	Suite string

	// Modules returns the pre-ABI compilation units (separate
	// compilation: one main module plus a common device-function
	// library module, as the paper compiles its workloads, §V-A).
	Modules func() []*kir.Module

	// spec is the declarative source of a workload built by FromSpec;
	// nil for the hand-written ones.
	spec *spec.Spec

	// Setup allocates and initialises device memory on the GPU and
	// returns the launches the application performs.
	Setup func(g *sim.GPU) ([]isa.Launch, error)

	// The output region (global words holding results, for cross-
	// configuration equivalence checks) is recorded by Setup. Device
	// memory allocation is deterministic, so every run of a workload
	// yields the same region; the mutex only guards the Go-level write
	// when the experiment harness runs configurations concurrently.
	outputMu    sync.Mutex
	outputAddr  uint32
	outputWords int

	// Paper-reported reference points (Table I / Table II).
	PaperCallDepth int
	PaperCPKI      float64
	SpeedupFactor  string

	// Expect marks deliberately-broken workloads (the Negatives
	// registry) with the defects both the static verifier and the
	// dynamic sanitizer are required to flag. Zero for the Table I
	// corpus, which must stay clean.
	Expect Expect

	// PerfExpect encodes the perf differential's expectations for the
	// perf-registry cases (san.PerfDiffWorkloads). Zero elsewhere.
	PerfExpect PerfExpect
}

// PerfExpect lists what the static watermark advisor must do on a
// perf-registry workload.
type PerfExpect struct {
	// AvoidHigh: the High level must tank occupancy badly enough that
	// the advisor recommends a cheaper level, and the occupancy model
	// must show High strictly below the advised level.
	AvoidHigh bool
}

// Expect lists the synchronization defects a negative workload carries.
type Expect struct {
	// SharedRace: vet must report the kernel not RaceFree and the
	// sanitizer must observe at least one shared-memory race.
	SharedRace bool
	// BarrierDivergence: vet must report the kernel not BarrierSafe and
	// the sanitizer must observe a barrier with a partial warp.
	BarrierDivergence bool
}

// setOutput records the result region during Setup.
func (w *Workload) setOutput(addr uint32, words int) {
	w.outputMu.Lock()
	w.outputAddr, w.outputWords = addr, words
	w.outputMu.Unlock()
}

// Output returns the result region recorded by Setup.
func (w *Workload) Output(g *sim.GPU) []uint32 {
	w.outputMu.Lock()
	addr, words := w.outputAddr, w.outputWords
	w.outputMu.Unlock()
	out := make([]uint32, words)
	copy(out, g.Global()[addr/4:int(addr/4)+words])
	return out
}

var registry []*Workload

// negRegistry holds the deliberately-broken workloads exercised by the
// negative differential harness (san.DiffNegatives). They are kept out
// of All() so the Table I corpus invariants — every workload vets
// clean in every mode — keep holding.
var negRegistry []*Workload

// perfRegistry holds the occupancy-stress workloads exercised only by
// the perf differential (san.PerfDiffWorkloads). They are kept out of
// All() so the Table I corpus — and the golden statistics derived from
// it — stay untouched.
var perfRegistry []*Workload

func register(w *Workload) *Workload {
	registry = append(registry, w)
	return w
}

func registerNegative(w *Workload) *Workload {
	negRegistry = append(negRegistry, w)
	return w
}

func registerPerf(w *Workload) *Workload {
	perfRegistry = append(perfRegistry, w)
	return w
}

// All returns the 22 workloads in Table I order.
func All() []*Workload { return registry }

// Negatives returns the deliberately-broken synchronization workloads
// plus their clean counterparts.
func Negatives() []*Workload { return negRegistry }

// PerfCases returns the occupancy-stress workloads of the perf
// differential (deep call chains built to make particular ladder
// levels lose).
func PerfCases() []*Workload { return perfRegistry }

// ByName finds a workload, searching the Table I corpus first, the
// negative registry second, and the perf registry last.
func ByName(name string) (*Workload, error) {
	for _, w := range registry {
		if w.Name == name {
			return w, nil
		}
	}
	for _, w := range negRegistry {
		if w.Name == name {
			return w, nil
		}
	}
	for _, w := range perfRegistry {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown workload %q", name)
}

// Names lists all workload names in order.
func Names() []string {
	out := make([]string, len(registry))
	for i, w := range registry {
		out[i] = w.Name
	}
	return out
}
