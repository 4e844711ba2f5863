// Package spec defines the declarative workload-spec format: a small,
// versioned JSON schema describing the shape of a function-calling GPU
// workload — call-graph topology and depth, per-function register
// pressure (callee-saved window widths), arithmetic and load intensity
// (the CPKI knob), loop nesting, divergence, and memory-system
// contention (access pattern, footprint, shared-memory staging).
//
// A spec lowers to kir (lower.go), and this package is the one place
// that kernel idiom is generated: the built-in Table I call-chain
// workloads are specs too (internal/workloads expands its parameter
// table into them). Lowered code follows the register conventions of
// internal/abi:
//
//   - R0..R3   scratch within a single function body
//   - R4       argument / return value for device functions
//   - R5..R7   read-only globals handed down call chains (data pointer,
//     footprint mask, aux / function pointer) — never written by device
//     functions
//   - R8..R15  kernel-body temporaries, dead across call sites
//   - R16..    callee-saved; device functions write before reading
//
// and pins the invariants the rest of the toolchain relies on:
//
//   - every callee-saved register is written before any read, so CARS
//     renaming is transparent;
//   - barrier predicates are block-uniform by construction, so the
//     sync verifier proves every BAR.SYNC convergent;
//   - shared-memory staging writes thread-private slots, so the affine
//     race analysis proves the kernel race-free;
//   - the call graph is a DAG by construction (calls may only name
//     later-declared functions), so every ABI mode links.
//
// Validation is strict: unknown schema versions and out-of-range knobs
// are rejected with structured errors (SchemaError, ValidationError)
// rather than free-form strings, so tools can report field paths.
package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
)

// SchemaVersion is the spec format version this package reads and
// writes. Parse rejects documents declaring any other version.
const SchemaVersion = 1

// Patterns a spec kernel can use for its global-memory accesses; the
// choice places a workload in one of the paper's Table II bottleneck
// classes. lowerKernel turns each into an index hash over the
// iteration counter and the thread or warp id.
const (
	// PatStream walks the footprint fully coalesced with no reuse:
	// footprint ≫ cache ⇒ capacity-bound (the ML layers).
	PatStream = "stream"
	// PatRegion gives each warp a private region it re-reads: aggregate
	// regions per SM slightly exceed the L1 ⇒ inter-warp capacity
	// contention that SWL and a 10MB L1 both relieve.
	PatRegion = "region"
	// PatRandLine touches a random line per warp per iteration within a
	// small footprint: hit rate is fine, port pressure is the limit ⇒
	// bandwidth-bound (PTA, SSSP, Rapids).
	PatRandLine = "randline"
	// PatGather scatters lanes to random words: many lines per access.
	PatGather = "gather"
)

var patterns = map[string]bool{
	PatStream: true, PatRegion: true, PatRandLine: true, PatGather: true,
}

// Spec is one declarative workload description.
type Spec struct {
	Schema int    `json:"schema"`
	Name   string `json:"name"`
	// Seed records the generator seed a generated spec came from (zero
	// for hand-written specs); it is provenance, not an input.
	Seed uint64 `json:"seed,omitempty"`

	Grid     int `json:"grid"`
	Block    int `json:"block"`
	Iters    int `json:"iters"`
	Launches int `json:"launches,omitempty"` // 0 = 1 launch

	Pattern        string `json:"pattern"`
	FootprintWords int    `json:"footprintWords"`
	RegionWords    int    `json:"regionWords,omitempty"` // pattern=region only

	Kernel KernelSpec `json:"kernel"`
	Funcs  []FuncSpec `json:"funcs,omitempty"`
}

// KernelSpec holds the kernel-body knobs.
type KernelSpec struct {
	Loads           int      `json:"loads,omitempty"`           // global loads per iteration
	ALU             int      `json:"alu,omitempty"`             // filler ALU per iteration
	Regs            int      `json:"regs,omitempty"`            // extra kernel-resident registers
	ExtraLocalWords int      `json:"extraLocalWords,omitempty"` // per-thread local words per iteration
	BarrierEvery    int      `json:"barrierEvery,omitempty"`    // 0 = none; N (pow2) = every Nth iteration
	SmemWords       int      `json:"smemWords,omitempty"`       // shared staging per block (pow2 ≥ block)
	CallEvery       int      `json:"callEvery,omitempty"`       // 0/1 = every iteration; N (pow2) = every Nth
	Calls           []string `json:"calls,omitempty"`           // root device functions called per iteration
}

// FuncSpec describes one device function. Register pressure is the
// callee-saved window width; calls may only target functions declared
// later in the spec (the call graph is a DAG by construction).
type FuncSpec struct {
	Name        string    `json:"name"`
	CalleeSaved int       `json:"calleeSaved"`
	ALU         int       `json:"alu,omitempty"`
	Loads       int       `json:"loads,omitempty"` // gather loads in the body
	Salt        int       `json:"salt,omitempty"`  // arithmetic salt (chain level in generated code)
	XorTag      int       `json:"xorTag,omitempty"`
	Divergent   bool      `json:"divergent,omitempty"` // lane-divergent (reconverging) extra work
	Loop        *LoopSpec `json:"loop,omitempty"`
	Calls       []string  `json:"calls,omitempty"`
	Indirect    []string  `json:"indirect,omitempty"` // exactly 2 candidates; one site per spec
}

// LoopSpec is an inner counted loop inside a device function.
type LoopSpec struct {
	Trip  int `json:"trip"`
	ALU   int `json:"alu,omitempty"`
	Loads int `json:"loads,omitempty"`
}

// SchemaError reports a document declaring a schema version this
// package does not speak.
type SchemaError struct {
	Got int
}

func (e *SchemaError) Error() string {
	return fmt.Sprintf("spec: unsupported schema version %d (this build reads version %d)", e.Got, SchemaVersion)
}

// FieldError pinpoints one invalid field by its JSON path.
type FieldError struct {
	Field string // e.g. "kernel.smemWords", "funcs[2].calls[0]"
	Msg   string
}

func (e *FieldError) Error() string { return e.Field + ": " + e.Msg }

// ValidationError aggregates every field error found in one spec.
type ValidationError struct {
	Spec string
	Errs []*FieldError
}

func (e *ValidationError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "spec %q: %d invalid field(s)", e.Spec, len(e.Errs))
	for _, fe := range e.Errs {
		b.WriteString("\n  ")
		b.WriteString(fe.Error())
	}
	return b.String()
}

var nameRE = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*$`)

// Validate checks every knob against the schema's ranges and the
// structural invariants (DAG calls, reachability, one indirect site).
// It returns nil or a *ValidationError; a wrong schema version returns
// a *SchemaError.
func (s *Spec) Validate() error {
	if s.Schema != SchemaVersion {
		return &SchemaError{Got: s.Schema}
	}
	var errs []*FieldError
	bad := func(field, format string, args ...any) {
		errs = append(errs, &FieldError{Field: field, Msg: fmt.Sprintf(format, args...)})
	}
	pow2 := func(n int) bool { return n > 0 && n&(n-1) == 0 }

	if !nameRE.MatchString(s.Name) || len(s.Name) > 64 {
		bad("name", "must match %s and be at most 64 chars", nameRE)
	}
	if s.Grid < 1 || s.Grid > 1024 {
		bad("grid", "must be in [1,1024], got %d", s.Grid)
	}
	if s.Block < 32 || s.Block > 1024 || s.Block%32 != 0 {
		bad("block", "must be a multiple of 32 in [32,1024], got %d", s.Block)
	}
	if s.Iters < 1 || s.Iters > 256 {
		bad("iters", "must be in [1,256], got %d", s.Iters)
	}
	if s.Launches < 0 || s.Launches > 8 {
		bad("launches", "must be in [0,8], got %d", s.Launches)
	}
	if !patterns[s.Pattern] {
		bad("pattern", "must be one of stream, region, randline, gather; got %q", s.Pattern)
	}
	if !pow2(s.FootprintWords) || s.FootprintWords < 1<<8 || s.FootprintWords > 1<<22 {
		bad("footprintWords", "must be a power of two in [2^8,2^22], got %d", s.FootprintWords)
	}
	if s.Pattern == PatRegion {
		if !pow2(s.RegionWords) || s.RegionWords < 32 || s.RegionWords > s.FootprintWords {
			bad("regionWords", "region pattern needs a power of two in [32,footprintWords], got %d", s.RegionWords)
		}
	} else if s.RegionWords != 0 {
		bad("regionWords", "only meaningful for pattern=region")
	}

	k := &s.Kernel
	switch {
	case k.Loads < 0 || k.Loads > 16:
		bad("kernel.loads", "must be in [0,16], got %d", k.Loads)
	case k.ALU < 0 || k.ALU > 256:
		bad("kernel.alu", "must be in [0,256], got %d", k.ALU)
	}
	if k.Regs < 0 || k.Regs > 32 {
		bad("kernel.regs", "must be in [0,32], got %d", k.Regs)
	}
	if k.ExtraLocalWords < 0 || k.ExtraLocalWords > 16 {
		bad("kernel.extraLocalWords", "must be in [0,16], got %d", k.ExtraLocalWords)
	}
	if k.BarrierEvery != 0 && (!pow2(k.BarrierEvery) || k.BarrierEvery > 64) {
		bad("kernel.barrierEvery", "must be 0 or a power of two ≤ 64, got %d", k.BarrierEvery)
	}
	if k.SmemWords != 0 && (!pow2(k.SmemWords) || k.SmemWords < 1024 || k.SmemWords > 16384) {
		// The floor is isa.MaxBlockThreads: the affine race analysis
		// cannot see the launch geometry, so a narrower staging mask
		// would fold two potential thread IDs onto one slot — a
		// write-write race for some legal block size.
		bad("kernel.smemWords", "must be 0 or a power of two in [1024,16384], got %d", k.SmemWords)
	}
	if k.CallEvery != 0 && (!pow2(k.CallEvery) || k.CallEvery > 64) {
		bad("kernel.callEvery", "must be 0/1 or a power of two ≤ 64, got %d", k.CallEvery)
	}

	if len(s.Funcs) > 24 {
		bad("funcs", "at most 24 functions, got %d", len(s.Funcs))
	}
	index := map[string]int{}
	for i := range s.Funcs {
		f := &s.Funcs[i]
		path := fmt.Sprintf("funcs[%d]", i)
		if !nameRE.MatchString(f.Name) || len(f.Name) > 80 {
			bad(path+".name", "must match %s and be at most 80 chars", nameRE)
		}
		if _, dup := index[f.Name]; dup {
			bad(path+".name", "duplicate function name %q", f.Name)
		}
		index[f.Name] = i
		if f.CalleeSaved < 1 || f.CalleeSaved > 16 {
			bad(path+".calleeSaved", "must be in [1,16], got %d", f.CalleeSaved)
		}
		if f.ALU < 0 || f.ALU > 256 {
			bad(path+".alu", "must be in [0,256], got %d", f.ALU)
		}
		if f.Loads < 0 || f.Loads > 8 {
			bad(path+".loads", "must be in [0,8], got %d", f.Loads)
		}
		if f.Salt < 0 || f.Salt > 1<<20 {
			bad(path+".salt", "must be in [0,2^20], got %d", f.Salt)
		}
		if f.XorTag < 0 || f.XorTag > 1<<20 {
			bad(path+".xorTag", "must be in [0,2^20], got %d", f.XorTag)
		}
		if l := f.Loop; l != nil {
			if l.Trip < 1 || l.Trip > 16 {
				bad(path+".loop.trip", "must be in [1,16], got %d", l.Trip)
			}
			if l.ALU < 0 || l.ALU > 32 {
				bad(path+".loop.alu", "must be in [0,32], got %d", l.ALU)
			}
			if l.Loads < 0 || l.Loads > 4 {
				bad(path+".loop.loads", "must be in [0,4], got %d", l.Loads)
			}
		}
		if len(f.Calls) > 4 {
			bad(path+".calls", "at most 4 direct calls, got %d", len(f.Calls))
		}
	}

	// Call targets must exist and sit strictly later in the declaration
	// order: the call graph is a DAG by construction, so the program is
	// recursion-free and links under every ABI mode.
	target := func(path, name string, from int) {
		ti, ok := index[name]
		if !ok {
			bad(path, "unknown function %q", name)
			return
		}
		if from >= 0 && ti <= from {
			bad(path, "call target %q must be declared later than its caller (DAG order)", name)
		}
	}
	indirectAt := -1
	for i := range s.Funcs {
		f := &s.Funcs[i]
		path := fmt.Sprintf("funcs[%d]", i)
		for j, c := range f.Calls {
			target(fmt.Sprintf("%s.calls[%d]", path, j), c, i)
		}
		if len(f.Indirect) > 0 {
			if len(f.Indirect) != 2 {
				bad(path+".indirect", "an indirect site needs exactly 2 candidates, got %d", len(f.Indirect))
			}
			if indirectAt >= 0 {
				bad(path+".indirect", "at most one function may hold the indirect site (already on funcs[%d])", indirectAt)
			}
			indirectAt = i
			for j, c := range f.Indirect {
				target(fmt.Sprintf("%s.indirect[%d]", path, j), c, i)
			}
			if len(f.Indirect) == 2 && f.Indirect[0] == f.Indirect[1] {
				bad(path+".indirect", "the two candidates must differ")
			}
		}
	}
	if len(s.Funcs) > 0 && len(k.Calls) == 0 {
		bad("kernel.calls", "functions are declared but the kernel calls none of them")
	}
	for j, c := range k.Calls {
		target(fmt.Sprintf("kernel.calls[%d]", j), c, -1)
	}

	// Reachability: every declared function must be reachable from the
	// kernel through direct calls or the indirect candidate set.
	if len(s.Funcs) > 0 && len(errs) == 0 {
		seen := make([]bool, len(s.Funcs))
		var visit func(i int)
		visit = func(i int) {
			if seen[i] {
				return
			}
			seen[i] = true
			for _, c := range s.Funcs[i].Calls {
				visit(index[c])
			}
			for _, c := range s.Funcs[i].Indirect {
				visit(index[c])
			}
		}
		for _, c := range k.Calls {
			visit(index[c])
		}
		for i, ok := range seen {
			if !ok {
				bad(fmt.Sprintf("funcs[%d]", i), "function %q is unreachable from the kernel", s.Funcs[i].Name)
			}
		}
	}

	if len(errs) == 0 {
		return nil
	}
	sort.SliceStable(errs, func(i, j int) bool { return errs[i].Field < errs[j].Field })
	return &ValidationError{Spec: s.Name, Errs: errs}
}

// Parse decodes and validates one spec document. The schema version is
// probed before strict decoding so a future-versioned document fails
// with a SchemaError, not an unknown-field complaint.
func Parse(data []byte) (*Spec, error) {
	var probe struct {
		Schema int `json:"schema"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	if probe.Schema != SchemaVersion {
		return nil, &SchemaError{Got: probe.Schema}
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	s := &Spec{}
	if err := dec.Decode(s); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Load reads and parses a spec file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Encode renders a spec as indented, newline-terminated JSON — the
// checked-in corpus form. Encode∘Parse is the identity on valid specs.
func Encode(s *Spec) []byte {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		panic(err) // no unmarshalable fields in Spec
	}
	return append(data, '\n')
}

// Canon is the canonical single-line JSON of a spec: the form content-
// addressed cache keys hash. Two specs with equal Canon are the same
// workload.
func Canon(s *Spec) string {
	data, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	return string(data)
}

// Clone deep-copies a spec (the minimizer mutates candidates freely).
func (s *Spec) Clone() *Spec {
	c := *s
	c.Kernel.Calls = append([]string(nil), s.Kernel.Calls...)
	if len(s.Funcs) == 0 {
		return &c
	}
	c.Funcs = make([]FuncSpec, len(s.Funcs))
	for i := range s.Funcs {
		f := s.Funcs[i]
		f.Calls = append([]string(nil), f.Calls...)
		f.Indirect = append([]string(nil), f.Indirect...)
		if f.Loop != nil {
			l := *f.Loop
			f.Loop = &l
		}
		c.Funcs[i] = f
	}
	return &c
}
