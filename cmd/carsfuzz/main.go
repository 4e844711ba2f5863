// Command carsfuzz runs the generative differential: N seeded random
// workload specs (internal/spec) flow through the full static/dynamic
// stack — pre-ABI vet, a strict link under every ABI mode (a san.Unit
// whose report has no errors), the linked verifier, and san's
// dominance + occupancy-exactness differential (Unit.PerfDiff, which
// forces the simulator through every CARS ladder level) — and any
// disagreement between a static verdict and a dynamic observation is
// a failure. Failing specs are shrunk by the spec minimizer and
// written to a corpus directory as reproducers.
//
// Exit codes follow the carsvet contract: 0 = every spec agreed,
// 1 = at least one disagreement (reproducers written), 2 = internal
// error (the harness itself failed).
//
//	carsfuzz -n 200 -seed 1 -corpus fuzz-corpus
//
// With -opt each spec is additionally pushed through the
// certificate-carrying optimizer (internal/opt) and the
// optimize→simulate differential (san.OptDiffWorkload): the optimized
// program must produce bit-identical outputs with a clean sanitizer
// and a non-degrading vet report in every ABI mode, or the spec is a
// reproducer for a lying licensing fact.
//
// With -backends (on by default) each spec also has its static
// spill-backend lattice cross-checked: vet's per-backend rows and the
// merged cross-backend advice must satisfy the lattice's structural
// invariants (advice indices in range, coverage implying zero residual
// spill, the cross winner top-ranked). -backends-selftest plants
// forced mismatches in those invariants and asserts the checker
// catches every one.
//
// The -selftest mode verifies the oracle itself: built with
// `-tags vetweaken` (which plants a known analyzer weakening, see
// internal/vet/weaken.go), it asserts the differential catches the
// weakening within the -n budget and emits a minimized reproducer.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"carsgo/internal/abi"
	"carsgo/internal/asm"
	"carsgo/internal/san"
	"carsgo/internal/spec"
	"carsgo/internal/vet"
	"carsgo/internal/workloads"
)

func main() {
	var (
		n         = flag.Int("n", 200, "number of generated specs")
		seed      = flag.Uint64("seed", 1, "base generator seed (spec i uses seed+i)")
		corpus    = flag.String("corpus", "fuzz-corpus", "directory for failing-spec reproducers")
		minimize  = flag.Bool("minimize", true, "shrink failing specs before writing reproducers")
		maxShrink = flag.Int("max-shrink", 150, "minimizer budget (differential evaluations per failure)")
		regret    = flag.Float64("regret", -1, "advisor regret threshold (<0 disables the regret check)")
		timeout   = flag.Duration("timeout", 2*time.Minute, "per-spec differential timeout")
		verbose   = flag.Bool("v", false, "per-spec progress")
		selftest  = flag.Bool("selftest", false, "assert a -tags vetweaken build is caught within the budget")
		backends  = flag.Bool("backends", true, "cross-check the static spill-backend lattice (vet's per-backend rows and cross advice) per spec")
		optDiff   = flag.Bool("opt", false, "also push each spec through the certificate-carrying optimizer and require the optimized program to simulate bit-identically (san.OptDiffWorkload)")
		backSelf  = flag.Bool("backends-selftest", false, "assert the lattice cross-check catches planted forced mismatches, then exit")
		emitSeeds = flag.String("emit-seeds", "", "write go-fuzz corpus seeds from generated specs to this directory and exit")
	)
	flag.Parse()

	if *emitSeeds != "" {
		if err := writeFuzzSeeds(*emitSeeds); err != nil {
			fmt.Fprintln(os.Stderr, "carsfuzz:", err)
			os.Exit(2)
		}
		return
	}

	thresh := *regret
	if thresh < 0 {
		thresh = math.Inf(1)
	}
	h := &harness{regret: thresh, timeout: *timeout, backends: *backends, optDiff: *optDiff}

	if *backSelf {
		os.Exit(runBackendsSelftest(*n, *seed))
	}
	if *selftest {
		os.Exit(h.runSelftest(*n, *seed, *corpus, *maxShrink))
	}
	if vet.Weakened() {
		fmt.Fprintln(os.Stderr, "carsfuzz: NOTE: this build carries the vetweaken planted weakening; disagreements are expected")
	}
	os.Exit(h.runCampaign(*n, *seed, *corpus, *minimize, *maxShrink, *verbose))
}

// harness runs one spec through the whole differential stack.
type harness struct {
	regret   float64
	timeout  time.Duration
	backends bool // also cross-check the static backend lattice
	optDiff  bool // also run the optimize→simulate differential
}

// run returns every static/dynamic disagreement for one spec. Infra
// failures (the harness itself breaking) come back in err; skipped
// mode/spec pairs (recursion, spill frames over shared memory) are
// not failures, matching the registry differential's contract.
func (h *harness) run(s *spec.Spec) (violations []string, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), h.timeout)
	defer cancel()

	mods := s.Modules()
	for _, d := range vet.Modules(mods...) {
		if d.Sev >= vet.SevWarning {
			violations = append(violations, fmt.Sprintf("pre-abi: %s", d))
		}
	}
	w := workloads.FromSpec(s)
	one := []*workloads.Workload{w}
	perf, _, err := san.Drive(one, func(w *workloads.Workload, mode abi.Mode) (verdict, error) {
		u, err := san.Link(w, mode, mods...)
		if err != nil {
			return verdict{fmt.Sprintf("%s: link: %v", mode, err)}, nil
		}
		if u.Skip != "" {
			return nil, nil // recursion cannot happen for DAG specs, but is not a disagreement
		}
		if err := abi.Verified(u.Rep.Diags); err != nil {
			// abi.LinkStrict's verdict, read off the unit's report.
			return verdict{fmt.Sprintf("%s: link: %v", mode, err)}, nil
		}
		if err := u.Prog.Validate(); err != nil {
			return verdict{fmt.Sprintf("%s: isa: %v", mode, err)}, nil
		}
		var v verdict
		for _, d := range u.Rep.Diags {
			if d.Sev >= vet.SevWarning {
				v = append(v, fmt.Sprintf("%s: %s", mode, d))
			}
		}
		res, err := u.PerfDiff(ctx, h.regret)
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			// The dynamic half refusing a program the static half
			// accepted is itself a verdict disagreement.
			return append(v, fmt.Sprintf("%s: differential: %v", mode, err)), nil
		}
		for _, x := range res.Violations {
			v = append(v, fmt.Sprintf("%s: %s", mode, x))
		}
		return v, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	violations = append(violations, slices.Concat(perf...)...)
	if h.backends {
		lat, lerr := checkBackends(s)
		if lerr != nil {
			return nil, lerr
		}
		violations = append(violations, lat...)
	}
	if h.optDiff {
		opts, _, err := san.Drive(one, func(w *workloads.Workload, mode abi.Mode) (verdict, error) {
			res, err := san.OptDiffWorkload(ctx, w, mode)
			if err != nil {
				if ctx.Err() != nil {
					return nil, err
				}
				return verdict{fmt.Sprintf("opt/%s: %v", mode, err)}, nil
			}
			var v verdict
			for _, f := range res.Failures {
				v = append(v, fmt.Sprintf("opt/%s: %s", mode, f))
			}
			return v, nil
		}, nil)
		if err != nil {
			return nil, err
		}
		violations = append(violations, slices.Concat(opts...)...)
	}
	return violations, nil
}

// verdict is one ABI mode's disagreements for a spec.
type verdict []string

func (v verdict) OK() bool { return len(v) == 0 }

// fails is the minimizer predicate: does the spec still disagree?
func (h *harness) fails(s *spec.Spec) bool {
	violations, err := h.run(s)
	return err == nil && len(violations) > 0
}

// report shrinks (optionally) and persists one failing spec, returning
// the reproducer path.
func (h *harness) report(s *spec.Spec, violations []string, corpus string, minimize bool, maxShrink int) (string, error) {
	if err := os.MkdirAll(corpus, 0o755); err != nil {
		return "", err
	}
	min := s
	if minimize {
		min = spec.Minimize(s, h.fails, maxShrink)
	}
	base := filepath.Join(corpus, fmt.Sprintf("fail-%016x", s.Seed))
	if err := os.WriteFile(base+".json", spec.Encode(s), 0o644); err != nil {
		return "", err
	}
	if err := os.WriteFile(base+".min.json", spec.Encode(min), 0o644); err != nil {
		return "", err
	}
	var log strings.Builder
	fmt.Fprintf(&log, "spec %s (seed %d): %d disagreement(s)\n", s.Name, s.Seed, len(violations))
	for _, v := range violations {
		fmt.Fprintf(&log, "  %s\n", v)
	}
	if err := os.WriteFile(base+".txt", []byte(log.String()), 0o644); err != nil {
		return "", err
	}
	return base + ".min.json", nil
}

func (h *harness) runCampaign(n int, seed uint64, corpus string, minimize bool, maxShrink int, verbose bool) int {
	failures := 0
	for i := 0; i < n; i++ {
		s := spec.Generate(seed + uint64(i))
		violations, err := h.run(s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "carsfuzz: spec %s: %v\n", s.Name, err)
			return 2
		}
		if len(violations) == 0 {
			if verbose {
				fmt.Printf("ok   %4d/%d %s (%d funcs)\n", i+1, n, s.Name, len(s.Funcs))
			}
			continue
		}
		failures++
		path, werr := h.report(s, violations, corpus, minimize, maxShrink)
		if werr != nil {
			fmt.Fprintf(os.Stderr, "carsfuzz: writing reproducer: %v\n", werr)
			return 2
		}
		fmt.Printf("FAIL %4d/%d %s: %d disagreement(s); reproducer %s\n", i+1, n, s.Name, len(violations), path)
		for _, v := range violations {
			fmt.Printf("     %s\n", v)
		}
	}
	if failures > 0 {
		fmt.Printf("carsfuzz: %d of %d specs disagreed\n", failures, n)
		return 1
	}
	fmt.Printf("carsfuzz: %d specs, every static verdict matched the dynamic observations\n", n)
	return 0
}

// runSelftest verifies the oracle catches the planted vetweaken
// weakening within the budget: exit 0 when caught (with a minimized
// reproducer emitted), 1 when the budget expires uncaught, 2 when the
// build lacks the planted weakening.
func (h *harness) runSelftest(n int, seed uint64, corpus string, maxShrink int) int {
	if !vet.Weakened() {
		fmt.Fprintln(os.Stderr, "carsfuzz: -selftest requires a build with -tags vetweaken (no weakening planted in this binary)")
		return 2
	}
	for i := 0; i < n; i++ {
		s := spec.Generate(seed + uint64(i))
		violations, err := h.run(s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "carsfuzz: spec %s: %v\n", s.Name, err)
			return 2
		}
		if len(violations) == 0 {
			continue
		}
		path, werr := h.report(s, violations, corpus, true, maxShrink)
		if werr != nil {
			fmt.Fprintf(os.Stderr, "carsfuzz: writing reproducer: %v\n", werr)
			return 2
		}
		fmt.Printf("selftest: planted weakening caught at spec %d/%d (%s)\n", i+1, n, s.Name)
		fmt.Printf("selftest: minimized reproducer: %s\n", path)
		return 0
	}
	fmt.Printf("selftest: FAIL — %d specs ran without tripping the planted weakening\n", n)
	return 1
}

// writeFuzzSeeds serializes lowered generated specs as go-fuzz corpus
// seed files (the `go test fuzz v1` encoding) for FuzzVet and
// FuzzUniformity, so `go test -fuzz` starts from structured inputs.
func writeFuzzSeeds(dir string) error {
	// Chosen to cover the interesting structure space: call chains,
	// indirect dispatch, loops, divergence, barriers + shared staging.
	vetSeeds := []uint64{1, 3, 5, 11, 17, 23}
	uniSeeds := []uint64{4, 6, 9, 13, 25}
	write := func(fuzzName string, seeds []uint64, want func(*spec.Spec) bool) error {
		sub := filepath.Join(dir, fuzzName)
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return err
		}
		n := 0
		for _, sd := range seeds {
			s := spec.Generate(sd)
			if want != nil && !want(s) {
				continue
			}
			var src strings.Builder
			for _, m := range s.Modules() {
				src.WriteString(asm.Format(m))
			}
			body := "go test fuzz v1\nstring(" + strconv.Quote(src.String()) + ")\n"
			name := filepath.Join(sub, fmt.Sprintf("spec-%04x", sd))
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				return err
			}
			n++
		}
		fmt.Printf("carsfuzz: wrote %d seed(s) to %s\n", n, sub)
		return nil
	}
	if err := write("FuzzVet", vetSeeds, nil); err != nil {
		return err
	}
	return write("FuzzUniformity", uniSeeds, func(s *spec.Spec) bool {
		return s.Kernel.SmemWords > 0 || s.Kernel.BarrierEvery > 0
	})
}
