// Command carsvet runs the internal/vet static verifier over linked
// binary images, assembly sources, or the paper's built-in workloads,
// and disassembles the region around each error so the offending
// instructions are visible without a separate carsasm -d pass.
//
// Usage:
//
//	carsvet prog.bin                  # vet a linked binary image
//	carsvet kernel.s                  # pre-ABI vet + link & vet each mode
//	carsvet spec.json                 # lower a workload spec, then vet it
//	carsvet dir/ more.s spec.json     # directories walk *.carsasm + *.json
//	carsvet -mode cars kernel.s       # restrict to one ABI mode
//	carsvet -workloads                # vet all 22 paper workloads
//	carsvet -json kernel.s            # machine-readable per-function report
//	carsvet -sync kernel.s            # per-kernel barrier/race verdicts
//	carsvet -race kernel.s            # statically-detected race pairs
//	carsvet -diff                     # static/dynamic differential harness
//	carsvet -diff kernel.s            # ... on a file, via a smoke launch
//	carsvet -perf -workloads          # static cost/occupancy/advice tables
//	carsvet -perfdiff                 # perf differential vs the simulator
//	carsvet -perfdiff -regret 0.5 MST # ... named workloads, custom regret
//
// -json emits the full vet.ProgramReport for every vetted unit —
// per-function MaxStackDepth/SpillBytes/live ranges, per-kernel stack
// demand, cost bounds, occupancy rows, advice, and the normalized
// diagnostics — wrapped in a versioned envelope with stable field
// order:
//
//	{"schemaVersion": 3, "units": [...]}     // vet reports
//	{"schemaVersion": 3, "perf": [...]}      // -perfdiff results
//
// The schemaVersion field is bumped whenever a field is renamed,
// removed, or changes meaning; adding fields is not a bump. Version 3
// is the value-range schema: the interprocedural range/trip-count
// analysis now collapses symbolic ×loop^k cost terms whose trip
// counts it can bound, so the cost-bound sym/value fields emit
// different (tighter) text for the same program than v2 did — a
// meaning change for consumers that compare bounds across runs. It
// also adds the per-kernel perf.ranges block (derived loop trip
// bounds, unknown-loop/dead-branch/devirtualizable counts); the
// addition alone would not have been a bump. Version 2 was the
// cross-backend lattice schema: advice became per backend
// (perf.backends) and top-level perf.advice was reserved for the CARS
// watermark ladder. v1 and v2 documents still decode: no field was
// renamed or removed in either bump (see testdata/golden_v1.json,
// testdata/golden_v2.json).
//
// -sync prints each kernel's synchronization verdicts — BarrierSafe
// (every reachable BAR.SYNC provably executes convergently) and
// RaceFree (no two shared-memory accesses in one barrier interval may
// conflict) — and -race lists every may-racing access pair the affine
// address analysis could not separate.
//
// -diff runs programs on the simulator with the internal/san shadow
// sanitizer attached and checks that every static vet bound dominates
// the observed dynamic behaviour (built-in workloads by default, or
// the given files under a smoke launch), then runs the deliberately-
// broken negative workloads, which must be flagged by BOTH the static
// verifier and the sanitizer.
//
// -perf attaches the static performance analysis to every vetted unit:
// interprocedural spill/traffic cost bounds, the per-CARS-level
// occupancy table for the unit's launch geometry (each workload's own
// launches; a smoke launch for files), and the watermark advisor's
// recommendation with its rationale.
//
// -perfdiff runs the perf differential (internal/san): every workload
// × ABI mode is executed at every CARS ladder level with the shadow
// sanitizer attached, and the run fails if the static occupancy model
// misses the measured opening-wave residency, a finite cost bound is
// exceeded dynamically, or the advisor's recommended level loses to
// the best measured level by more than -regret.
//
// Inputs are sniffed, not judged by extension: files starting with the
// "CARS" magic are binary images, JSON documents are workload specs
// (internal/spec) lowered before vetting, anything else is assembly
// text. A directory input is walked recursively for *.carsasm and
// *.json files, so a whole spec corpus vets in one aggregate run.
//
// Exit status is part of the contract:
//
//	0 — everything vetted clean / every differential invariant held
//	1 — findings: diagnostics at warning or above, sanitizer reports,
//	    dominance or exactness violations, advisor regret, or a missed
//	    negative
//	2 — internal errors: unusable flags, unreadable inputs, or a
//	    harness failure that prevented the analysis from running
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"carsgo/internal/abi"
	"carsgo/internal/asm"
	"carsgo/internal/binfmt"
	"carsgo/internal/isa"
	"carsgo/internal/san"
	"carsgo/internal/spec"
	"carsgo/internal/vet"
	"carsgo/internal/workloads"
)

var (
	jsonOut bool
	syncOut bool
	raceOut bool
	perfOut bool
)

// schemaVersion is the -json envelope version: bumped whenever a field
// is renamed, removed, or changes meaning (additions are not bumps).
// v2: per-backend advice (perf.backends, report-level cross) — the
// top-level perf.advice now describes only the CARS watermark ladder.
// v3: trip-count collapse changes what the cost-bound sym/value pair
// means for loops the range analysis can bound; perf.ranges added.
const schemaVersion = 3

// jsonDoc is the -json envelope.
type jsonDoc struct {
	SchemaVersion int               `json:"schemaVersion"`
	Units         []jsonUnit        `json:"units,omitempty"`
	Perf          []*san.PerfResult `json:"perf,omitempty"`
}

// jsonUnit is one vetted unit in -json output. Field order is the
// stable output contract.
type jsonUnit struct {
	Unit      string             `json:"unit"`
	Mode      string             `json:"mode,omitempty"`
	LinkError string             `json:"linkError,omitempty"`
	Report    *vet.ProgramReport `json:"report,omitempty"`
	Diags     []vet.Diagnostic   `json:"diags,omitempty"` // pre-ABI units
}

var units []jsonUnit

// rootCtx bounds every dynamic (simulator-backed) run; the -timeout
// flag gives it a deadline.
var rootCtx = context.Background()

// internalErr marks a non-finding failure (unreadable input) for the
// exit-status contract: 0 clean, 1 findings, 2 internal error.
var internalErr bool

func main() {
	mode := flag.String("mode", "all", "ABI mode for assembly inputs: baseline, cars, smem, or all")
	wl := flag.Bool("workloads", false, "vet the paper's built-in workloads in every ABI mode")
	jsonFlag := flag.Bool("json", false, "emit machine-readable vet reports as JSON")
	diff := flag.Bool("diff", false, "run the static/dynamic differential harness under the shadow sanitizer")
	perfDiff := flag.Bool("perfdiff", false, "run the perf differential: occupancy exactness, cost dominance, advisor regret")
	regret := flag.Float64("regret", san.DefaultRegret, "advisor regret threshold for -perfdiff")
	flag.BoolVar(&syncOut, "sync", false, "print per-kernel synchronization verdicts (barrier safety, race freedom)")
	flag.BoolVar(&raceOut, "race", false, "print every statically-detected shared-memory race pair")
	flag.BoolVar(&perfOut, "perf", false, "attach the static cost/occupancy/advice analysis to every vetted unit")
	timeout := flag.Duration("timeout", 0, "kill dynamic (differential) runs after this long (0 = no limit)")
	flag.Parse()
	jsonOut = *jsonFlag

	rootCtx = context.Background()
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(rootCtx, *timeout)
		defer cancel()
		rootCtx = ctx
	}

	modes, err := parseModes(*mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "carsvet:", err)
		os.Exit(2)
	}
	if *diff {
		os.Exit(runDiff(flag.Args()))
	}
	if *perfDiff {
		os.Exit(runPerfDiff(flag.Args(), *regret))
	}
	if !*wl && flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "carsvet: no inputs (pass files or -workloads)")
		os.Exit(2)
	}

	dirty := false
	if *wl {
		dirty = vetWorkloads(modes) || dirty
	}
	for _, path := range flag.Args() {
		dirty = vetPath(path, modes) || dirty
	}
	if jsonOut {
		emitJSON(jsonDoc{SchemaVersion: schemaVersion, Units: units})
	}
	if internalErr {
		os.Exit(2)
	}
	if dirty {
		os.Exit(1)
	}
}

// emitJSON writes the versioned envelope to stdout.
func emitJSON(doc jsonDoc) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "carsvet:", err)
		os.Exit(2)
	}
}

// runPerfDiff executes the perf differential over the named workloads
// (all of them when none are named) and reports via text or JSON.
func runPerfDiff(names []string, regret float64) int {
	out := io.Writer(os.Stdout)
	if jsonOut {
		out = io.Discard
	}
	list, err := san.Select(names, slices.Concat(workloads.All(), workloads.PerfCases()))
	if err != nil {
		fmt.Fprintln(os.Stderr, "carsvet:", err)
		return 2
	}
	results, ok, err := san.PerfDiffWorkloads(rootCtx, list, regret, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "carsvet:", err)
		return 2
	}
	if jsonOut {
		emitJSON(jsonDoc{SchemaVersion: schemaVersion, Perf: results})
	}
	if !ok {
		return 1
	}
	if !jsonOut {
		fmt.Println("perf differential: static occupancy exact, cost bounds dominate, advisor within regret")
	}
	return 0
}

// runDiff executes the differential harness: built-in workloads when
// no files are given, otherwise each file under a smoke launch.
func runDiff(paths []string) int {
	if len(paths) == 0 {
		_, ok, err := san.DiffWorkloads(rootCtx, workloads.All(), os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "carsvet:", err)
			return 2
		}
		_, negOK, err := san.DiffNegatives(rootCtx, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "carsvet:", err)
			return 2
		}
		if !ok || !negOK {
			return 1
		}
		fmt.Println("differential harness: static bounds dominate, sanitizer silent, negatives flagged on both sides")
		return 0
	}
	status := 0
	for _, path := range paths {
		if !diffFile(path) {
			status = 1
		}
	}
	return status
}

// diffFile runs one assembly file under the sanitizer in every
// linkable ABI mode and reports sanitizer findings plus dominance
// violations. It runs the program even when vet rejects it statically:
// watching a broken program misbehave dynamically is the point.
func diffFile(path string) bool {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "carsvet:", err)
		return false
	}
	m, err := asm.ParseString(string(raw))
	if err != nil {
		fmt.Printf("%s: %v\n", path, err)
		return false
	}
	clean := true
	w := san.Smoke(path, m)
	for _, mode := range abi.Modes {
		tag := fmt.Sprintf("%s [%s]", path, mode)
		u, err := san.Link(w, mode)
		if err != nil {
			fmt.Printf("%s: link: %v\n", tag, err)
			clean = false
			continue
		}
		res, err := u.Diff(rootCtx)
		if err != nil {
			fmt.Printf("%s: run: %v\n", tag, err)
			clean = false
			continue
		}
		if res.Skipped {
			fmt.Printf("skip %s [%s] (%s)\n", path, mode, res.Reason)
			continue
		}
		for _, d := range res.Diags {
			fmt.Printf("%s: sanitizer: %s [%s pc=%d]\n", tag, d, d.Func, d.PC)
		}
		for _, v := range res.Violations {
			fmt.Printf("%s: dominance: %s\n", tag, v)
		}
		if res.OK() {
			fmt.Printf("ok   %s\n", tag)
		} else {
			clean = false
		}
	}
	return clean
}

func parseModes(s string) ([]abi.Mode, error) {
	switch s {
	case "all":
		return abi.Modes, nil
	case "baseline":
		return []abi.Mode{abi.Baseline}, nil
	case "cars":
		return []abi.Mode{abi.CARS}, nil
	case "smem":
		return []abi.Mode{abi.SharedSpill}, nil
	}
	return nil, fmt.Errorf("unknown mode %q", s)
}

// emit records a linked unit's report (JSON mode) or prints its
// diagnostics (text mode), returning whether the unit was dirty.
func emit(label, mode string, prog *isa.Program, rep *vet.ProgramReport, linkErr error) bool {
	if jsonOut {
		u := jsonUnit{Unit: label, Mode: mode, Report: rep}
		if linkErr != nil {
			u.LinkError = linkErr.Error()
		}
		units = append(units, u)
		if linkErr != nil {
			return true
		}
		return dirtyDiags(rep.Diags)
	}
	tag := label
	if mode != "" {
		tag = fmt.Sprintf("%s [%s]", label, mode)
	}
	if linkErr != nil {
		fmt.Printf("%s: link: %v\n", tag, linkErr)
		return true
	}
	dirty := report(tag, prog, rep.Diags)
	if syncOut || raceOut {
		syncReport(tag, rep)
	}
	if perfOut {
		perfReport(tag, rep)
	}
	return dirty
}

// attachPerf plans one linked unit: cost bounds, occupancy rows, and
// advice for its launch geometry land on the unit's kernel reports
// (where -json picks them up).
func attachPerf(tag string, u *san.Unit) bool {
	if _, err := u.Plan(); err != nil {
		fmt.Fprintf(os.Stderr, "carsvet: %s: %v\n", tag, err)
		return true
	}
	return false
}

// perfReport prints the static performance analysis (-perf) for every
// kernel in the unit: cost bounds, the occupancy ladder, and the
// advisor's recommendation.
func perfReport(tag string, rep *vet.ProgramReport) {
	for i := range rep.Kernels {
		k := &rep.Kernels[i]
		if k.Perf == nil {
			continue
		}
		c := k.Perf.Cost
		fmt.Printf("%s: perf %s cost: spill-stores %s, spill-fills %s, local %sB, shared %sB\n",
			tag, k.Kernel, c.SpillStores.Sym, c.SpillFills.Sym, c.LocalBytes.Sym, c.SharedBytes.Sym)
		for _, o := range k.Perf.Occupancy {
			fmt.Printf("%s: perf %s level %-6s stack=%-4d regs=%-4d blocks=%-2d resident=%-3d limited-by=%s\n",
				tag, k.Kernel, o.Level, o.StackSlots, o.RegsPerWarp, o.Blocks, o.ResidentWarps, o.LimitedBy)
		}
		if a := k.Perf.Advice; a != nil {
			fmt.Printf("%s: perf %s advice: %s (%s)\n", tag, k.Kernel, a.Level, a.Reason)
		}
		if r := k.Perf.Ranges; r != nil {
			for _, lb := range r.Loops {
				fmt.Printf("%s: perf %s range loop %s[%d] trips=%d\n",
					tag, k.Kernel, lb.Func, lb.Index, lb.Trips)
			}
			fmt.Printf("%s: perf %s range unknown-loops=%d dead-branches=%d devirtualizable=%d\n",
				tag, k.Kernel, r.UnknownLoops, r.DeadBranches, r.Devirtualizable)
		}
		for _, bp := range k.Perf.Backends {
			for _, bl := range bp.Levels {
				fmt.Printf("%s: perf %s backend %-7s %-6s stack=%-4d resident=%-3d covered=%-5v spill=%sB txns=%s\n",
					tag, k.Kernel, bp.Backend, bl.Level, bl.StackSlots, bl.ResidentWarps,
					bl.Covered, bl.SpillSmemBytes.Sym, bl.SmemTxns.Sym)
			}
			if a := bp.Advice; a != nil {
				fmt.Printf("%s: perf %s backend %-7s advice: %s (%s)\n", tag, k.Kernel, bp.Backend, a.Level, a.Reason)
			}
		}
	}
}

// crossReport merges the per-mode backend lattices of one unit into
// the cross-backend recommendation and, in text mode, prints it. The
// merged advice lands on every report's Cross field, where -json picks
// it up through the already-recorded unit pointers.
func crossReport(label string, reps []*vet.ProgramReport) {
	cross := vet.CrossBackendAdvice(reps...)
	if jsonOut {
		return
	}
	for _, ca := range cross {
		fmt.Printf("%s: cross %s -> %s/%s (%s)\n", label, ca.Kernel, ca.Backend, ca.Level, ca.Reason)
	}
}

// syncReport prints the per-kernel synchronization verdicts (-sync)
// and the statically-detected race pairs (-race).
func syncReport(tag string, rep *vet.ProgramReport) {
	for i := range rep.Kernels {
		k := &rep.Kernels[i]
		if syncOut {
			fmt.Printf("%s: sync %s barriersafe=%v racefree=%v shared=%d\n",
				tag, k.Kernel, k.BarrierSafe, k.RaceFree, k.SharedAccesses)
		}
		if raceOut {
			for _, p := range k.RacePairs {
				fmt.Printf("%s: race %s [%d]~[%d] %s\n", tag, k.Kernel, p.First, p.Second, p.Kind)
			}
		}
	}
}

// emitPreABI handles the separate-compilation vet pass over modules.
func emitPreABI(label string, diags []vet.Diagnostic) bool {
	if jsonOut {
		units = append(units, jsonUnit{Unit: label, Diags: diags})
		return dirtyDiags(diags)
	}
	return report(label, nil, diags)
}

func dirtyDiags(diags []vet.Diagnostic) bool {
	for _, d := range diags {
		if d.Sev >= vet.SevWarning {
			return true
		}
	}
	return false
}

// vetPath vets one input path: a directory walks every *.carsasm and
// *.json under it; a file vets directly. The aggregate run keeps the
// 0/1/2 exit-code contract — findings in any unit dirty the run,
// unreadable inputs mark an internal error.
func vetPath(path string, modes []abi.Mode) bool {
	info, err := os.Stat(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "carsvet:", err)
		internalErr = true
		return false
	}
	if !info.IsDir() {
		return vetFile(path, modes)
	}
	var files []string
	err = filepath.WalkDir(path, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".carsasm") || strings.HasSuffix(p, ".json")) {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "carsvet:", err)
		internalErr = true
		return false
	}
	sort.Strings(files)
	if len(files) == 0 {
		fmt.Fprintf(os.Stderr, "carsvet: %s: no *.carsasm or *.json files\n", path)
		internalErr = true
		return false
	}
	dirty := false
	for _, f := range files {
		dirty = vetFile(f, modes) || dirty
	}
	return dirty
}

// vetFile vets one input file and reports whether it was dirty.
func vetFile(path string, modes []abi.Mode) bool {
	raw, err := os.ReadFile(path)
	if err != nil {
		// Not a finding about the program — an unreadable input is an
		// internal error under the exit-status contract.
		fmt.Fprintln(os.Stderr, "carsvet:", err)
		internalErr = true
		return false
	}
	if isSpec(raw) {
		return vetSpec(path, raw, modes)
	}
	if bytes.HasPrefix(raw, binfmt.Magic[:]) {
		prog, err := binfmt.Read(bytes.NewReader(raw))
		if err != nil {
			fmt.Printf("%s: %v\n", path, err)
			return true
		}
		m := abi.Baseline
		if prog.CARS {
			m = abi.CARS
		}
		u := san.NewUnit(san.Smoke(path), m, san.ConfigFor(m), prog)
		dirty := false
		if perfOut {
			dirty = attachPerf(path, u)
		}
		return emit(path, "", prog, u.Rep, nil) || dirty
	}

	m, err := asm.ParseString(string(raw))
	if err != nil {
		fmt.Printf("%s: %v\n", path, err)
		return true
	}
	return vetModules(path, san.Smoke(path, m), modes)
}

// isSpec sniffs a workload-spec document: JSON object syntax, which no
// assembly source or binary image starts with.
func isSpec(raw []byte) bool {
	trimmed := bytes.TrimLeft(raw, " \t\r\n")
	return len(trimmed) > 0 && trimmed[0] == '{'
}

// vetSpec lowers a workload-spec document and vets the result exactly
// like an assembly unit. A malformed spec is a finding (the unit is
// dirty), not an internal error: vetting corpora of specs is the
// point, and a bad document is a defect in that corpus.
func vetSpec(path string, raw []byte, modes []abi.Mode) bool {
	s, err := spec.Parse(raw)
	if err != nil {
		fmt.Printf("%s: %v\n", path, err)
		return true
	}
	return vetModules(path, workloads.FromSpec(s), modes)
}

// vetModules runs the shared pre-ABI + per-mode vet pipeline over a
// workload's compilation units, labelled path; the workload's own
// launches give -perf its geometry (a file's is the smoke launch).
func vetModules(path string, w *workloads.Workload, modes []abi.Mode) bool {
	mods := w.Modules()
	dirty := emitPreABI(path+" [pre-abi]", vet.Modules(mods...))
	var perfReps []*vet.ProgramReport
	for _, mode := range modes {
		u, err := san.Link(w, mode, mods...)
		if err != nil {
			dirty = emit(path, mode.String(), nil, nil, err) || dirty
			continue
		}
		if u.Skip != "" {
			continue // the shared-spill ABI legitimately rejects recursion
		}
		if perfOut {
			dirty = attachPerf(fmt.Sprintf("%s [%s]", path, mode), u) || dirty
			perfReps = append(perfReps, u.Rep)
		}
		dirty = emit(path, mode.String(), u.Prog, u.Rep, nil) || dirty
	}
	if len(perfReps) > 0 {
		crossReport(path, perfReps)
	}
	return dirty
}

func vetWorkloads(modes []abi.Mode) bool {
	dirty := false
	for _, w := range workloads.All() {
		dirty = vetModules(w.Name, w, modes) || dirty
	}
	if !dirty && !jsonOut {
		fmt.Printf("%d workloads vet clean\n", len(workloads.All()))
	}
	return dirty
}

// report prints diagnostics for one vetted unit, with a disassembly
// excerpt around every error when the linked program is available.
// Info-level diagnostics do not make the unit dirty.
func report(label string, prog *isa.Program, diags []vet.Diagnostic) bool {
	dirty := false
	for _, d := range diags {
		fmt.Printf("%s: %s\n", label, d)
		if d.Sev >= vet.SevWarning {
			dirty = true
		}
		if d.Sev == vet.SevError && prog != nil && d.Index >= 0 {
			excerpt(prog, d.Func, d.Index)
		}
	}
	return dirty
}

// excerpt disassembles the two instructions either side of index in
// the named function, marking the diagnosed one.
func excerpt(p *isa.Program, fn string, index int) {
	for _, f := range p.Funcs {
		if f.Name != fn {
			continue
		}
		lo, hi := index-2, index+2
		if lo < 0 {
			lo = 0
		}
		if hi > len(f.Code)-1 {
			hi = len(f.Code) - 1
		}
		for i := lo; i <= hi; i++ {
			marker := " "
			if i == index {
				marker = ">"
			}
			fmt.Printf("  %s %4d  %s\n", marker, i, f.Code[i].String())
		}
		return
	}
}
