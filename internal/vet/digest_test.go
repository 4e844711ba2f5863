package vet_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"carsgo/internal/abi"
	"carsgo/internal/asm"
	"carsgo/internal/isa"
	"carsgo/internal/kir"
	"carsgo/internal/san"
	"carsgo/internal/sim"
	"carsgo/internal/vet"
	"carsgo/internal/workloads"
)

const digestsPath = "testdata/digests.golden"

// digestUnit is one vetted unit of the digest golden: its pre-ABI
// modules and the launch geometry -perf analyses it under (nil setup:
// san.SmokeLaunch, as carsvet uses for assembly files).
type digestUnit struct {
	name  string
	mods  []*kir.Module
	setup func(*sim.GPU) ([]isa.Launch, error)
}

// jsonDigest is the hex sha256 of v's JSON encoding.
func jsonDigest(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// digestLine renders one unit's line: the digest of vet.Modules, of
// vet.ModuleFacts for every module, and of the report of each ABI mode
// that links, analysed as carsvet -json -perf does (AnalyzePerf on the
// mode's machine with the unit's launch shapes, then the cross-backend
// advice over every mode's report).
func digestLine(t *testing.T, u digestUnit) string {
	t.Helper()
	fields := []string{u.name, "modules=" + jsonDigest(t, vet.Modules(u.mods...))}
	facts := make([]map[string]*vet.FuncFacts, len(u.mods))
	for i, m := range u.mods {
		facts[i] = vet.ModuleFacts(m)
	}
	fields = append(fields, "facts="+jsonDigest(t, facts))

	var modes []abi.Mode
	var reps []*vet.ProgramReport
	for _, mode := range abi.Modes {
		prog, err := abi.Link(mode, u.mods...)
		if errors.Is(err, abi.ErrRecursive) {
			continue
		}
		if err != nil {
			t.Fatalf("%s [%s]: %v", u.name, mode, err)
		}
		cfg := san.ConfigFor(mode)
		var launches []isa.Launch
		if u.setup != nil {
			g, err := sim.New(cfg, prog)
			if err != nil {
				t.Fatalf("%s [%s]: %v", u.name, mode, err)
			}
			if launches, err = u.setup(g); err != nil {
				t.Fatalf("%s [%s]: %v", u.name, mode, err)
			}
		} else {
			l, err := san.SmokeLaunch(prog)
			if err != nil {
				t.Fatalf("%s [%s]: %v", u.name, mode, err)
			}
			launches = []isa.Launch{l}
		}
		rep := vet.Report(prog)
		if err := vet.AnalyzePerf(rep, prog, san.MachineParamsFor(cfg), san.Shapes(launches)); err != nil {
			t.Fatalf("%s [%s]: %v", u.name, mode, err)
		}
		modes = append(modes, mode)
		reps = append(reps, rep)
	}
	vet.CrossBackendAdvice(reps...)
	for i, rep := range reps {
		fields = append(fields, fmt.Sprintf("%s=%s", modes[i], jsonDigest(t, rep)))
	}
	return strings.Join(fields, " ")
}

// digestUnits lists every registry workload (Table I, the perf cases,
// the sync negatives) and every assembly fixture in testdata.
func digestUnits(t *testing.T) []digestUnit {
	t.Helper()
	var units []digestUnit
	for _, set := range [][]*workloads.Workload{workloads.All(), workloads.PerfCases(), workloads.Negatives()} {
		for _, w := range set {
			units = append(units, digestUnit{name: w.Name, mods: w.Modules(), setup: w.Setup})
		}
	}
	paths, err := filepath.Glob(filepath.Join("testdata", "*.carsasm"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		m, err := asm.ParseString(string(raw))
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		units = append(units, digestUnit{name: filepath.Base(path), mods: []*kir.Module{m}})
	}
	return units
}

// TestReportDigests pins vet's whole machine-readable output — every
// field of every report, not the text projection workloads.golden
// renders — one line per unit. A refactor that must keep vet's output
// byte-identical passes this unchanged; a deliberate change shows up
// as a reviewed diff of the lines it moves.
// Regenerate with: go test ./internal/vet/ -run ReportDigests -update
func TestReportDigests(t *testing.T) {
	var b strings.Builder
	for _, u := range digestUnits(t) {
		b.WriteString(digestLine(t, u))
		b.WriteByte('\n')
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(digestsPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(digestsPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("digest mismatch at line %d:\n  got:  %s\n  want: %s\n(regenerate with -update)", i+1, g, w)
		}
	}
}
