package vet_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"carsgo/internal/abi"
	"carsgo/internal/asm"
	"carsgo/internal/san"
	"carsgo/internal/vet"
	"carsgo/internal/workloads"
)

const digestsPath = "testdata/digests.golden"

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
// that links, analysed as carsvet -json -perf does (the mode's san
// unit planned for the workload's launch shapes — a file's smoke
// launch — then the cross-backend advice over every mode's report).
func digestLine(t *testing.T, w *workloads.Workload) string {
	t.Helper()
	mods := w.Modules()
	fields := []string{w.Name, "modules=" + jsonDigest(t, vet.Modules(mods...))}
	facts := make([]map[string]*vet.FuncFacts, len(mods))
	for i, m := range mods {
		facts[i] = vet.ModuleFacts(m)
	}
	fields = append(fields, "facts="+jsonDigest(t, facts))

	var modes []abi.Mode
	var reps []*vet.ProgramReport
	for _, mode := range abi.Modes {
		u, err := san.Link(w, mode, mods...)
		if err != nil {
			t.Fatalf("%s [%s]: %v", w.Name, mode, err)
		}
		if u.Skip != "" {
			continue
		}
		if _, err := u.Plan(); err != nil {
			t.Fatalf("%s [%s]: %v", w.Name, mode, err)
		}
		modes = append(modes, mode)
		reps = append(reps, u.Rep)
	}
	vet.CrossBackendAdvice(reps...)
	for i, rep := range reps {
		fields = append(fields, fmt.Sprintf("%s=%s", modes[i], jsonDigest(t, rep)))
	}
	return strings.Join(fields, " ")
}

// digestUnits lists every registry workload (Table I, the perf cases,
// the sync negatives) and every assembly fixture in testdata.
func digestUnits(t *testing.T) []*workloads.Workload {
	t.Helper()
	units := slices.Concat(workloads.All(), workloads.PerfCases(), workloads.Negatives())
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
		units = append(units, san.Smoke(filepath.Base(path), m))
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
