package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The repo loads once for every test that runs over the tree, and the
// selftest runs once for every test that reads a fixture.
var (
	treeOnce  sync.Once
	tree      *Module
	treeFacts *Facts
	treeErr   error

	selfOnce    sync.Once
	selfResults []SelfTestResult
	selfErr     error
)

func loadTree(t *testing.T) (*Module, *Facts) {
	t.Helper()
	treeOnce.Do(func() {
		if tree, treeErr = LoadModule("../.."); treeErr == nil {
			treeFacts = BuildFacts(tree)
		}
	})
	if treeErr != nil {
		t.Fatalf("load module: %v", treeErr)
	}
	return tree, treeFacts
}

func selfTest(t *testing.T) []SelfTestResult {
	t.Helper()
	selfOnce.Do(func() { selfResults, selfErr = SelfTest("../..") })
	if selfErr != nil {
		t.Fatalf("selftest: %v", selfErr)
	}
	return selfResults
}

// TestSelfTest holds every analyzer to its planted-violation fixture:
// all plants fire, nothing else does. This is the same contract
// `carslint -selftest` enforces in CI.
func TestSelfTest(t *testing.T) {
	results := selfTest(t)
	if len(results) != len(Analyzers) {
		t.Fatalf("selftest covered %d analyzers, want %d", len(results), len(Analyzers))
	}
	for _, r := range results {
		if r.Wanted == 0 {
			t.Errorf("%s: fixture has no planted violations", r.Analyzer)
		}
		for _, m := range r.Missing {
			t.Errorf("%s: planted violation did not fire: %s", r.Analyzer, m)
		}
		for _, u := range r.Unexpected {
			t.Errorf("%s: unexpected diagnostic (false positive on a clean twin): %s", r.Analyzer, u)
		}
	}
}

var caseRE = regexp.MustCompile(`^// case: (.+)$`)

// testCases checks a fixture one case at a time. A `// case: name`
// line opens a case that runs to the next one or to the end of its
// file; each case is a subtest whose plants must all fire and whose
// clean twins must stay silent.
func testCases(t *testing.T, a *Analyzer) {
	var res SelfTestResult
	for _, r := range selfTest(t) {
		if r.Analyzer == a.Name {
			res = r
		}
	}
	wants, err := parseWants(res.Dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(res.Dir)
	if err != nil {
		t.Fatal(err)
	}
	cases := 0
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(res.Dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(data), "\n")
		for i := 0; i < len(lines); i++ {
			m := caseRE.FindStringSubmatch(lines[i])
			if m == nil {
				continue
			}
			cases++
			end := i + 1
			for end < len(lines) && !caseRE.MatchString(lines[end]) {
				end++
			}
			in := func(file string, line int) bool { return file == e.Name() && line > i && line <= end }
			var caseWants []want
			for _, w := range wants {
				if in(w.file, w.line) {
					caseWants = append(caseWants, w)
				}
			}
			var caseDiags []Diagnostic
			for _, d := range res.Findings {
				if in(filepath.Base(d.Pos.Filename), d.Pos.Line) {
					caseDiags = append(caseDiags, d)
				}
			}
			t.Run(m[1], func(t *testing.T) {
				missing, unexpected := matchWants(caseWants, caseDiags)
				for _, w := range missing {
					t.Errorf("planted violation did not fire: %s", w)
				}
				for _, d := range unexpected {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			})
		}
	}
	if cases == 0 {
		t.Fatalf("%s: fixture has no cases", a.Name)
	}
}

func TestNoNakedPanic(t *testing.T)      { testCases(t, NoNakedPanic) }
func TestUncheckedSimError(t *testing.T) { testCases(t, UncheckedSimError) }
func TestUnusedMonitorHook(t *testing.T) { testCases(t, UnusedMonitorHook) }
func TestSeededRand(t *testing.T)        { testCases(t, SeededRand) }
func TestBackendExhaustive(t *testing.T) { testCases(t, BackendExhaustive) }

// TestGuardsCleanOnTree runs every analyzer over the real module
// within its scope: the tree must stay clean, so any finding here is
// a regression (or a new bug the analyzer just caught — fix the code,
// not the test).
func TestGuardsCleanOnTree(t *testing.T) {
	mod, facts := loadTree(t)
	for _, a := range Analyzers {
		diags, err := Run(a, mod, facts)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		for _, d := range diags {
			t.Errorf("%s: %s", a.Name, d)
		}
	}
}

// cleanOn runs a over just the packages named, each of which must lie
// in a's declared scope, and fails the test on any finding there.
func cleanOn(t *testing.T, a *Analyzer, pkgs ...string) {
	t.Helper()
	scope := map[string]bool{}
	for _, p := range a.Pkgs {
		scope[p] = true
	}
	for _, p := range pkgs {
		if !scope[p] {
			t.Errorf("%s no longer defends %s", a.Name, p)
		}
	}
	mod, facts := loadTree(t)
	narrowed := *a
	narrowed.Pkgs = pkgs
	diags, err := Run(&narrowed, mod, facts)
	if err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}
	for _, d := range diags {
		t.Errorf("%s: %s", a.Name, d)
	}
}

// TestHotPathsClean is the gate `make lint` enforces in CI: the
// simulator and register-stack packages carry no naked panics.
func TestHotPathsClean(t *testing.T) {
	cleanOn(t, NoNakedPanic, "carsgo/internal/sim", "carsgo/internal/cars")
}

// TestUncheckedSimErrorRepo keeps the non-test callers in the packages
// that actually launch programs honest.
func TestUncheckedSimErrorRepo(t *testing.T) {
	cleanOn(t, UncheckedSimError, "carsgo/internal/san", "carsgo/internal/workloads",
		"carsgo/cmd/carsvet", "carsgo/cmd/carsim")
}

// TestScopesLoaded: every package an analyzer defends is one the
// loader finds, and Run refuses a scope naming a package it does not.
func TestScopesLoaded(t *testing.T) {
	mod, facts := loadTree(t)
	for _, a := range Analyzers {
		for _, path := range a.Pkgs {
			if mod.pkgByPath(path) == nil {
				t.Errorf("%s defends %s, which the loader did not find", a.Name, path)
			}
		}
	}
	missing := &Analyzer{Name: "missing", Pkgs: []string{"carsgo/internal/nosuch"},
		Run: func(*Pass) error { return nil }}
	if _, err := Run(missing, mod, facts); err == nil {
		t.Error("Run accepted a scope naming a package the module does not hold")
	}
}

// TestLoadModuleSkipsTests: test files are never loaded, so a panic in
// one is no finding for any analyzer.
func TestLoadModuleSkipsTests(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":    "module lintskip\n\ngo 1.24\n",
		"a.go":      "package p\n\nfunc f() {}\n",
		"a_test.go": "package p\n\nfunc g() { panic(1) }\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mod, err := LoadModule(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(mod.Pkgs) != 1 || len(mod.Pkgs[0].Files) != 1 {
		t.Fatalf("loaded %d packages, want one package of one file", len(mod.Pkgs))
	}
	unscoped := *NoNakedPanic
	unscoped.Pkgs = nil
	diags, err := Run(&unscoped, mod, BuildFacts(mod))
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("test file findings leaked: %v", diags)
	}
}

// TestFactsServeRoots pins the root set the reachability rules hang
// off: the HTTP handlers and the daemon entry point must be roots.
func TestFactsServeRoots(t *testing.T) {
	_, facts := loadTree(t)
	rootSet := map[string]bool{}
	for _, r := range facts.ServeRoots() {
		rootSet[r] = true
	}
	for _, want := range []string{
		"(*carsgo/internal/serve.Server).handleSimulate",
		"(*carsgo/internal/serve.Server).handleJobSubmit",
	} {
		if !rootSet[want] {
			t.Errorf("serve root missing: %s", want)
		}
	}
	hasMain := false
	for r := range rootSet {
		if strings.Contains(r, "cmd/carsd") {
			hasMain = true
		}
	}
	if !hasMain {
		t.Errorf("no cmd/carsd function in serve roots")
	}
}
