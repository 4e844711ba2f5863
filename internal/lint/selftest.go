// Selftest: every analyzer must fire on its planted-violation fixture,
// and must stay silent on the clean twins planted beside the
// violations. Fixtures live in internal/lint/testdata/src/<analyzer>,
// one package each, with `// want "substring"` markers on the lines
// that must produce a diagnostic. The contract is exact in both
// directions — a marker with no diagnostic means the analyzer lost its
// teeth (the carsfuzz vetweaken discipline), and a diagnostic with no
// marker is a false positive on code the fixture declares clean.
//
// Both the package tests and `carslint -selftest` run this.
package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// SelfTestResult is one analyzer's verdict against its fixture.
type SelfTestResult struct {
	Analyzer   string
	Dir        string
	Findings   []Diagnostic
	Wanted     int      // planted violations in the fixture
	Missing    []string // want markers no diagnostic matched
	Unexpected []string // diagnostics no want marker matched
}

// OK reports a fixture fully matched: every planted violation fired,
// nothing else did.
func (r SelfTestResult) OK() bool {
	return r.Wanted > 0 && len(r.Missing) == 0 && len(r.Unexpected) == 0
}

// FixtureDir is where the planted-violation fixtures live, relative
// to the module root.
const FixtureDir = "internal/lint/testdata/src"

// SelfTest runs every analyzer against its fixture package, with no
// scope restriction. The fixtures share one FileSet and importer.
func SelfTest(moduleRoot string) ([]SelfTestResult, error) {
	root, err := FindModuleRoot(moduleRoot)
	if err != nil {
		return nil, err
	}
	base, err := newModule(root)
	if err != nil {
		return nil, err
	}
	var results []SelfTestResult
	for _, a := range Analyzers {
		r, err := selfTestOne(base, a)
		if err != nil {
			return nil, fmt.Errorf("selftest %s: %w", a.Name, err)
		}
		results = append(results, r)
	}
	return results, nil
}

func selfTestOne(base *Module, a *Analyzer) (SelfTestResult, error) {
	dir := filepath.Join(base.Root, filepath.FromSlash(FixtureDir), a.Name)
	res := SelfTestResult{Analyzer: a.Name, Dir: dir}
	mod, err := base.fixture(dir, "carsguardfixture/"+a.Name)
	if err != nil {
		return res, err
	}
	unscoped := *a // the fixture is the analyzer's whole world
	unscoped.Pkgs = nil
	diags, err := Run(&unscoped, mod, BuildFacts(mod))
	if err != nil {
		return res, err
	}
	res.Findings = diags

	wants, err := parseWants(dir)
	if err != nil {
		return res, err
	}
	res.Wanted = len(wants)
	missing, unexpected := matchWants(wants, diags)
	for _, w := range missing {
		res.Missing = append(res.Missing, w.String())
	}
	for _, d := range unexpected {
		res.Unexpected = append(res.Unexpected, d.String())
	}
	return res, nil
}

// matchWants pairs markers with diagnostics: a marker takes the first
// unpaired diagnostic on its line whose message contains its text.
func matchWants(wants []want, diags []Diagnostic) (missing []want, unexpected []Diagnostic) {
	matched := make([]bool, len(diags))
	for _, w := range wants {
		found := false
		for i, d := range diags {
			if !matched[i] && filepath.Base(d.Pos.Filename) == w.file && d.Pos.Line == w.line &&
				strings.Contains(d.Message, w.substr) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			missing = append(missing, w)
		}
	}
	for i, d := range diags {
		if !matched[i] {
			unexpected = append(unexpected, d)
		}
	}
	return missing, unexpected
}

// want is one planted-violation marker.
type want struct {
	file   string // base name
	line   int
	substr string
}

func (w want) String() string { return fmt.Sprintf("%s:%d: want %q", w.file, w.line, w.substr) }

var wantRE = regexp.MustCompile(`// want "([^"]+)"`)

// parseWants scans the fixture's Go files for `// want "..."` markers.
func parseWants(dir string) ([]want, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var wants []want
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
				wants = append(wants, want{file: e.Name(), line: i + 1, substr: m[1]})
			}
		}
	}
	return wants, nil
}
