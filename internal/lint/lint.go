// Package lint hosts the repo's custom static analyzers for its own Go
// sources, shaped after golang.org/x/tools/go/analysis (Analyzer /
// Pass / Diagnostic) but built on the standard library alone — go/parser
// and go/types with the source importer — so the module stays
// dependency-free.
//
// Every analyzer runs over one type-checked Module and the call-graph
// Facts built from it, and reads hooks, constants and callees from the
// type information rather than from their spelling. Each analyzer
// declares the packages it defends; Run keeps only the findings inside
// them, and declaring none means the whole module. Test files are
// never loaded, so tests are exempt from every analyzer.
//
// Each analyzer ships a planted-violation fixture under
// testdata/src/<name> that SelfTest (and carslint -selftest) holds it
// to. DESIGN.md §13 documents the analyzers and their false-positive
// policies.
package lint

import (
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned for editor navigation.
type Diagnostic struct {
	Pos     token.Position
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message)
}

// Analyzer describes one static check, mirroring analysis.Analyzer.
type Analyzer struct {
	Name string
	Doc  string
	// Pkgs lists the import paths of the packages the analyzer
	// defends; nil means the whole module.
	Pkgs []string
	Run  func(*Pass) error
}

// Pass carries one analysis run: the loaded module, the shared facts,
// and the diagnostic sink.
type Pass struct {
	Mod    *Module
	Facts  *Facts
	Report func(Diagnostic)
}

// Analyzers lists every analyzer in reporting order: the five
// per-package checks, then the carsguard suite over the serving layer.
var Analyzers = []*Analyzer{
	NoNakedPanic, UncheckedSimError, UnusedMonitorHook, SeededRand, BackendExhaustive,
	CtxFlow, GoLeak, LockHeld, AtomicMix, MetricLabels,
}

// Run applies a to a loaded module with prebuilt facts and returns the
// findings inside a's packages, sorted by position. The analysis sees
// the whole module; only the findings are restricted. A package a
// declares that the module does not hold is an error.
func Run(a *Analyzer, m *Module, facts *Facts) ([]Diagnostic, error) {
	dirs := map[string]bool{}
	for _, path := range a.Pkgs {
		pkg := m.pkgByPath(path)
		if pkg == nil {
			return nil, fmt.Errorf("lint: %s defends %s, which the module does not hold", a.Name, path)
		}
		dirs[pkg.Dir] = true
	}
	var diags []Diagnostic
	pass := &Pass{Mod: m, Facts: facts, Report: func(d Diagnostic) {
		if len(dirs) == 0 || dirs[filepath.Dir(d.Pos.Filename)] {
			diags = append(diags, d)
		}
	}}
	if err := a.Run(pass); err != nil {
		return nil, err
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return diags, nil
}

// report is the analyzers' shared diagnostic constructor.
func (p *Pass) report(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: p.Mod.Fset.Position(pos), Message: fmt.Sprintf(format, args...)})
}

// FilterDirs filters a diagnostic set to files under any of the given
// directories (carslint's positional arguments); an empty dir list
// keeps everything.
func FilterDirs(diags []Diagnostic, dirs []string) []Diagnostic {
	if len(dirs) == 0 {
		return diags
	}
	var out []Diagnostic
	for _, d := range diags {
		for _, dir := range dirs {
			abs, err := filepath.Abs(dir)
			if err != nil {
				continue
			}
			if fabs, err := filepath.Abs(d.Pos.Filename); err == nil {
				if rel, err := filepath.Rel(abs, fabs); err == nil && !strings.HasPrefix(rel, "..") {
					out = append(out, d)
					break
				}
			}
		}
	}
	return out
}
