// Command carslint runs the repo's custom analyzers (internal/lint)
// over its Go sources. All ten run over one type-checked load of the
// module and share one set of call-graph facts; each reports only
// inside the packages it defends (lint.Analyzer.Pkgs):
//
//   - nonakedpanic: internal/sim and internal/cars, where a stray
//     panic would take down a whole multi-launch run instead of
//     surfacing as a *sim.ExecError;
//   - uncheckedsimerror: the packages that launch programs or link
//     modules (internal/san, internal/workloads, internal/experiments,
//     cmd/carsvet, cmd/carsim), where a discarded GPU.Run, carsgo.Run
//     or abi.Link error hides faults;
//   - unusedmonitorhook: internal/san and internal/sim, where an
//     empty-bodied sim.Monitor hook silently swallows part of the
//     event stream the sanitizer's invariants depend on;
//   - seededrand: the packages whose reproducibility contract the
//     fuzzer and the load generator depend on (internal/spec,
//     internal/workloads, internal/sim, internal/experiments,
//     internal/load, cmd/carsfuzz, cmd/carsbench), where a math/rand
//     global-source draw or a time-derived seed would make a printed
//     seed unable to replay its run;
//   - backendexhaustive: the packages that branch on the spill-backend
//     enum (internal/cars, internal/sim, internal/vet, internal/san,
//     internal/config, internal/experiments), where a switch missing a
//     backend case silently falls through when the lattice grows;
//   - the carsguard suite — ctxflow, goleak, lockheld, atomicmix,
//     metriclabels (DESIGN.md §13) — over the whole module, since its
//     reachability and lock-order facts are global.
//
// Pass directories to report only the findings under them.
//
// Modes:
//
//	-selftest  run every analyzer against its planted-violation
//	           fixture (internal/lint/testdata/src) and require all
//	           plants to fire with zero false positives on the clean
//	           twins — proof the analyzers still have teeth;
//	-json      emit a schemaVersioned machine-readable report;
//	-table     print a per-analyzer findings summary table.
//
// Exit status: 0 clean, 1 findings (or selftest failure), 2 usage or
// analysis error — the carsvet contract.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"carsgo/internal/lint"
)

// reportSchemaVersion identifies the -json envelope layout.
const reportSchemaVersion = 1

// finding is one diagnostic in the -json report.
type finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// report is the -json envelope.
type report struct {
	SchemaVersion int       `json:"schemaVersion"`
	Analyzers     []string  `json:"analyzers"`
	Findings      []finding `json:"findings"`
	Clean         bool      `json:"clean"`
}

func main() {
	jsonOut := flag.Bool("json", false, "emit a schemaVersioned JSON report instead of plain lines")
	selftest := flag.Bool("selftest", false, "run every analyzer against its planted-violation fixture")
	table := flag.Bool("table", false, "print a per-analyzer findings summary table")
	flag.Parse()

	if *selftest {
		os.Exit(runSelfTest(*jsonOut))
	}

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "carslint:", err)
		os.Exit(2)
	}
	mod, err := lint.LoadModule(".")
	if err != nil {
		fail(err)
	}
	facts := lint.BuildFacts(mod)
	cwd, _ := os.Getwd()
	findings := []finding{}
	for _, a := range lint.Analyzers {
		diags, err := lint.Run(a, mod, facts)
		if err != nil {
			fail(err)
		}
		for _, d := range lint.FilterDirs(diags, flag.Args()) {
			file := d.Pos.Filename
			if rel, err := filepath.Rel(cwd, file); err == nil {
				file = rel // findings print relative to the working directory
			}
			findings = append(findings, finding{
				Analyzer: a.Name,
				File:     file,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Message:  d.Message,
			})
		}
	}

	names := analyzerNames()
	if *jsonOut {
		emitJSON(report{
			SchemaVersion: reportSchemaVersion,
			Analyzers:     names,
			Findings:      findings,
			Clean:         len(findings) == 0,
		})
		if len(findings) > 0 {
			os.Exit(1)
		}
		return
	}

	for _, f := range findings {
		fmt.Printf("%s:%d:%d: %s\n", f.File, f.Line, f.Col, f.Message)
	}
	if *table {
		printTable(names, findings)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
	fmt.Print("carslint:")
	for _, n := range names {
		fmt.Print(" ", n)
	}
	fmt.Println(" clean")
}

// analyzerNames lists every analyzer in reporting order.
func analyzerNames() []string {
	var names []string
	for _, a := range lint.Analyzers {
		names = append(names, a.Name)
	}
	return names
}

// printTable renders the per-analyzer findings summary.
func printTable(names []string, findings []finding) {
	counts := map[string]int{}
	for _, f := range findings {
		counts[f.Analyzer]++
	}
	width := 0
	for _, n := range names {
		if len(n) > width {
			width = len(n)
		}
	}
	fmt.Printf("%-*s  findings\n", width, "analyzer")
	for _, n := range names {
		fmt.Printf("%-*s  %d\n", width, n, counts[n])
	}
}

// selftestResult is one analyzer's fixture verdict in the -selftest
// JSON report.
type selftestResult struct {
	Analyzer   string   `json:"analyzer"`
	Planted    int      `json:"planted"`
	Fired      int      `json:"fired"`
	Missing    []string `json:"missing,omitempty"`
	Unexpected []string `json:"unexpected,omitempty"`
	OK         bool     `json:"ok"`
}

// runSelfTest holds every analyzer to its planted fixture.
func runSelfTest(jsonOut bool) int {
	results, err := lint.SelfTest(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "carslint: selftest:", err)
		return 2
	}
	var out []selftestResult
	allOK := true
	for _, r := range results {
		sr := selftestResult{
			Analyzer:   r.Analyzer,
			Planted:    r.Wanted,
			Fired:      r.Wanted - len(r.Missing),
			Missing:    r.Missing,
			Unexpected: r.Unexpected,
			OK:         r.OK(),
		}
		if !sr.OK {
			allOK = false
		}
		out = append(out, sr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Analyzer < out[j].Analyzer })

	if jsonOut {
		emitJSON(struct {
			SchemaVersion int              `json:"schemaVersion"`
			Results       []selftestResult `json:"results"`
			OK            bool             `json:"ok"`
		}{reportSchemaVersion, out, allOK})
	} else {
		width := len("analyzer")
		for _, r := range out {
			if len(r.Analyzer) > width {
				width = len(r.Analyzer)
			}
		}
		fmt.Printf("%-*s  planted  fired  verdict\n", width, "analyzer")
		for _, r := range out {
			verdict := "ok"
			if !r.OK {
				verdict = "FAIL"
			}
			fmt.Printf("%-*s  %7d  %5d  %s\n", width, r.Analyzer, r.Planted, r.Fired, verdict)
			for _, m := range r.Missing {
				fmt.Printf("  missing: %s\n", m)
			}
			for _, u := range r.Unexpected {
				fmt.Printf("  unexpected: %s\n", u)
			}
		}
	}
	if !allOK {
		return 1
	}
	return 0
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintln(os.Stderr, "carslint:", err)
		os.Exit(2)
	}
}
