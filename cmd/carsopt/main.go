// Command carsopt drives the certificate-carrying optimizer
// (internal/opt) and its soundness oracle, the optimize→simulate
// differential (internal/san).
//
//	carsopt -workloads             # optimize every registry workload, diff under every ABI mode
//	carsopt -workloads -run FIB,MST
//	carsopt -spec w.json           # one declarative spec through the same differential
//	carsopt file.carsasm dir/      # static mode: optimize pre-ABI modules, print certificates
//	carsopt -emit file.carsasm     # static mode, printing the optimized assembly
//	carsopt -selftest              # optweaken build only: assert the oracle catches the plant
//
// Every applied rewrite carries a certificate naming the transform,
// the site, and the licensing vet fact; -json emits them machine-
// readably, and -certs DIR writes each failing run's certificates to
// DIR so a lying static fact is directly attributable (CI uploads the
// directory as an artifact).
//
// Exit codes: 0 = optimized programs simulate bit-identically (or, in
// static mode, optimization succeeded), 1 = the differential caught a
// divergence (certificates written), 2 = internal error or misuse.
// -selftest inverts the contract: 0 = the planted unsound rewrite was
// caught, 1 = it survived, 2 = the build carries no plant.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"carsgo/internal/asm"
	"carsgo/internal/opt"
	"carsgo/internal/san"
	"carsgo/internal/spec"
	"carsgo/internal/workloads"
)

func main() {
	var (
		wl       = flag.Bool("workloads", false, "run the optimize→simulate differential over the built-in registry")
		run      = flag.String("run", "", "comma-separated workload subset for -workloads")
		specPath = flag.String("spec", "", "declarative workload spec file (internal/spec JSON) through the differential")
		jsonOut  = flag.Bool("json", false, "machine-readable output (certificates and results)")
		certDir  = flag.String("certs", "", "write each failing run's certificates to this directory")
		emit     = flag.Bool("emit", false, "static mode: print the optimized assembly")
		selftest = flag.Bool("selftest", false, "assert a -tags optweaken build is caught by the differential")
		timeout  = flag.Duration("timeout", 10*time.Minute, "overall differential timeout")
	)
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	switch {
	case *selftest:
		os.Exit(runSelftest(ctx, *certDir))
	case *wl:
		var names []string
		if *run != "" {
			names = strings.Split(*run, ",")
		}
		list, err := san.Select(names, workloads.All())
		if err != nil {
			fmt.Fprintln(os.Stderr, "carsopt:", err)
			os.Exit(2)
		}
		os.Exit(runDiff(ctx, list, outWriter(*jsonOut), *jsonOut, *certDir))
	case *specPath != "":
		s, err := spec.Load(*specPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "carsopt:", err)
			os.Exit(2)
		}
		os.Exit(runDiff(ctx, []*workloads.Workload{workloads.FromSpec(s)}, io.Discard, *jsonOut, *certDir))
	case flag.NArg() > 0:
		os.Exit(runStatic(flag.Args(), *jsonOut, *emit))
	default:
		fmt.Fprintln(os.Stderr, "carsopt: one of -workloads, -spec, -selftest, or input files required")
		os.Exit(2)
	}
}

// runDiff runs the optimize→simulate differential over list, printing
// each result's line to out.
func runDiff(ctx context.Context, list []*workloads.Workload, out io.Writer, jsonOut bool, certDir string) int {
	if opt.Weakened() {
		fmt.Fprintln(os.Stderr, "carsopt: NOTE: this build carries the optweaken planted rewrite; failures are expected")
	}
	results, ok, err := san.OptDiffWorkloads(ctx, list, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "carsopt:", err)
		return 2
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintln(os.Stderr, "carsopt:", err)
			return 2
		}
	}
	if certDir != "" {
		if err := writeFailingCerts(certDir, results); err != nil {
			fmt.Fprintln(os.Stderr, "carsopt:", err)
			return 2
		}
	}
	if !ok {
		return 1
	}
	return 0
}

func outWriter(jsonOut bool) *os.File {
	if jsonOut {
		return os.Stderr // keep stdout clean for the JSON document
	}
	return os.Stdout
}

// writeFailingCerts persists every failing run (certificates plus the
// broken oracle clauses) as one JSON file per workload/mode pair.
func writeFailingCerts(dir string, results []*san.OptDiffResult) error {
	wrote := false
	for _, r := range results {
		if r.OK() {
			continue
		}
		if !wrote {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
			wrote = true
		}
		raw, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			return err
		}
		name := filepath.Join(dir, fmt.Sprintf("%s-%s.json", r.Workload, r.Mode))
		if err := os.WriteFile(name, raw, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "carsopt: failing certificates written to %s\n", name)
	}
	return nil
}

// runStatic optimizes pre-ABI modules from .carsasm files (or
// directories of them) without simulating: it prints the certificates
// and optionally the optimized assembly.
func runStatic(args []string, jsonOut, emit bool) int {
	var files []string
	for _, a := range args {
		st, err := os.Stat(a)
		if err != nil {
			fmt.Fprintln(os.Stderr, "carsopt:", err)
			return 2
		}
		if st.IsDir() {
			found, err := filepath.Glob(filepath.Join(a, "*.carsasm"))
			if err != nil {
				fmt.Fprintln(os.Stderr, "carsopt:", err)
				return 2
			}
			files = append(files, found...)
		} else {
			files = append(files, a)
		}
	}
	var allCerts []opt.Certificate
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "carsopt:", err)
			return 2
		}
		m, err := asm.ParseString(string(raw))
		if err != nil {
			fmt.Fprintf(os.Stderr, "carsopt: %s: %v\n", path, err)
			return 2
		}
		res, err := opt.Optimize(m)
		if err != nil {
			fmt.Fprintf(os.Stderr, "carsopt: %s: %v\n", path, err)
			return 2
		}
		allCerts = append(allCerts, res.Certs...)
		if !jsonOut {
			fmt.Printf("%s: %d rewrite(s) in %d round(s)\n", path, len(res.Certs), res.Rounds)
			for _, c := range res.Certs {
				fmt.Printf("  %s\n", c)
			}
		}
		if emit {
			fmt.Print(asm.Format(res.Module))
		}
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(allCerts); err != nil {
			fmt.Fprintln(os.Stderr, "carsopt:", err)
			return 2
		}
	}
	return 0
}

// runSelftest requires the optweaken build and asserts the planted
// next-def-kills rewrite is caught by the differential: exit 0 when
// caught, 1 when every workload survives, 2 when no plant is present.
func runSelftest(ctx context.Context, certDir string) int {
	if !opt.Weakened() {
		fmt.Fprintln(os.Stderr, "carsopt: -selftest requires a build with -tags optweaken (no unsound rewrite planted in this binary)")
		return 2
	}
	for _, w := range workloads.All() {
		results, _, err := san.OptDiffWorkloads(ctx, []*workloads.Workload{w}, io.Discard)
		if err != nil {
			fmt.Fprintln(os.Stderr, "carsopt:", err)
			return 2
		}
		for _, res := range results {
			if res.Skipped || res.OK() {
				continue
			}
			fmt.Printf("selftest: planted rewrite caught on %s/%s:\n", res.Workload, res.Mode)
			for _, f := range res.Failures {
				fmt.Printf("  %s\n", f)
			}
			if certDir != "" {
				if err := writeFailingCerts(certDir, []*san.OptDiffResult{res}); err != nil {
					fmt.Fprintln(os.Stderr, "carsopt:", err)
					return 2
				}
			}
			return 0
		}
	}
	fmt.Println("selftest: FAIL — the planted unsound rewrite survived the whole registry")
	return 1
}
