package san_test

import (
	"context"
	"io"
	"strings"
	"testing"

	"carsgo/internal/abi"
	"carsgo/internal/opt"
	"carsgo/internal/san"
	"carsgo/internal/spec"
	"carsgo/internal/workloads"
)

// A fast subset of the optimize→simulate differential: the full
// registry × mode matrix runs in `make opt` and CI; here three small
// workloads (including the recursive one) keep the unit suite quick.
func TestOptDiffSubset(t *testing.T) {
	if opt.Weakened() {
		t.Skip("optweaken build: the oracle is supposed to fail; see TestOptWeakenedCaught")
	}
	list, err := san.Select([]string{"FIB", "NBD", "LULESH"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	results, ok, err := san.OptDiffWorkloads(context.Background(), list, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		for _, r := range results {
			for _, f := range r.Failures {
				t.Errorf("%s/%s: %s", r.Workload, r.Mode, f)
			}
		}
		t.Fatal("optimize→simulate differential failed")
	}
	certs := 0
	for _, r := range results {
		certs += len(r.Certs)
	}
	if certs == 0 {
		t.Error("no certificates applied: the differential ran the same program twice")
	}
}

// The spec-corpus path: a generated spec optimizes and diffs through
// the same oracle via the FromSpec bridge.
func TestOptDiffSpec(t *testing.T) {
	if opt.Weakened() {
		t.Skip("optweaken build")
	}
	s := spec.Generate(7)
	for _, mode := range abi.Modes {
		res, err := san.OptDiffWorkload(context.Background(), workloads.FromSpec(s), mode)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if !res.OK() {
			t.Errorf("%s: %s", mode, strings.Join(res.Failures, "; "))
		}
	}
}

// Under -tags optweaken the optimizer carries a planted next-def-kills
// bug; the differential oracle must catch it on the registry, or the
// oracle proves nothing. The sound build skips this (the plant is
// absent); carsopt -selftest and `make opt` run the weakened build.
func TestOptWeakenedCaught(t *testing.T) {
	if !opt.Weakened() {
		t.Skip("sound build: no plant to catch (run with -tags optweaken)")
	}
	caught := false
	for _, name := range []string{"FIB", "NBD", "LULESH", "MST"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := san.OptDiffWorkload(context.Background(), w, abi.Baseline)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Skipped && len(res.Failures) > 0 {
			caught = true
			break
		}
	}
	if !caught {
		t.Fatal("planted unsound rewrite survived the differential oracle")
	}
}
