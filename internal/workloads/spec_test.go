package workloads_test

import (
	"path/filepath"
	"reflect"
	"testing"

	"carsgo/internal/abi"
	"carsgo/internal/asm"
	"carsgo/internal/config"
	"carsgo/internal/sim"
	"carsgo/internal/spec"
	"carsgo/internal/vet"
	"carsgo/internal/workloads"
)

// specDir holds registry workloads transcribed as checked-in workload
// specs, the corpus the spec-driven tools (carsvet, carsopt, carsfuzz)
// run against. Each file must describe the same spec its registry
// workload is built from, so the file and the registry lower the same
// kernel and every vet verdict and simulation agrees.
const specDir = "../spec/testdata/workloads"

func loadSpecs(t *testing.T) []*spec.Spec {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(specDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 5 {
		t.Fatalf("found %d workload specs in %s, want >= 5", len(paths), specDir)
	}
	var specs []*spec.Spec
	for _, p := range paths {
		s, err := spec.Load(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		specs = append(specs, s)
	}
	return specs
}

// TestCorpusSpecsMatchRegistry pins each checked-in spec to the spec
// its registry workload is built from: equal canonical encodings mean
// the file and the registry lower the same kernel and build the same
// launches, grid, iterations and footprint.
func TestCorpusSpecsMatchRegistry(t *testing.T) {
	for _, s := range loadSpecs(t) {
		w, err := workloads.ByName(s.Name)
		if err != nil {
			t.Errorf("%s: %v", s.Name, err)
			continue
		}
		rs := workloads.SpecOf(w)
		if rs == nil {
			t.Errorf("%s: registry workload is not built from a spec", s.Name)
			continue
		}
		if got, want := spec.Canon(s), spec.Canon(rs); got != want {
			t.Errorf("%s: file differs from the registry's spec:\nfile:     %s\nregistry: %s", s.Name, got, want)
		}
	}
}

// TestRegistrySpecsLowerIdentically asserts each checked-in spec emits
// byte-identical assembly to the registry workload of the same name.
func TestRegistrySpecsLowerIdentically(t *testing.T) {
	for _, s := range loadSpecs(t) {
		w, err := workloads.ByName(s.Name)
		if err != nil {
			t.Errorf("%s: %v", s.Name, err)
			continue
		}
		sm, rm := s.Modules(), w.Modules()
		if len(sm) != len(rm) {
			t.Errorf("%s: spec lowers to %d modules, registry has %d", s.Name, len(sm), len(rm))
			continue
		}
		for i := range sm {
			got, want := asm.Format(sm[i]), asm.Format(rm[i])
			if got != want {
				t.Errorf("%s: module %s differs from registry module %s\n--- spec ---\n%s\n--- registry ---\n%s",
					s.Name, sm[i].Name, rm[i].Name, got, want)
			}
		}
	}
}

// TestRegistrySpecsIdenticalVerdicts asserts the full vet verdict —
// link outcome, every diagnostic, and every per-function bound — is
// identical between spec and registry under every ABI mode.
func TestRegistrySpecsIdenticalVerdicts(t *testing.T) {
	for _, s := range loadSpecs(t) {
		w, err := workloads.ByName(s.Name)
		if err != nil {
			t.Errorf("%s: %v", s.Name, err)
			continue
		}
		if d := vet.Modules(s.Modules()...); !vet.Clean(d) {
			t.Errorf("%s: spec modules not vet-clean pre-ABI: %v", s.Name, d)
		}
		for _, mode := range abi.Modes {
			sp, serr := abi.LinkStrict(mode, s.Modules()...)
			rp, rerr := abi.LinkStrict(mode, w.Modules()...)
			if (serr == nil) != (rerr == nil) {
				t.Errorf("%s/%s: link disagreement: spec %v, registry %v", s.Name, mode, serr, rerr)
				continue
			}
			if serr != nil {
				continue
			}
			srep, rrep := vet.Report(sp), vet.Report(rp)
			if !reflect.DeepEqual(srep, rrep) {
				t.Errorf("%s/%s: vet report differs between spec and registry:\nspec: %+v\nregistry: %+v",
					s.Name, mode, srep, rrep)
			}
		}
	}
}

// TestRegistrySpecsRunIdentically runs one checked-in spec end-to-end
// through the simulator next to its registry twin and compares launches
// and output words — the dynamic half of the equivalence claim. One
// workload suffices: the lowering identity is already instruction-exact.
func TestRegistrySpecsRunIdentically(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	s, err := spec.Load(filepath.Join(specDir, "SSSP.json"))
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloads.ByName(s.Name)
	if err != nil {
		t.Fatal(err)
	}
	sw := workloads.FromSpec(s)
	cfg := config.WithCARS(config.V100())
	run := func(x *workloads.Workload) ([]uint32, int) {
		prog, err := abi.Link(abi.CARS, x.Modules()...)
		if err != nil {
			t.Fatalf("%s: link: %v", x.Name, err)
		}
		gpu, err := sim.New(cfg, prog)
		if err != nil {
			t.Fatalf("%s: new: %v", x.Name, err)
		}
		launches, err := x.Setup(gpu)
		if err != nil {
			t.Fatalf("%s: setup: %v", x.Name, err)
		}
		for _, l := range launches {
			if _, err := gpu.Run(l); err != nil {
				t.Fatalf("%s: run: %v", x.Name, err)
			}
		}
		return x.Output(gpu), len(launches)
	}
	specOut, specLaunches := run(sw)
	regOut, regLaunches := run(w)
	if specLaunches != regLaunches {
		t.Fatalf("launch count: spec %d, registry %d", specLaunches, regLaunches)
	}
	if !reflect.DeepEqual(specOut, regOut) {
		t.Fatalf("output region differs between spec-built and registry-built %s", s.Name)
	}
}
