package spec_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"carsgo/internal/spec"
)

// valid returns a small hand-written spec exercising every section.
func valid() *spec.Spec {
	return &spec.Spec{
		Schema: spec.SchemaVersion, Name: "hand",
		Grid: 8, Block: 64, Iters: 4, Launches: 2,
		Pattern: spec.PatRegion, FootprintWords: 1 << 12, RegionWords: 256,
		Kernel: spec.KernelSpec{
			Loads: 2, ALU: 3, Regs: 2, ExtraLocalWords: 1,
			BarrierEvery: 2, SmemWords: 1024, CallEvery: 2,
			Calls: []string{"root"},
		},
		Funcs: []spec.FuncSpec{
			{Name: "root", CalleeSaved: 3, ALU: 5, Salt: 1, Divergent: true,
				Loop:  &spec.LoopSpec{Trip: 3, ALU: 2, Loads: 1},
				Calls: []string{"leaf"}},
			{Name: "leaf", CalleeSaved: 1, ALU: 2, Loads: 1, Salt: 2, XorTag: 7},
		},
	}
}

func TestEncodeParseRoundTrip(t *testing.T) {
	s := valid()
	got, err := spec.Parse(spec.Encode(s))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("Parse(Encode(s)) != s:\ngot  %+v\nwant %+v", got, s)
	}
	// Re-encoding the parsed spec must be byte-stable (the corpus form
	// is canonical).
	if again := spec.Encode(got); string(again) != string(spec.Encode(s)) {
		t.Fatalf("Encode not stable across a round trip")
	}
}

func TestCanonIsSingleLineAndStable(t *testing.T) {
	s := valid()
	c1, c2 := spec.Canon(s), spec.Canon(s.Clone())
	if c1 != c2 {
		t.Fatalf("Canon differs between a spec and its clone:\n%s\n%s", c1, c2)
	}
	if strings.Contains(c1, "\n") {
		t.Fatalf("Canon must be single-line, got %q", c1)
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := valid()
	c := s.Clone()
	c.Kernel.Calls[0] = "mutated"
	c.Funcs[0].Calls[0] = "mutated"
	c.Funcs[0].Loop.Trip = 99
	if s.Kernel.Calls[0] != "root" || s.Funcs[0].Calls[0] != "leaf" || s.Funcs[0].Loop.Trip != 3 {
		t.Fatal("Clone shares memory with its source")
	}
}

func TestParseRejectsUnknownSchema(t *testing.T) {
	s := valid()
	s.Schema = spec.SchemaVersion + 1
	_, err := spec.Parse(spec.Encode(s))
	var se *spec.SchemaError
	if !errors.As(err, &se) {
		t.Fatalf("want *SchemaError, got %v", err)
	}
	if se.Got != spec.SchemaVersion+1 {
		t.Fatalf("SchemaError.Got = %d, want %d", se.Got, spec.SchemaVersion+1)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	doc := strings.Replace(string(spec.Encode(valid())),
		`"name": "hand"`, `"name": "hand", "bogusKnob": 3`, 1)
	if _, err := spec.Parse([]byte(doc)); err == nil {
		t.Fatal("Parse accepted a document with an unknown field")
	} else if !strings.Contains(err.Error(), "bogusKnob") {
		t.Fatalf("error should name the unknown field, got: %v", err)
	}
}

// TestValidateFieldPaths drives each validator class and checks the
// structured error carries the right JSON field path.
func TestValidateFieldPaths(t *testing.T) {
	cases := []struct {
		field  string
		mutate func(*spec.Spec)
	}{
		{"name", func(s *spec.Spec) { s.Name = "no spaces allowed" }},
		{"grid", func(s *spec.Spec) { s.Grid = 0 }},
		{"block", func(s *spec.Spec) { s.Block = 48 }},
		{"iters", func(s *spec.Spec) { s.Iters = 1000 }},
		{"launches", func(s *spec.Spec) { s.Launches = 9 }},
		{"pattern", func(s *spec.Spec) { s.Pattern = "zigzag" }},
		{"footprintWords", func(s *spec.Spec) { s.FootprintWords = 100 }},
		{"regionWords", func(s *spec.Spec) { s.RegionWords = 48 }},
		{"kernel.loads", func(s *spec.Spec) { s.Kernel.Loads = 17 }},
		{"kernel.regs", func(s *spec.Spec) { s.Kernel.Regs = 33 }},
		{"kernel.barrierEvery", func(s *spec.Spec) { s.Kernel.BarrierEvery = 3 }},
		{"kernel.smemWords", func(s *spec.Spec) { s.Kernel.SmemWords = 512 }},
		{"kernel.callEvery", func(s *spec.Spec) { s.Kernel.CallEvery = 6 }},
		{"kernel.calls[0]", func(s *spec.Spec) { s.Kernel.Calls[0] = "ghost" }},
		{"funcs[0].calleeSaved", func(s *spec.Spec) { s.Funcs[0].CalleeSaved = 0 }},
		{"funcs[0].loop.trip", func(s *spec.Spec) { s.Funcs[0].Loop.Trip = 0 }},
		{"funcs[1].loads", func(s *spec.Spec) { s.Funcs[1].Loads = 9 }},
		{"funcs[1].name", func(s *spec.Spec) { s.Funcs[1].Name = "root" }}, // duplicate
		// DAG order: leaf calling root is a back edge.
		{"funcs[1].calls[0]", func(s *spec.Spec) { s.Funcs[1].Calls = []string{"root"} }},
		{"funcs[0].indirect", func(s *spec.Spec) { s.Funcs[0].Indirect = []string{"leaf"} }},
	}
	for _, tc := range cases {
		s := valid()
		tc.mutate(s)
		err := s.Validate()
		var ve *spec.ValidationError
		if !errors.As(err, &ve) {
			t.Errorf("%s: want *ValidationError, got %v", tc.field, err)
			continue
		}
		found := false
		for _, fe := range ve.Errs {
			if fe.Field == tc.field {
				found = true
			}
		}
		if !found {
			t.Errorf("mutating %s: no FieldError with that path in %v", tc.field, err)
		}
	}
}

func TestValidateUnreachableFunc(t *testing.T) {
	s := valid()
	s.Funcs = append(s.Funcs, spec.FuncSpec{Name: "orphan", CalleeSaved: 1})
	err := s.Validate()
	var ve *spec.ValidationError
	if !errors.As(err, &ve) {
		t.Fatalf("want *ValidationError, got %v", err)
	}
	if !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("want an unreachability complaint, got: %v", err)
	}
}

func TestValidateAcceptsRegistrySpecs(t *testing.T) {
	// The checked-in registry transcriptions must stay parseable; their
	// Canon equality with the registry is checked in
	// internal/workloads/spec_test.go.
	for _, name := range []string{"DMR", "MST", "SSSP", "CFD", "COLI", "LULESH", "SVR"} {
		if _, err := spec.Load("testdata/workloads/" + name + ".json"); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
