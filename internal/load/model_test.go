package load

import (
	"encoding/json"
	"strings"
	"testing"

	"carsgo/internal/spec"
)

func TestModelValidate(t *testing.T) {
	good := []Model{
		{},
		{Keys: 1 << 16, Skew: 4, ColdPct: 100},
		{Seed: 9, Keys: 3, Skew: 0, ColdPct: 0, Config: "fast"},
	}
	for _, m := range good {
		if err := m.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", m, err)
		}
	}
	bad := []Model{
		{Keys: 1<<16 + 1},
		{Skew: 5},
		{Skew: -1},
		{ColdPct: 101},
		{ColdPct: -1},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", m)
		}
	}
}

func TestMiniSpecValidAndDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		s := MiniSpec(seed)
		if err := s.Validate(); err != nil {
			t.Fatalf("MiniSpec(%d) invalid: %v", seed, err)
		}
		again := MiniSpec(seed)
		if spec.Canon(s) != spec.Canon(again) {
			t.Fatalf("MiniSpec(%d) not deterministic", seed)
		}
	}
	if spec.Canon(MiniSpec(1)) == spec.Canon(MiniSpec(2)) {
		t.Fatal("distinct seeds produced identical mini specs")
	}
}

// TestRequestBody checks the POST body decodes to the wire document
// with the model's config, a canonical spec, and the key equal to the
// spec name.
func TestRequestBody(t *testing.T) {
	m := Model{Seed: 4, Keys: 2, Config: "fast", TimeoutMs: 250}
	s, err := m.Stream()
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	req := s.Next()
	var doc struct {
		Config    string          `json:"config"`
		Spec      json.RawMessage `json:"spec"`
		TimeoutMs int64           `json:"timeoutMs"`
	}
	if err := json.Unmarshal(req.Body, &doc); err != nil {
		t.Fatalf("body not JSON: %v\n%s", err, req.Body)
	}
	if doc.Config != "fast" || doc.TimeoutMs != 250 {
		t.Fatalf("doc = %+v, want config=fast timeoutMs=250", doc)
	}
	var sp spec.Spec
	if err := json.Unmarshal(doc.Spec, &sp); err != nil {
		t.Fatalf("embedded spec not JSON: %v", err)
	}
	if sp.Name != req.Key {
		t.Fatalf("spec name %q != request key %q", sp.Name, req.Key)
	}
	if err := sp.Validate(); err != nil {
		t.Fatalf("embedded spec invalid: %v", err)
	}
}

// TestColdMix checks the cold fraction tracks ColdPct and cold keys
// never collide with the hot set.
func TestColdMix(t *testing.T) {
	m := Model{Seed: 13, Keys: 4, ColdPct: 30}
	s, err := m.Stream()
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	hot := map[string]bool{}
	for _, r := range s.hot {
		hot[r.Key] = true
	}
	const draws = 20000
	cold := 0
	for i := 0; i < draws; i++ {
		req := s.Next()
		if req.Cold {
			cold++
			if hot[req.Key] {
				t.Fatalf("cold request key %q collides with hot set", req.Key)
			}
		} else if !hot[req.Key] {
			t.Fatalf("hot request key %q not in hot set", req.Key)
		}
	}
	frac := float64(cold) / draws
	if frac < 0.25 || frac > 0.35 {
		t.Fatalf("cold fraction %.3f, want ~0.30", frac)
	}
}

func TestFullModelUsesGenerator(t *testing.T) {
	m := Model{Seed: 21, Keys: 2, Full: true}
	s, err := m.Stream()
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	req := s.Next()
	if strings.HasPrefix(req.Key, "load") {
		t.Fatalf("Full model produced a mini-spec key %q", req.Key)
	}
}
