package cars_test

import (
	"strings"
	"testing"

	"carsgo/internal/cars"
)

func TestNewWindowPlanLadder(t *testing.T) {
	cases := []struct {
		name      string
		base      int
		maxFrame  int
		spill     int
		warps     int
		regSlots  int
		wantSlots []int // ladder StackSlots, in order
		wantFree  bool
	}{
		{
			// The canonical shape: Low holds the hottest frame, NxLow
			// doubles toward High, High covers the whole spill segment.
			name: "ladder", base: 8, maxFrame: 4, spill: 20,
			warps: 64, regSlots: 2048,
			wantSlots: []int{4, 8, 16, 20}, wantFree: true,
		},
		{
			// Single dominant frame: Low already covers everything, so
			// the ladder must not emit a duplicate Low/High pair.
			name: "lowEqualsHigh", base: 8, maxFrame: 20, spill: 20,
			warps: 64, regSlots: 2048,
			wantSlots: []int{20}, wantFree: true,
		},
		{
			// Zero-spill kernel: one degenerate zero-word High point.
			name: "zeroSpill", base: 8, maxFrame: 0, spill: 0,
			warps: 64, regSlots: 2048,
			wantSlots: []int{0}, wantFree: true,
		},
		{
			// Spill segment beyond the register file: High caps at the
			// capacity left over the base, like NewPlan's High cap.
			name: "capacityCap", base: 8, maxFrame: 4, spill: 100,
			warps: 64, regSlots: 40,
			wantSlots: []int{4, 8, 16, 32}, wantFree: false,
		},
		{
			// Cap tighter than Low: the plan still keeps Low viable (a
			// window smaller than one frame absorbs nothing), collapsing
			// to a single design point.
			name: "capBelowLow", base: 30, maxFrame: 10, spill: 50,
			warps: 64, regSlots: 32,
			wantSlots: []int{10}, wantFree: false,
		},
		{
			// Doubling landing exactly on High: no duplicate point.
			name: "doubleLandsOnHigh", base: 8, maxFrame: 5, spill: 10,
			warps: 64, regSlots: 2048,
			wantSlots: []int{5, 10}, wantFree: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := cars.NewWindowPlan(tc.base, tc.maxFrame, tc.spill, tc.warps, tc.regSlots)
			if len(p.Levels) != len(tc.wantSlots) {
				t.Fatalf("ladder %+v, want slots %v", p.Levels, tc.wantSlots)
			}
			for i, want := range tc.wantSlots {
				if p.Levels[i].StackSlots != want {
					t.Fatalf("level %d slots = %d, want %d (%+v)", i, p.Levels[i].StackSlots, want, p.Levels)
				}
			}
			// Shared ladder invariants: strictly ascending, High last.
			for i := 1; i < len(p.Levels); i++ {
				if p.Levels[i].StackSlots <= p.Levels[i-1].StackSlots {
					t.Fatalf("ladder has duplicate/descending point: %+v", p.Levels)
				}
			}
			if p.Levels[len(p.Levels)-1].Kind != cars.KindHigh {
				t.Fatalf("ladder must end at High: %+v", p.Levels)
			}
			if p.HighFree != tc.wantFree {
				t.Fatalf("HighFree = %v, want %v", p.HighFree, tc.wantFree)
			}
		})
	}
}

func TestParseBackendRoundTrip(t *testing.T) {
	for _, b := range cars.Backends {
		got, err := cars.ParseBackend(b.String())
		if err != nil {
			t.Fatalf("ParseBackend(%q): %v", b.String(), err)
		}
		if got != b {
			t.Fatalf("ParseBackend(%q) = %v, want %v", b.String(), got, b)
		}
	}
	if _, err := cars.ParseBackend("vliw"); err == nil {
		t.Fatal("ParseBackend must reject unknown backends")
	}
	if s := cars.Backend(7).String(); !strings.Contains(s, "7") {
		t.Fatalf("undeclared backend renders %q, want the ordinal visible", s)
	}
}
