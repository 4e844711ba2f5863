package abi_test

import (
	"slices"
	"strings"
	"testing"

	"carsgo/internal/abi"
	"carsgo/internal/workloads"
)

// TestInlineAllDeterministicOrder: the LTO build of a workload with
// kept device functions (COLI's indirect calls, PTA's recursion) must
// lay its functions out the same way on every call — kernels first,
// then the kept device functions in declaration order — or Fig. 16's
// LTO cycles and every cached LTO result depend on map iteration.
func TestInlineAllDeterministicOrder(t *testing.T) {
	for _, name := range []string{"COLI", "PTA"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		mods := w.Modules()
		var declared []string
		for _, m := range mods {
			for _, f := range m.Funcs {
				declared = append(declared, f.Name)
			}
		}
		var first []string
		for call := 0; call < 32; call++ {
			flat, err := abi.InlineAllBudget(128, mods...)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var order []string
			for _, f := range flat.Funcs {
				order = append(order, f.Name)
			}
			if call == 0 {
				first = order
				continue
			}
			if !slices.Equal(order, first) {
				t.Fatalf("%s: call %d emitted %s, call 0 emitted %s", name, call,
					strings.Join(order, ","), strings.Join(first, ","))
			}
		}

		kernels, device := 0, 0
		last := -1
		flat, _ := abi.InlineAllBudget(128, mods...)
		for _, f := range flat.Funcs {
			if f.IsKernel {
				if device > 0 {
					t.Errorf("%s: kernel %s follows a device function", name, f.Name)
				}
				kernels++
				continue
			}
			device++
			at := slices.Index(declared, f.Name)
			if at < last {
				t.Errorf("%s: device function %s is out of declaration order: %s", name, f.Name,
					strings.Join(first, ","))
			}
			last = at
		}
		if kernels == 0 || device == 0 {
			t.Errorf("%s: LTO build has %d kernels and %d kept device functions, want both", name, kernels, device)
		}
	}
}
