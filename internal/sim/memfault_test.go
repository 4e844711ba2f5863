package sim_test

import (
	"errors"
	"strings"
	"testing"

	"carsgo/internal/abi"
	"carsgo/internal/config"
	"carsgo/internal/isa"
	"carsgo/internal/kir"
	"carsgo/internal/sim"
)

// runOneWarp runs a one-warp kernel built by body on a GPU with a
// 4096-word global memory and returns the launch error.
func runOneWarp(t *testing.T, body func(k *kir.Builder)) error {
	t.Helper()
	m := &kir.Module{Name: "m"}
	k := kir.NewKernel("main")
	body(k)
	k.Exit()
	m.AddFunc(k.MustBuild())
	prog, err := abi.Link(abi.Baseline, m)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.V100()
	cfg.GlobalMemWords = 1 << 12
	gpu, err := sim.New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	_, err = gpu.Run(isa.Launch{Kernel: "main", Dim: isa.Dim3{Grid: 1, Block: 32}})
	return err
}

// An access past global memory's capacity is the program's fault: it
// must come back as an *ExecError naming the address and the capacity,
// not escape the launch as an index-out-of-range panic.
func TestGlobalOutOfRangeIsExecError(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   func(k *kir.Builder)
	}{
		{"load", func(k *kir.Builder) { k.LdG(10, 9, 0) }},
		{"store", func(k *kir.Builder) { k.StG(9, 0, 9) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := runOneWarp(t, func(k *kir.Builder) {
				k.MovI(9, 0x7FFFFFF0)
				tc.op(k)
			})
			var ee *sim.ExecError
			if !errors.As(err, &ee) {
				t.Fatalf("out-of-range global %s returned %T (%v), want *sim.ExecError", tc.name, err, err)
			}
			if !strings.Contains(ee.Msg, "0x7ffffff0") || !strings.Contains(ee.Msg, "4096") {
				t.Errorf("ExecError %q does not name the address and the capacity", ee.Msg)
			}
		})
	}
	// The last word within capacity is in range; never written, it
	// reads 0.
	if err := runOneWarp(t, func(k *kir.Builder) {
		k.MovI(9, (1<<12-1)*4).LdG(10, 9, 0).StG(9, 0, 10)
	}); err != nil {
		t.Fatalf("access to the last global word: %v", err)
	}
}

// A software LDL/STL past the warp's local window is an *ExecError
// too; the window's last word is in range.
func TestLocalOutOfWindowIsExecError(t *testing.T) {
	const windowBytes = 16384 * 4
	err := runOneWarp(t, func(k *kir.Builder) {
		k.MovI(9, windowBytes).LdL(10, 9, 0)
	})
	var ee *sim.ExecError
	if !errors.As(err, &ee) {
		t.Fatalf("out-of-window local load returned %T (%v), want *sim.ExecError", err, err)
	}
	if err := runOneWarp(t, func(k *kir.Builder) {
		k.MovI(9, windowBytes-4).StL(9, 0, 9).LdL(10, 9, 0)
	}); err != nil {
		t.Fatalf("access to the window's last word: %v", err)
	}
}
