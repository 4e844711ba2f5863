package sim

import (
	"testing"

	"carsgo/internal/isa"
)

func TestRangeAllocFirstFitAndCoalesce(t *testing.T) {
	a := newRangeAlloc(100)
	b1, ok := a.Alloc(40)
	if !ok || b1 != 0 {
		t.Fatalf("first alloc: %d %v", b1, ok)
	}
	b2, ok := a.Alloc(40)
	if !ok || b2 != 40 {
		t.Fatalf("second alloc: %d %v", b2, ok)
	}
	if _, ok := a.Alloc(40); ok {
		t.Fatal("over-allocation succeeded")
	}
	if got := a.FreeSlots(); got != 20 {
		t.Fatalf("free = %d", got)
	}
	a.Release(b1, 40)
	if got := a.LargestFree(); got != 40 {
		t.Fatalf("largest = %d (no coalesce needed yet)", got)
	}
	a.Release(b2, 40)
	if got := a.LargestFree(); got != 100 {
		t.Fatalf("coalesce failed: largest = %d", got)
	}
	// Fragmented middle hole.
	x, _ := a.Alloc(30)
	y, _ := a.Alloc(30)
	z, _ := a.Alloc(30)
	a.Release(y, 30)
	if got := a.LargestFree(); got != 30 {
		t.Fatalf("middle hole largest = %d", got)
	}
	a.Release(x, 30)
	if got := a.LargestFree(); got != 60 {
		t.Fatalf("left+middle coalesce = %d", got)
	}
	a.Release(z, 30)
	if a.FreeSlots() != 100 || a.LargestFree() != 100 {
		t.Fatal("full release did not restore capacity")
	}
}

func TestRangeAllocZeroSize(t *testing.T) {
	a := newRangeAlloc(10)
	if _, ok := a.Alloc(0); !ok {
		t.Fatal("zero alloc should trivially succeed")
	}
	a.Release(0, 0) // must not corrupt the free list
	if a.FreeSlots() != 10 {
		t.Fatal("zero release changed capacity")
	}
}

func TestBlockTailMask(t *testing.T) {
	cases := []struct {
		threads, warp int
		want          uint32
	}{
		{64, 0, ^uint32(0)},
		{64, 1, ^uint32(0)},
		{48, 1, 0x0000FFFF},
		{33, 1, 0x00000001},
		{32, 1, 0},
		{1, 0, 1},
	}
	for _, c := range cases {
		if got := blockTailMask(c.threads, c.warp); got != c.want {
			t.Errorf("blockTailMask(%d,%d) = %#x, want %#x", c.threads, c.warp, got, c.want)
		}
	}
}

func TestCoalesceMergesSectors(t *testing.T) {
	var accs []access
	// Two addresses in the same sector, two in other sectors, one in a
	// different line.
	accs = coalesce(accs, 0, 128, 32)
	accs = coalesce(accs, 4, 128, 32)
	accs = coalesce(accs, 40, 128, 32)
	accs = coalesce(accs, 127, 128, 32)
	accs = coalesce(accs, 200, 128, 32)
	if len(accs) != 2 {
		t.Fatalf("lines = %d, want 2", len(accs))
	}
	if accs[0].sectors != 0b1011 {
		t.Fatalf("line 0 sectors = %04b", accs[0].sectors)
	}
	if accs[1].lineAddr != 128 || accs[1].sectors != 0b0100 {
		t.Fatalf("line 1: %+v", accs[1])
	}
}

// evalALU evaluates op on one lane's operands through aluLanes.
func evalALU(op isa.Op, a, b, c, imm uint32) (uint32, bool) {
	var r, av, bv, cv lanes
	av[0], bv[0], cv[0] = a, b, c
	ok := aluLanes(op, &r, &av, &bv, &cv, imm)
	return r[0], ok
}

func TestEvalALU(t *testing.T) {
	cases := []struct {
		op      isa.Op
		a, b, c uint32
		want    uint32
	}{
		{isa.OpIAdd, 3, 4, 0, 7},
		{isa.OpISub, 3, 4, 0, 0xFFFFFFFF},
		{isa.OpIMul, 3, 4, 0, 12},
		{isa.OpIMad, 3, 4, 5, 17},
		{isa.OpIMin, ^uint32(0), 1, 0, ^uint32(0)}, // signed: -1 < 1
		{isa.OpIMax, ^uint32(0), 1, 0, 1},
		{isa.OpAnd, 0b1100, 0b1010, 0, 0b1000},
		{isa.OpOr, 0b1100, 0b1010, 0, 0b1110},
		{isa.OpXor, 0b1100, 0b1010, 0, 0b0110},
		{isa.OpShl, 1, 4, 0, 16},
		{isa.OpShr, 0x80000000, 31, 0, 1},
		{isa.OpMov, 9, 0, 0, 9},
	}
	for _, cse := range cases {
		got, ok := evalALU(cse.op, cse.a, cse.b, cse.c, cse.b)
		if !ok || got != cse.want {
			t.Errorf("%s(%d,%d,%d) = %d,%v, want %d", cse.op, cse.a, cse.b, cse.c, got, ok, cse.want)
		}
	}
	// Float ops round-trip through bit casts.
	if got, _ := evalALU(isa.OpFAdd, f2u(1.5), f2u(2.25), 0, 0); u2f(got) != 3.75 {
		t.Errorf("FADD = %v", u2f(got))
	}
	if got, _ := evalALU(isa.OpFFma, f2u(2), f2u(3), f2u(1), 0); u2f(got) != 7 {
		t.Errorf("FFMA = %v", u2f(got))
	}
	if got, _ := evalALU(isa.OpFSqr, f2u(9), 0, 0, 0); u2f(got) != 3 {
		t.Errorf("FSQRT = %v", u2f(got))
	}
	// Ops without an evaluation rule report failure instead of panicking.
	if _, ok := evalALU(isa.OpBra, 0, 0, 0, 0); ok {
		t.Error("evalALU(OpBra) reported ok")
	}
}
