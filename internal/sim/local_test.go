package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"carsgo/internal/isa"
	"carsgo/internal/simt"
)

// refLocalWord is how local memory was addressed before row-wise
// accesses: one lane's word, its page allocated on first touch.
func refLocalWord(w *Warp, wordIdx, lane int) *uint32 {
	pageIdx := wordIdx / localPageWords
	if pageIdx >= len(w.Local) {
		w.Local = append(w.Local, make([]*localPage, pageIdx+1-len(w.Local))...)
	}
	pg := w.Local[pageIdx]
	if pg == nil {
		pg = &localPage{}
		w.Local[pageIdx] = pg
	}
	return &pg[wordIdx%localPageWords][lane]
}

// refCoalesce is coalesce as it was: line and sector by division.
func refCoalesce(accs []access, addr, lineBytes, secBytes uint64) []access {
	lineAddr := addr &^ (lineBytes - 1)
	sector := uint8(1) << ((addr % lineBytes) / secBytes)
	for i := range accs {
		if accs[i].lineAddr == lineAddr {
			accs[i].sectors |= sector
			return accs
		}
	}
	return append(accs, access{lineAddr: lineAddr, sectors: sector})
}

// refExecLocal is execLocal's functional and coalescing work as it was
// before the row path: every guarded lane reads or writes its own word
// and coalesces its own address. It returns the LSU entry's accesses.
func refExecLocal(w *Warp, in *isa.Instruction, guard uint32) []access {
	g := w.SM.gpu
	lineBytes := uint64(g.Cfg.L1D.Cache.LineBytes)
	secBytes := uint64(g.Cfg.L1D.Cache.SectorBytes)
	addrs := w.reg(in.SrcA)
	var accs []access
	for l := 0; l < isa.WarpSize; l++ {
		if guard&(1<<l) == 0 {
			continue
		}
		word := int((addrs[l] + uint32(in.Imm)) / 4)
		if in.Op == isa.OpLdL {
			w.reg(in.Dst)[l] = *refLocalWord(w, word, l)
		} else {
			*refLocalWord(w, word, l) = w.reg(in.SrcC)[l]
		}
		accs = refCoalesce(accs, g.localPhysAddr(w.GWID, word, l), lineBytes, secBytes)
	}
	return accs
}

// randGuard returns a guard mask: full, empty, one lane, a partial
// warp's low lanes, or random lanes.
func randGuard(rng *rand.Rand) uint32 {
	switch rng.Intn(5) {
	case 0:
		return simt.FullMask
	case 1:
		return 0
	case 2:
		return 1 << rng.Intn(isa.WarpSize)
	case 3:
		return 1<<rng.Intn(isa.WarpSize) - 1
	}
	return rng.Uint32()
}

// TestLocalAccessMatchesPerLane holds execLocal to the per-lane loop it
// replaced for warp-uniform addresses, and still runs for the rest:
// random guards and addresses (uniform over the guarded lanes, one word
// per lane, lanes straddling a page boundary, per-lane byte offsets),
// loads and stores, under line/sector shapes and a local base that is
// not line-aligned. Registers, local memory and the LSU entry's access
// list must match. No benchmark workload issues a non-uniform local
// access, so this is that path's coverage.
func TestLocalAccessMatchesPerLane(t *testing.T) {
	for _, geom := range []struct{ line, sector, globalWords int }{
		{128, 32, 1 << 16}, {64, 8, 1 << 16}, {256, 32, 1 << 16}, {128, 32, 1<<16 + 5},
	} {
		t.Run(fmt.Sprintf("%dB/%dB/base%d", geom.line, geom.sector, geom.globalWords), func(t *testing.T) {
			cfg := tinyConfig()
			cfg.L1D.Cache.LineBytes, cfg.L1D.Cache.SectorBytes = geom.line, geom.sector
			cfg.GlobalMemWords = geom.globalWords
			g, err := New(cfg, tinyProgram(t))
			if err != nil {
				t.Fatal(err)
			}
			s := g.sms[0]
			const nregs = 4
			ref := &Warp{SM: s, Slot: 0, GWID: 3, RegBase: 0, RegCount: nregs}
			got := &Warp{SM: s, Slot: 1, GWID: 3, RegBase: nregs, RegCount: nregs}
			rng := rand.New(rand.NewSource(int64(geom.line + geom.globalWords)))
			kinds := make([]int, 2)
			for op := 0; op < 4000; op++ {
				for r := uint8(0); r < nregs; r++ {
					for l := range isa.WarpSize {
						v := rng.Uint32()
						ref.reg(r)[l], got.reg(r)[l] = v, v
					}
				}
				guard := randGuard(rng)
				addrs := ref.reg(1)
				base := uint32(rng.Intn(localWordsPerWarp - 256))
				switch rng.Intn(4) {
				case 0: // uniform over the guarded lanes only
					for l := range isa.WarpSize {
						if guard&(1<<l) != 0 || rng.Intn(2) == 0 {
							addrs[l] = base * 4
						} else {
							addrs[l] = uint32(rng.Intn(localWordsPerWarp-256)) * 4
						}
					}
				case 1: // one random word per lane
					for l := range isa.WarpSize {
						addrs[l] = uint32(rng.Intn(localWordsPerWarp-256)) * 4
					}
				case 2: // consecutive words across a page boundary
					edge := uint32(localPageWords*(1+rng.Intn(8)) - rng.Intn(isa.WarpSize))
					for l := range isa.WarpSize {
						addrs[l] = (edge + uint32(l)) * 4
					}
				case 3: // one word, per-lane byte offsets
					for l := range isa.WarpSize {
						addrs[l] = base*4 + uint32(rng.Intn(4))
					}
				}
				copy(got.reg(1)[:], addrs[:])
				in := isa.Instruction{Op: isa.OpStL, Dst: isa.NoReg, SrcA: 1, SrcB: isa.NoReg, SrcC: 3,
					Pred: isa.NoPred, Imm: int32(4 * rng.Intn(32)), Spill: rng.Intn(2) == 0}
				if rng.Intn(2) == 0 {
					in.Op, in.Dst, in.SrcC = isa.OpLdL, 2, isa.NoReg
					if rng.Intn(4) == 0 {
						in.Dst = in.SrcA // the load overwrites its address register
					}
				}
				if guard != 0 && uniformLanes(addrs, guard) {
					kinds[0]++
				} else {
					kinds[1]++
				}

				want := refExecLocal(ref, &in, guard)
				s.execLocal(got, &in, guard)
				var have []access
				if n := len(s.lsu.queue); n > 0 {
					e := s.lsu.queue[n-1]
					have = append(have, e.accesses...)
					s.lsu.queue = s.lsu.queue[:0]
					s.lsu.release(e)
				}
				if !slices.Equal(have, want) {
					t.Fatalf("op %d (%s, guard %#x): accesses %+v, per-lane %+v", op, in.Op, guard, have, want)
				}
				for r := uint8(0); r < nregs; r++ {
					if *got.reg(r) != *ref.reg(r) {
						t.Fatalf("op %d (%s, guard %#x): R%d = %v, per-lane %v", op, in.Op, guard, r, *got.reg(r), *ref.reg(r))
					}
				}
				if len(got.Local) != len(ref.Local) {
					t.Fatalf("op %d: %d local pages, per-lane %d", op, len(got.Local), len(ref.Local))
				}
				for i := range got.Local {
					if (got.Local[i] == nil) != (ref.Local[i] == nil) || got.Local[i] != nil && *got.Local[i] != *ref.Local[i] {
						t.Fatalf("op %d (%s, guard %#x): local page %d differs", op, in.Op, guard, i)
					}
				}
			}
			if kinds[0] < 500 || kinds[1] < 500 {
				t.Fatalf("%d uniform and %d per-lane accesses, want at least 500 of each", kinds[0], kinds[1])
			}
		})
	}
}
