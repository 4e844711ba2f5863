package spec

import (
	"carsgo/internal/isa"
	"carsgo/internal/kir"
)

// Lowering: a spec compiles to one kir idiom — the kernel and device
// functions below — which is also how the built-in Table I workloads
// are generated (internal/workloads expands its parameter table into
// specs). The invariants that keep lowered code clean under the static
// verifier are structural:
//
//   - device functions write every declared callee-saved register
//     before reading it (the save chain), as CARS renaming requires;
//   - scratch stays inside the ABI conventions: R2/R3 plus the
//     caller-dead R8..R15 window; R0/R1 (stack pointers) and R5..R7
//     (read-only globals) are never written by device functions;
//   - barrier and call-gating predicates derive from the block-uniform
//     iteration counter, so the sync verifier proves them convergent;
//   - lane divergence reconverges inside the function that creates it
//     and never wraps a call or a barrier.

// Modules lowers the spec to its pre-ABI compilation units: a main
// module holding the kernel and, when the spec declares device
// functions, a library module holding them — mirroring the separate
// compilation the paper's workloads use (§V-A). A function-free spec
// lowers to the main module alone (an empty module has no textual
// form, so none is emitted).
func (s *Spec) Modules() []*kir.Module {
	main := &kir.Module{Name: s.Name + "_main"}
	main.AddFunc(s.lowerKernel())
	if len(s.Funcs) == 0 {
		return []*kir.Module{main}
	}
	lib := &kir.Module{Name: s.Name + "_lib"}
	for i := range s.Funcs {
		lib.AddFunc(s.lowerFunc(&s.Funcs[i]))
	}
	return []*kir.Module{main, lib}
}

// KernelName is the name of the lowered kernel.
func (s *Spec) KernelName() string { return s.Name + "_kernel" }

// indirectPair returns the spec's single indirect candidate pair, or
// nil when no function dispatches indirectly.
func (s *Spec) indirectPair() []string {
	for i := range s.Funcs {
		if len(s.Funcs[i].Indirect) == 2 {
			return s.Funcs[i].Indirect
		}
	}
	return nil
}

// gather emits the gather-load idiom: one data word selected by the
// running value in R4, confined to the first 1/32nd of the footprint,
// so gathers supply global *bandwidth* pressure (scattered sectors)
// without growing the capacity working set beyond roughly one L1.
func gather(b *kir.Builder) {
	b.And(2, 4, 6)
	b.ShrI(2, 2, 5)
	b.ShlI(2, 2, 2)
	b.IAdd(2, 5, 2)
	b.LdG(3, 2, 0)
	b.IAdd(4, 4, 3)
}

// lowerFunc builds one device function.
//
// Contract: arg in R4, result in R4; R5 (data), R6 (mask), R7 (aux /
// function pointer) read-only. Callee-saved registers are written
// before any read.
func (s *Spec) lowerFunc(fs *FuncSpec) *kir.Func {
	c := fs.CalleeSaved
	if c < 1 {
		c = 1
	}
	salt := fs.Salt
	b := kir.NewFunc(fs.Name).SetCalleeSaved(c)

	b.Mov(16, 4) // save the argument
	for k := 1; k < c; k++ {
		b.IAddI(uint8(16+k), uint8(16+k-1), int32(salt*7+k*13+1))
	}
	// ALU work mixing the saved registers back into R4.
	for i := 0; i < fs.ALU; i++ {
		src := uint8(16 + i%c)
		switch i % 3 {
		case 0:
			b.IMad(4, 4, src, src)
		case 1:
			b.Xor(4, 4, src)
		default:
			b.IAddI(4, 4, int32(i*31+salt))
		}
	}
	if fs.Divergent {
		// Lane-divergent extra work; reconverges before anything that
		// must run under the full mask (calls, the return).
		b.S2R(8, isa.SrLaneID)
		b.AndI(8, 8, 1)
		b.SetPI(1, isa.CmpEQ, 8, 0)
		b.If(1, func(b *kir.Builder) {
			b.IAddI(4, 4, int32(salt*5+3))
			b.Xor(4, 4, 16)
		}, nil)
	}
	if l := fs.Loop; l != nil {
		// Inner counted loop on the caller-dead R8/R9 window (defined at
		// entry, so no uninitialised-read hazard).
		b.ForN(8, 9, int32(l.Trip), func(b *kir.Builder) {
			for i := 0; i < l.ALU; i++ {
				src := uint8(16 + i%c)
				b.IMad(4, 4, src, 8)
			}
			for i := 0; i < l.Loads; i++ {
				gather(b)
			}
		})
	}
	for i := 0; i < fs.Loads; i++ {
		gather(b)
	}
	if len(fs.Calls) > 0 || len(fs.Indirect) == 2 {
		b.IAddI(4, 4, int32(salt+1))
		for _, callee := range fs.Calls {
			b.Call(callee)
		}
		if len(fs.Indirect) == 2 {
			// Dispatch through the function pointer in R7 (set by the
			// kernel to a warp-uniform type's implementation).
			b.CallIndirect(7, fs.Indirect[0], fs.Indirect[1])
		}
	}
	if fs.XorTag != 0 {
		b.XorI(4, 4, int32(fs.XorTag))
	}
	b.IAdd(4, 4, 16) // fold the saved argument back in
	if c >= 2 {
		b.Xor(4, 4, uint8(16+c-1))
	}
	b.Ret()
	return b.MustBuild()
}

// lowerKernel builds the kernel. Launch parameters arrive in R4 (out
// base), R5 (data), R6 (footprint mask) and R7 (iterations); R5/R6 stay
// live as the read-only globals every device function may read.
//
// Kernel register map:
//
//	R16 acc   R17 tidGlobal  R18 pattern base  R19 out address
//	R20 loop counter (builder)  R21 iters  R22 laneID  R23 totalThreads
//	R24 warp type / fnptr       R25.. filler kernel-resident state
//
// Each iteration computes a word index into R8 by the spec's pattern
// (see the Pat* constants), runs kernel.loads global loads at 128 B
// steps from it, kernel.alu dependent IMADs, the optional shared and
// local traffic, the call sequence (every iteration, or gated on
// iteration % callEvery == 0), and the optional barrier.
func (s *Spec) lowerKernel() *kir.Func {
	k := &s.Kernel
	b := kir.NewKernel(s.KernelName())
	if k.ExtraLocalWords > 0 {
		b.SetExtraLocalBytes(k.ExtraLocalWords * 4)
	}
	indirect := s.indirectPair()

	b.S2R(8, isa.SrTID).
		S2R(9, isa.SrCTAID).
		S2R(10, isa.SrNTID).
		S2R(22, isa.SrLaneID).
		IMad(17, 9, 10, 8) // tidGlobal
	b.S2R(11, isa.SrNCTAID).
		IMul(23, 10, 11) // totalThreads
	// out address = R4 + 4*tidGlobal
	b.ShlI(12, 17, 2).IAdd(19, 4, 12)
	b.MovI(16, 0)     // acc
	b.Mov(21, 7)      // iters (kernel param R7)
	b.ShrI(18, 17, 5) // global warp id
	if s.Pattern == PatRegion {
		b.IMulI(18, 18, int32(s.RegionWords))
	}
	if indirect != nil {
		// Warp-uniform "object type": even warps call the first variant.
		b.ShrI(12, 17, 5).AndI(12, 12, 1)
		b.SetPI(0, isa.CmpEQ, 12, 0)
		b.MovFuncIdx(13, indirect[0])
		b.MovFuncIdx(14, indirect[1])
		b.Sel(24, 13, 14, 0)
	}
	// Inflate the kernel's base register demand (distinct live values).
	for r := 0; r < k.Regs; r++ {
		b.IAddI(uint8(25+r), 17, int32(r+1))
	}
	if k.SmemWords > 0 {
		// Stage a slice of data into shared memory, then barrier.
		b.AndI(12, 8, int32(k.SmemWords-1)).ShlI(12, 12, 2)
		b.ShlI(13, 8, 2)
		b.IAdd(13, 5, 13)
		b.LdG(14, 13, 0)
		b.StS(12, 0, 14)
		b.Bar()
	}

	b.For(20, 21, func(b *kir.Builder) {
		// Index computation per pattern → R8 (word index).
		switch s.Pattern {
		case PatStream:
			b.IMad(8, 20, 23, 17).And(8, 8, 6)
		case PatRegion:
			// Hashed line within the warp's region: reuse without the
			// cyclic-LRU pathology a sequential sweep of an over-capacity
			// set produces (hit rate degrades gracefully as regions
			// overflow the L1 instead of collapsing to zero).
			b.IMulI(2, 20, 40503).
				Xor(2, 2, 18).
				ShrI(3, 2, 9).Xor(2, 2, 3).
				AndI(2, 2, int32(s.RegionWords/32-1)).
				ShlI(2, 2, 5).
				IAdd(2, 2, 22).
				IAdd(8, 18, 2).And(8, 8, 6)
		case PatRandLine:
			b.IMulI(2, 18, int32(-1640531535)).
				IMulI(3, 20, 40503).
				IAdd(2, 2, 3).
				ShrI(3, 2, 13).Xor(2, 2, 3).
				And(2, 2, 6).ShrI(2, 2, 5).ShlI(2, 2, 5).
				IAdd(8, 2, 22)
		case PatGather:
			b.IMulI(2, 17, int32(-1640531535)).
				IMulI(3, 20, 40503).
				Xor(2, 2, 3).
				ShrI(3, 2, 11).Xor(2, 2, 3).
				And(8, 2, 6)
		}
		b.ShlI(9, 8, 2).IAdd(9, 5, 9)
		for l := 0; l < k.Loads; l++ {
			b.LdG(10, 9, int32(l*128))
			b.IAdd(16, 16, 10)
		}
		for i := 0; i < k.ALU; i++ {
			b.IMad(16, 16, 10, 17)
		}
		if k.SmemWords > 0 {
			b.AndI(12, 16, int32(k.SmemWords-1)).ShlI(12, 12, 2)
			b.LdS(13, 12, 0)
			b.IAdd(16, 16, 13)
		}
		if k.ExtraLocalWords > 0 {
			for e := 0; e < k.ExtraLocalWords; e++ {
				b.StL(1, int32(e*4), 16)
			}
			b.LdL(2, 1, 0)
			b.IAdd(16, 16, 2)
		}
		if len(k.Calls) > 0 {
			doCall := func(b *kir.Builder) {
				for _, root := range k.Calls {
					b.Xor(4, 16, 17)
					if indirect != nil {
						b.Mov(7, 24) // function pointer for indirect dispatch
					}
					b.Call(root)
					b.IAdd(16, 16, 4)
				}
			}
			if k.CallEvery > 1 {
				// Call the chain only on every Nth iteration (N a power of
				// two, block-uniform): worst-case stack demand is still the
				// full chain, but the dynamic trap cost shrinks by N.
				b.AndI(2, 20, int32(k.CallEvery-1))
				b.SetPI(6, isa.CmpEQ, 2, 0)
				b.If(6, doCall, nil)
			} else {
				doCall(b)
			}
		}
		if k.BarrierEvery == 1 {
			b.Bar()
		} else if k.BarrierEvery > 1 {
			// Barrier every Nth iteration; the predicate is block-uniform
			// so every thread agrees.
			b.AndI(2, 20, int32(k.BarrierEvery-1))
			b.SetPI(6, isa.CmpEQ, 2, 0)
			b.If(6, func(b *kir.Builder) { b.Bar() }, nil)
		}
	})
	b.StG(19, 0, 16)
	b.Exit()
	return b.MustBuild()
}

// Device is the slice of the simulator's GPU surface Build needs; any
// *sim.GPU satisfies it (spec deliberately does not import the
// simulator, so the static half of the toolchain can lower specs
// without linking the dynamic half).
type Device interface {
	Alloc(words int) uint32
	Global() []uint32
}

// Build allocates and initialises device memory and returns the
// launches the spec performs plus the output region (address, words).
// The data array comes first, padded past the footprint and filled by
// Fill; the output region (one word per thread) follows. Every launch
// passes (out, data, footprintWords-1, iters) — the kernel's R4..R7.
func (s *Spec) Build(d Device) (launches []isa.Launch, out uint32, outWords int, err error) {
	words := s.FootprintWords
	if words == 0 {
		words = 1 << 10
	}
	// Pad past the footprint: multi-load iterations read up to
	// kernel.loads*32 words beyond a masked index, and the pad keeps
	// those reads on deterministic (read-only) data.
	data := d.Alloc(words + 32*(s.Kernel.Loads+1))
	Fill(d, data, words+32*(s.Kernel.Loads+1))
	out = d.Alloc(s.Grid * s.Block)
	outWords = s.Grid * s.Block
	n := s.Launches
	if n == 0 {
		n = 1
	}
	for i := 0; i < n; i++ {
		launches = append(launches, isa.Launch{
			Kernel:      s.KernelName(),
			Dim:         isa.Dim3{Grid: s.Grid, Block: s.Block},
			SharedBytes: s.Kernel.SmemWords * 4,
			Params:      []uint32{out, data, uint32(words - 1), uint32(s.Iters)},
		})
	}
	return launches, out, outWords, nil
}

// Fill initialises a global array with a deterministic xorshift32
// sequence (fixed seed 0x2545F491), each word mapped into [1, 65536],
// so every run of a workload sees the same nonzero data.
func Fill(d Device, addr uint32, words int) {
	glob := d.Global()
	x := uint32(0x2545F491)
	for i := 0; i < words; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		glob[addr/4+uint32(i)] = x&0xFFFF + 1
	}
}
