// Package san is the CARS shadow sanitizer: a sim.Monitor that keeps
// an independent shadow model of the architectural machine — per-lane
// register initialization bits, a mirrored register stack with its own
// RFP/RSP, per-frame spill-slot records, and the circular-stack spill
// window contents — and cross-checks every observed transition against
// it. Divergences surface as structured diagnostics:
//
//   - uninit-read:     a register (or renamed stack slot) is consumed
//     on a lane no path has written
//   - abi-clobber:     a callee returns with a caller-visible
//     callee-saved register changed, or writes outside its renamed
//     window
//   - stale-fill:      a spill fill reads memory the matching store
//     never wrote (wrong value, wrong slot, or never stored)
//   - spill-pair:      a fill restores a different register than its
//     frame's store saved at that offset
//   - stack-mismatch:  the architectural RFP/RSP disagree with the
//     shadow stack after a call, return, PUSH, or POP
//   - trap-divergence: the circular-stack trap spilled or filled slots
//     the shadow's own EnsureSpace/Ret did not predict
//   - call-underflow:  a return with no matching call frame
//
// The sanitizer also collects dynamic observations (per-function peak
// rename depth and spill traffic, per-kernel peak RSP and trap slot
// counts) that the differential harness (diff.go) checks against
// internal/vet's static bounds: every static bound must dominate what
// the machine actually did.
package san

import (
	"fmt"
	"sort"

	"carsgo/internal/cars"
	"carsgo/internal/isa"
	"carsgo/internal/sim"
)

// Kind classifies a sanitizer diagnostic.
type Kind string

const (
	KindUninitRead     Kind = "uninit-read"
	KindABIClobber     Kind = "abi-clobber"
	KindStaleFill      Kind = "stale-fill"
	KindSpillPair      Kind = "spill-pair"
	KindStackMismatch  Kind = "stack-mismatch"
	KindTrapDivergence Kind = "trap-divergence"
	KindCallUnderflow  Kind = "call-underflow"
	// KindSharedRace: two distinct threads touch the same shared-memory
	// word in the same barrier interval, at least one writing, and both
	// accesses are user (non-spill) traffic.
	KindSharedRace Kind = "shared-race"
	// KindSpillRace: as above but at least one access is ABI spill
	// traffic — user STS/LDS trespassing into spill frames (or a
	// spill-pointer bug making frames collide).
	KindSpillRace Kind = "spill-race"
	// KindBarrierDivergence: a warp arrives at BAR.SYNC with a partial
	// active mask, or warps of one block wait at different barriers.
	KindBarrierDivergence Kind = "barrier-divergence"
	// KindOccupancyDivergence: the simulator's block admit/retire events
	// are inconsistent with each other (resident-warp bookkeeping drift).
	KindOccupancyDivergence Kind = "occupancy-divergence"
)

// Diag is one deduplicated sanitizer finding: the first occurrence's
// message plus how many times the same (kind, function, pc) fired.
type Diag struct {
	Kind  Kind   `json:"kind"`
	Func  string `json:"func"`
	PC    int    `json:"pc"`
	Msg   string `json:"msg"`
	Count uint64 `json:"count"`
}

func (d Diag) String() string {
	s := fmt.Sprintf("%s: %s", d.Kind, d.Msg)
	if d.Count > 1 {
		s += fmt.Sprintf(" (x%d)", d.Count)
	}
	return s
}

// FuncObs is the dynamic per-function counterpart of vet.FuncReport.
type FuncObs struct {
	Func string `json:"func"`
	// Calls counts dynamic activations (warp-granular).
	Calls uint64 `json:"calls"`
	// MaxStackDepth is the peak renamed register count (RSP-RFP) any
	// activation reached; vet's FuncReport.MaxStackDepth must dominate.
	MaxStackDepth int `json:"maxStackDepth"`
	// MaxSpillBytes is the peak ABI spill-store traffic of a single
	// activation; vet's FuncReport.SpillBytes must dominate when finite.
	MaxSpillBytes int `json:"maxSpillBytes"`
	// MaxSpillStores/MaxSpillFills count spill-flagged instruction
	// executions in a single activation (callees excluded); vet's
	// FuncReport.Cost spill bounds must dominate when finite.
	MaxSpillStores int `json:"maxSpillStores"`
	MaxSpillFills  int `json:"maxSpillFills"`
	// MaxLocalBytes/MaxSharedBytes count architectural local/shared
	// traffic (4 bytes per executed access, spills included, trap
	// traffic excluded) in a single activation; vet's FuncReport.Cost
	// byte bounds must dominate when finite.
	MaxLocalBytes  int `json:"maxLocalBytes"`
	MaxSharedBytes int `json:"maxSharedBytes"`
}

// KernelObs is the dynamic per-kernel counterpart of vet.KernelReport.
type KernelObs struct {
	Kernel string `json:"kernel"`
	// MaxRSP is the highest absolute register-stack pointer any warp of
	// the kernel reached; vet's KernelReport.StackSlots must dominate.
	MaxRSP int `json:"maxRSP"`
	// TrapSpillSlots/TrapFillSlots count circular-stack trap traffic;
	// both must be zero when vet proves the trap unreachable.
	TrapSpillSlots uint64 `json:"trapSpillSlots"`
	TrapFillSlots  uint64 `json:"trapFillSlots"`
	// SharedRaces/SpillRaces/BarrierDivergences count dynamic race-
	// detector events; SharedRaces and BarrierDivergences must be zero
	// when vet reports the kernel RaceFree/BarrierSafe.
	SharedRaces        uint64 `json:"sharedRaces"`
	SpillRaces         uint64 `json:"spillRaces"`
	BarrierDivergences uint64 `json:"barrierDivergences"`
	// MaxWarp* are the largest per-warp cumulative traffic totals over
	// one kernel activation (all frames, trap traffic excluded); vet's
	// per-kernel interprocedural cost bounds must dominate when finite.
	MaxWarpSpillStores uint64 `json:"maxWarpSpillStores"`
	MaxWarpSpillFills  uint64 `json:"maxWarpSpillFills"`
	MaxWarpLocalBytes  uint64 `json:"maxWarpLocalBytes"`
	MaxWarpSharedBytes uint64 `json:"maxWarpSharedBytes"`
	// Spill-policy lattice accounting. SmemTxns totals bank-serialised
	// shared-memory transactions and RFCacheHits the spill accesses the
	// RF-cache window absorbed; both mirror the simulator's own
	// counters and must match them exactly on single-kernel launches.
	// The MaxWarp* pair are the largest per-warp cumulative totals over
	// one kernel activation: vet's per-backend transaction and
	// residual-spill-traffic bounds must dominate them when finite.
	SmemTxns              uint64 `json:"smemTxns"`
	RFCacheHits           uint64 `json:"rfCacheHits"`
	MaxWarpSmemTxns       uint64 `json:"maxWarpSmemTxns"`
	MaxWarpSmemSpillBytes uint64 `json:"maxWarpSmemSpillBytes"`
	// ResidentWarps is the warp occupancy a single SM reached during a
	// launch's opening admission wave (admissions before the first warp
	// exit), tracked independently from the simulator's own statistic;
	// vet's static occupancy model predicts it exactly.
	ResidentWarps int `json:"residentWarps"`
}

// Observations bundles everything the sanitizer measured, sorted by
// function name for deterministic output.
type Observations struct {
	Funcs   []FuncObs   `json:"funcs"`
	Kernels []KernelObs `json:"kernels"`
}

const (
	fullMask = ^uint32(0)
	// maxDiags bounds distinct findings so a badly broken program cannot
	// exhaust memory; repeats of known findings still count.
	maxDiags = 1024
)

type diagKey struct {
	kind Kind
	fn   int
	pc   int
}

// spillRec is one frame's record of an ABI spill store: which register
// was saved at a local/shared frame offset, with the stored lane values.
type spillRec struct {
	reg   uint8
	lanes uint32
	vals  [isa.WarpSize]uint32
}

// sanFrame shadows one activation record: the function running in it,
// its spill-slot contents, and the caller's callee-saved register
// snapshot taken at the call (compared on return).
type sanFrame struct {
	fn          int
	callPC      int
	spillBytes  int
	spillStores int
	spillFills  int
	localBytes  int
	sharedBytes int
	spills      map[int32]*spillRec
	// snap holds the caller's R16.. values at the call, bounded by the
	// caller's own RegsUsed (registers above that are not the caller's:
	// under per-launch allocation they may not even be in this warp's
	// arena).
	snap [][isa.WarpSize]uint32
	// savedInit holds the caller's initialization bits for the callee's
	// declared window R16..R16+CalleeSaved-1 (baseline/shared-spill):
	// the callee must write-before-read inside its window, so the bits
	// are cleared for the activation and restored on return.
	savedInit []uint32
}

// warpShadow is the shadow machine state of one warp.
type warpShadow struct {
	kernelFn int

	// shadow mirrors the warp's CARS register stack (CARS mode only).
	shadow cars.Stack

	// static holds per-lane initialization bits for raw (un-renamed)
	// architectural registers. R0..R15 are defined at warp start
	// (zeroed, then parameters); everything above starts uninitialized.
	static [isa.MaxArchRegs]uint32

	// slotInit holds per-lane initialization bits for renamed register-
	// stack slots, keyed by absolute slot index (PUSH clears the fresh
	// slots; trap spill/fill round-trips leave them untouched).
	slotInit map[int]uint32

	// spillMem records trap-spilled slot values by absolute slot, so
	// the matching fill can be checked for staleness.
	spillMem map[int]*[isa.WarpSize]uint32

	// expectSpill queues the absolute slots the shadow's EnsureSpace
	// predicts the trap will spill for the in-flight call.
	expectSpill []int

	// pendingFills buffers trap fill slots observed during a return
	// (they fire before the Return hook) for reconciliation against the
	// shadow's own Ret.
	pendingFills []int

	frames []*sanFrame

	// Cumulative traffic totals for this kernel activation (the dynamic
	// side of vet's interprocedural per-kernel cost bounds).
	spillStores uint64
	spillFills  uint64
	localBytes  uint64
	sharedBytes uint64
	// Per-activation lattice accounting: serialised shared-memory
	// transactions and spill shared bytes the RF cache did not absorb.
	smemTxns      uint64
	smemSpillByte uint64

	// blockID/wInBlock locate the warp within its block; startMask is
	// the launch-time active mask a convergent BAR.SYNC must present.
	blockID   int
	wInBlock  int
	startMask uint32
}

// Sanitizer implements sim.Monitor. Unit.Run attaches a fresh one to
// each GPU it runs (gpu.San = san.New(prog)); it is not safe for
// concurrent GPUs (use one per GPU).
type Sanitizer struct {
	prog *isa.Program

	warps   map[int]*warpShadow
	blocks  map[int]*blockShadow
	funcs   map[int]*FuncObs
	kernels map[int]*KernelObs
	diags   map[diagKey]*Diag

	framePool []*sanFrame

	// lastKernelFn attributes block admissions: BlockAdmit fires at the
	// end of admitBlock, after the block's WarpStart events.
	lastKernelFn int
	// admitted tracks live blocks (ID → SM and warp count) and resident
	// the per-SM resident-warp tally the admit/retire events imply, so
	// the hooks can be cross-checked for drift.
	admitted map[int]admitRec
	resident map[int]int
	// waveOpen mirrors the simulator's opening-admission-wave window:
	// it opens when a launch's first block is admitted (the admission
	// table is empty between launches) and closes at the first warp
	// exit. Only admissions inside the window update ResidentWarps.
	waveOpen bool
}

// admitRec remembers where a block was admitted and how many of its
// warps are still unfinished, for the exit/retire-side bookkeeping.
type admitRec struct {
	sm   int
	left int
}

var _ sim.Monitor = (*Sanitizer)(nil)

// New builds a sanitizer for one linked program.
func New(prog *isa.Program) *Sanitizer {
	return &Sanitizer{
		prog:         prog,
		warps:        make(map[int]*warpShadow),
		blocks:       make(map[int]*blockShadow),
		funcs:        make(map[int]*FuncObs),
		kernels:      make(map[int]*KernelObs),
		diags:        make(map[diagKey]*Diag),
		lastKernelFn: -1,
		admitted:     make(map[int]admitRec),
		resident:     make(map[int]int),
	}
}

// Diags returns the deduplicated findings sorted by (kind, func, pc).
func (s *Sanitizer) Diags() []Diag {
	out := make([]Diag, 0, len(s.diags))
	for _, d := range s.diags {
		out = append(out, *d)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		if out[i].Func != out[j].Func {
			return out[i].Func < out[j].Func
		}
		return out[i].PC < out[j].PC
	})
	return out
}

// Observations returns the dynamic measurements sorted by name.
func (s *Sanitizer) Observations() Observations {
	var obs Observations
	for _, f := range s.funcs {
		obs.Funcs = append(obs.Funcs, *f)
	}
	for _, k := range s.kernels {
		obs.Kernels = append(obs.Kernels, *k)
	}
	sort.Slice(obs.Funcs, func(i, j int) bool { return obs.Funcs[i].Func < obs.Funcs[j].Func })
	sort.Slice(obs.Kernels, func(i, j int) bool { return obs.Kernels[i].Kernel < obs.Kernels[j].Kernel })
	return obs
}

func (s *Sanitizer) funcName(fn int) string {
	if fn >= 0 && fn < len(s.prog.Funcs) {
		return s.prog.Funcs[fn].Name
	}
	return fmt.Sprintf("func#%d", fn)
}

func (s *Sanitizer) report(kind Kind, fn, pc int, format string, args ...any) {
	key := diagKey{kind, fn, pc}
	if d, ok := s.diags[key]; ok {
		d.Count++
		return
	}
	if len(s.diags) >= maxDiags {
		return
	}
	s.diags[key] = &Diag{
		Kind:  kind,
		Func:  s.funcName(fn),
		PC:    pc,
		Msg:   fmt.Sprintf(format, args...),
		Count: 1,
	}
}

func (s *Sanitizer) funcObs(fn int) *FuncObs {
	o := s.funcs[fn]
	if o == nil {
		o = &FuncObs{Func: s.funcName(fn)}
		s.funcs[fn] = o
	}
	return o
}

func (s *Sanitizer) kernelObs(fn int) *KernelObs {
	o := s.kernels[fn]
	if o == nil {
		o = &KernelObs{Kernel: s.funcName(fn)}
		s.kernels[fn] = o
	}
	return o
}

func (s *Sanitizer) newFrame(fn, callPC int) *sanFrame {
	var fr *sanFrame
	if n := len(s.framePool); n > 0 {
		fr = s.framePool[n-1]
		s.framePool = s.framePool[:n-1]
		for k := range fr.spills {
			delete(fr.spills, k)
		}
		fr.snap = fr.snap[:0]
		fr.savedInit = fr.savedInit[:0]
		fr.spillBytes = 0
		fr.spillStores, fr.spillFills = 0, 0
		fr.localBytes, fr.sharedBytes = 0, 0
	} else {
		fr = &sanFrame{spills: make(map[int32]*spillRec)}
	}
	fr.fn, fr.callPC = fn, callPC
	return fr
}

func (s *Sanitizer) freeFrame(fr *sanFrame) {
	if len(s.framePool) < 64 {
		s.framePool = append(s.framePool, fr)
	}
}

func (w *warpShadow) top() *sanFrame { return w.frames[len(w.frames)-1] }

// WarpStart resets the warp's shadow to the fresh architectural state:
// R0..R15 defined on all lanes (zeroed registers plus parameters), an
// empty register stack, and a base frame attributing kernel-level
// spills to the kernel function.
func (s *Sanitizer) WarpStart(gwid, blockID, wInBlock, fn, stackSlots int, active uint32) {
	w := s.warps[gwid]
	if w == nil {
		w = &warpShadow{
			slotInit: make(map[int]uint32),
			spillMem: make(map[int]*[isa.WarpSize]uint32),
		}
		s.warps[gwid] = w
	} else {
		for k := range w.slotInit {
			delete(w.slotInit, k)
		}
		for k := range w.spillMem {
			delete(w.spillMem, k)
		}
		w.expectSpill = w.expectSpill[:0]
		w.pendingFills = w.pendingFills[:0]
		for _, fr := range w.frames {
			s.freeFrame(fr)
		}
		w.frames = w.frames[:0]
	}
	w.kernelFn = fn
	s.lastKernelFn = fn
	w.spillStores, w.spillFills = 0, 0
	w.localBytes, w.sharedBytes = 0, 0
	w.smemTxns, w.smemSpillByte = 0, 0
	w.blockID, w.wInBlock, w.startMask = blockID, wInBlock, active
	if wInBlock == 0 {
		// Warp 0 of a block is always initialized first: a fresh (or
		// reused) block slot starts a new shared-memory epoch.
		s.resetBlock(blockID)
	}
	w.shadow.Reset(stackSlots)
	for r := 0; r < isa.MaxArchRegs; r++ {
		if r < isa.FirstCalleeSaved {
			w.static[r] = fullMask
		} else {
			w.static[r] = 0
		}
	}
	w.frames = append(w.frames, s.newFrame(fn, -1))
	s.kernelObs(fn)
	s.funcObs(fn).Calls++
}

// renamed reports whether register r resolves through the warp's
// register-stack window, and to which absolute slot.
func (w *warpShadow) renamed(r uint8) (abs int, ok, outside bool) {
	if int(r) < isa.FirstCalleeSaved || w.shadow.Depth() == 0 {
		return 0, false, false
	}
	k := int(r) - isa.FirstCalleeSaved
	if k >= w.shadow.RenameLen() {
		// Inside a device function every callee-saved access must land
		// in the frame's renamed window; falling through to the raw
		// register would touch another activation's state.
		return 0, false, true
	}
	return w.shadow.RFP + k, true, false
}

// RegRead checks per-lane initialization for a consumed register.
func (s *Sanitizer) RegRead(gwid, fn, pc int, op isa.Op, r uint8, lanes uint32) {
	w := s.warps[gwid]
	if w == nil || lanes == 0 {
		return
	}
	if abs, ok, outside := w.renamed(r); outside {
		s.report(KindUninitRead, fn, pc,
			"%s reads R%d outside the frame's renamed window (%d register(s) pushed)",
			op, r, w.shadow.RenameLen())
		return
	} else if ok {
		if missing := lanes &^ w.slotInit[abs]; missing != 0 {
			s.report(KindUninitRead, fn, pc,
				"%s reads R%d before any write in this frame (lanes %#08x)", op, r, missing)
		}
		return
	}
	if missing := lanes &^ w.static[r]; missing != 0 {
		s.report(KindUninitRead, fn, pc,
			"%s reads R%d before any write (lanes %#08x)", op, r, missing)
	}
}

// RegWrite marks lanes initialized (and flags out-of-window writes).
func (s *Sanitizer) RegWrite(gwid, fn, pc int, r uint8, lanes uint32) {
	w := s.warps[gwid]
	if w == nil || lanes == 0 {
		return
	}
	if abs, ok, outside := w.renamed(r); outside {
		s.report(KindABIClobber, fn, pc,
			"write to R%d outside the frame's renamed window (%d register(s) pushed): clobbers caller state",
			r, w.shadow.RenameLen())
		w.static[r] |= lanes // keep modeling so one bug does not cascade
		return
	} else if ok {
		w.slotInit[abs] |= lanes
		return
	}
	// Without renaming, a device function writing above its declared
	// window physically clobbers its caller's register.
	if !s.prog.CARS && int(r) >= isa.FirstCalleeSaved && fn >= 0 && fn < len(s.prog.Funcs) {
		if f := s.prog.Funcs[fn]; !f.IsKernel && int(r) >= isa.FirstCalleeSaved+f.CalleeSaved {
			s.report(KindABIClobber, fn, pc,
				"write to R%d outside the function's declared callee-saved window (callee_saved=%d)",
				r, f.CalleeSaved)
		}
	}
	w.static[r] |= lanes
}

// CallBegin snapshots the caller-visible callee-saved registers, opens
// the callee's shadow frame, and (under CARS) predicts the trap spills
// the free-register check will inject.
func (s *Sanitizer) CallBegin(gwid, fn, pc, callee, fru int, regs sim.RegVals) {
	w := s.warps[gwid]
	if w == nil {
		return
	}
	s.funcObs(callee).Calls++
	fr := s.newFrame(callee, pc)
	// Snapshot only the caller's own callee-saved registers: the warp's
	// register allocation is sized to the launched kernel's call graph,
	// so anything above the caller's RegsUsed is not caller state.
	hi := isa.FirstCalleeSaved
	if fn >= 0 && fn < len(s.prog.Funcs) && s.prog.Funcs[fn].RegsUsed > hi {
		hi = s.prog.Funcs[fn].RegsUsed
	}
	for r := isa.FirstCalleeSaved; r < hi; r++ {
		fr.snap = append(fr.snap, *regs(uint8(r)))
	}
	if !s.prog.CARS && callee >= 0 && callee < len(s.prog.Funcs) {
		// The callee owns R16..R16+CalleeSaved-1 for this activation and
		// must write each before reading it (the ABI rule that makes
		// CARS renaming transparent): clear the window's initialization
		// bits and restore the caller's view on return.
		for k := 0; k < s.prog.Funcs[callee].CalleeSaved; k++ {
			r := isa.FirstCalleeSaved + k
			if r >= isa.MaxArchRegs {
				break
			}
			fr.savedInit = append(fr.savedInit, w.static[r])
			w.static[r] = 0
		}
	}
	if s.prog.CARS {
		ops, err := w.shadow.EnsureSpace(fru)
		if err != nil {
			s.report(KindStackMismatch, fn, pc, "shadow free-register check failed: %v", err)
		}
		for _, op := range ops {
			for i := 0; i < op.Count; i++ {
				w.expectSpill = append(w.expectSpill, op.StartSlot+i)
			}
		}
	}
	w.frames = append(w.frames, fr)
}

// CallEnd advances the shadow stack past the call and checks the
// architectural RFP/RSP against it.
func (s *Sanitizer) CallEnd(gwid, rfp, rsp int) {
	w := s.warps[gwid]
	if w == nil || !s.prog.CARS {
		return
	}
	fr := w.top()
	if n := len(w.expectSpill); n > 0 {
		s.report(KindTrapDivergence, fr.fn, fr.callPC,
			"call expected %d more trap spill slot(s) that never happened", n)
		w.expectSpill = w.expectSpill[:0]
	}
	w.shadow.Call()
	w.slotInit[w.shadow.RSP-1] = fullMask // the saved-RFP slot
	if rfp != w.shadow.RFP || rsp != w.shadow.RSP {
		s.report(KindStackMismatch, fr.fn, fr.callPC,
			"after call: architectural RFP/RSP %d/%d, shadow %d/%d", rfp, rsp, w.shadow.RFP, w.shadow.RSP)
	}
	ko := s.kernelObs(w.kernelFn)
	if rsp > ko.MaxRSP {
		ko.MaxRSP = rsp
	}
}

// Return checks the callee against its activation record: the caller's
// callee-saved registers must be intact, the shadow stack must rewind
// to the same RFP/RSP, and any trap fills must match the shadow's
// prediction.
func (s *Sanitizer) Return(gwid, fn, pc, rfp, rsp int, regs sim.RegVals) {
	w := s.warps[gwid]
	if w == nil {
		return
	}
	if len(w.frames) <= 1 {
		s.report(KindCallUnderflow, fn, pc, "return with no open call frame")
		w.pendingFills = w.pendingFills[:0]
		return
	}
	fr := w.top()
	w.frames = w.frames[:len(w.frames)-1]
	if fr.fn != fn {
		s.report(KindCallUnderflow, fn, pc,
			"return from %s but the innermost activation is %s", s.funcName(fn), s.funcName(fr.fn))
	}
	if s.prog.CARS {
		fill, err := w.shadow.Ret()
		if err != nil {
			s.report(KindStackMismatch, fn, pc, "shadow return failed: %v", err)
		}
		var expect []int
		if fill != nil {
			for i := 0; i < fill.Count; i++ {
				expect = append(expect, fill.StartSlot+i)
			}
		}
		if !equalInts(w.pendingFills, expect) {
			s.report(KindTrapDivergence, fn, pc,
				"return filled trap slots %v, shadow predicted %v", w.pendingFills, expect)
		}
		w.pendingFills = w.pendingFills[:0]
		if rfp != w.shadow.RFP || rsp != w.shadow.RSP {
			s.report(KindStackMismatch, fn, pc,
				"after return: architectural RFP/RSP %d/%d, shadow %d/%d", rfp, rsp, w.shadow.RFP, w.shadow.RSP)
		}
	}
	for i, snap := range fr.snap {
		r := isa.FirstCalleeSaved + i
		cur := regs(uint8(r))
		if *cur != snap {
			lanes := uint32(0)
			for l := 0; l < isa.WarpSize; l++ {
				if cur[l] != snap[l] {
					lanes |= 1 << l
				}
			}
			s.report(KindABIClobber, fn, pc,
				"callee-saved R%d changed across the call (lanes %#08x)", r, lanes)
		}
	}
	for k, bits := range fr.savedInit {
		w.static[isa.FirstCalleeSaved+k] = bits
	}
	s.freeFrame(fr)
}

// StackPush mirrors the PUSH micro-op: fresh renamed slots start
// uninitialized, and the architectural pointers must track the shadow.
func (s *Sanitizer) StackPush(gwid, fn, pc, n, rfp, rsp int) {
	w := s.warps[gwid]
	if w == nil || !s.prog.CARS {
		return
	}
	old := w.shadow.RSP
	if err := w.shadow.Push(n); err != nil {
		s.report(KindStackMismatch, fn, pc, "shadow PUSH failed: %v", err)
		return
	}
	for abs := old; abs < w.shadow.RSP; abs++ {
		delete(w.slotInit, abs)
	}
	if rfp != w.shadow.RFP || rsp != w.shadow.RSP {
		s.report(KindStackMismatch, fn, pc,
			"after PUSH %d: architectural RFP/RSP %d/%d, shadow %d/%d", n, rfp, rsp, w.shadow.RFP, w.shadow.RSP)
	}
	o := s.funcObs(fn)
	if depth := rsp - rfp; depth > o.MaxStackDepth {
		o.MaxStackDepth = depth
	}
	ko := s.kernelObs(w.kernelFn)
	if rsp > ko.MaxRSP {
		ko.MaxRSP = rsp
	}
}

// StackPop mirrors the POP micro-op.
func (s *Sanitizer) StackPop(gwid, fn, pc, n, rfp, rsp int) {
	w := s.warps[gwid]
	if w == nil || !s.prog.CARS {
		return
	}
	if err := w.shadow.Pop(n); err != nil {
		s.report(KindStackMismatch, fn, pc, "shadow POP failed: %v", err)
		return
	}
	if rfp != w.shadow.RFP || rsp != w.shadow.RSP {
		s.report(KindStackMismatch, fn, pc,
			"after POP %d: architectural RFP/RSP %d/%d, shadow %d/%d", n, rfp, rsp, w.shadow.RFP, w.shadow.RSP)
	}
}

// SpillStore records an ABI spill store in the current activation's
// frame and charges its traffic to the function's dynamic spill bound.
func (s *Sanitizer) SpillStore(gwid, fn, pc int, r uint8, off int32, lanes uint32, vals *[isa.WarpSize]uint32) {
	w := s.warps[gwid]
	if w == nil {
		return
	}
	fr := w.top()
	fr.spillBytes += 4
	o := s.funcObs(fr.fn)
	if fr.spillBytes > o.MaxSpillBytes {
		o.MaxSpillBytes = fr.spillBytes
	}
	fr.spillStores++
	if fr.spillStores > o.MaxSpillStores {
		o.MaxSpillStores = fr.spillStores
	}
	w.spillStores++
	if ko := s.kernelObs(w.kernelFn); w.spillStores > ko.MaxWarpSpillStores {
		ko.MaxWarpSpillStores = w.spillStores
	}
	rec := fr.spills[off]
	if rec == nil || rec.reg != r {
		rec = &spillRec{reg: r}
		fr.spills[off] = rec
	}
	rec.lanes |= lanes
	for l := 0; l < isa.WarpSize; l++ {
		if lanes&(1<<l) != 0 {
			rec.vals[l] = vals[l]
		}
	}
}

// SpillFill checks an ABI spill fill against the frame's store record:
// same offset, same register, same lane values.
func (s *Sanitizer) SpillFill(gwid, fn, pc int, r uint8, off int32, lanes uint32, vals *[isa.WarpSize]uint32) {
	w := s.warps[gwid]
	if w == nil {
		return
	}
	fr := w.top()
	fr.spillFills++
	if o := s.funcObs(fr.fn); fr.spillFills > o.MaxSpillFills {
		o.MaxSpillFills = fr.spillFills
	}
	w.spillFills++
	if ko := s.kernelObs(w.kernelFn); w.spillFills > ko.MaxWarpSpillFills {
		ko.MaxWarpSpillFills = w.spillFills
	}
	rec := fr.spills[off]
	if rec == nil {
		s.report(KindStaleFill, fn, pc,
			"fill of R%d from frame offset %d that this activation never stored", r, off)
		return
	}
	if rec.reg != r {
		s.report(KindSpillPair, fn, pc,
			"frame offset %d stored R%d but fills R%d", off, rec.reg, r)
	}
	if stale := lanes &^ rec.lanes; stale != 0 {
		s.report(KindStaleFill, fn, pc,
			"fill of R%d reads lanes %#08x the matching store never wrote", r, stale)
	}
	var bad uint32
	for l := 0; l < isa.WarpSize; l++ {
		if lanes&rec.lanes&(1<<l) != 0 && vals[l] != rec.vals[l] {
			bad |= 1 << l
		}
	}
	if bad != 0 {
		s.report(KindStaleFill, fn, pc,
			"fill of R%d from frame offset %d returns values the store did not write (lanes %#08x)", r, off, bad)
	}
}

// TrapSlot checks one circular-stack trap transfer: spills must follow
// the shadow's EnsureSpace prediction and record the slot's values;
// fills must return exactly what was spilled.
func (s *Sanitizer) TrapSlot(gwid int, fill bool, abs int, vals *[isa.WarpSize]uint32) {
	w := s.warps[gwid]
	if w == nil {
		return
	}
	ko := s.kernelObs(w.kernelFn)
	fr := w.top()
	if fill {
		ko.TrapFillSlots++
		if rec := w.spillMem[abs]; rec == nil {
			s.report(KindStaleFill, fr.fn, -1,
				"trap fill of absolute slot %d that was never spilled", abs)
		} else {
			if *rec != *vals {
				s.report(KindStaleFill, fr.fn, -1,
					"trap fill of absolute slot %d returns values the spill did not write", abs)
			}
			delete(w.spillMem, abs)
		}
		w.pendingFills = append(w.pendingFills, abs)
		return
	}
	ko.TrapSpillSlots++
	if len(w.expectSpill) == 0 || w.expectSpill[0] != abs {
		s.report(KindTrapDivergence, fr.fn, fr.callPC,
			"trap spilled absolute slot %d, shadow predicted %v", abs, headInts(w.expectSpill))
	} else {
		w.expectSpill = w.expectSpill[1:]
	}
	cp := *vals
	w.spillMem[abs] = &cp
}

// LocalAccess charges one architectural local access (4 bytes) to the
// current activation and to the warp's kernel total. Spill-flagged
// accesses are already counted by SpillStore/SpillFill; here they only
// contribute bytes, matching vet's localBytes bound.
func (s *Sanitizer) LocalAccess(gwid, fn, pc int, store, spill bool, lanes uint32) {
	w := s.warps[gwid]
	if w == nil {
		return
	}
	fr := w.top()
	fr.localBytes += 4
	if o := s.funcObs(fr.fn); fr.localBytes > o.MaxLocalBytes {
		o.MaxLocalBytes = fr.localBytes
	}
	w.localBytes += 4
	if ko := s.kernelObs(w.kernelFn); w.localBytes > ko.MaxWarpLocalBytes {
		ko.MaxWarpLocalBytes = w.localBytes
	}
}

// SharedTxn accumulates one shared access's bank-serialisation and
// RF-cache-absorption accounting: the dynamic side of vet's
// per-backend transaction and residual-spill-traffic bounds.
func (s *Sanitizer) SharedTxn(gwid, blockID int, store, spill bool, txns int, absorbed bool) {
	w := s.warps[gwid]
	if w == nil {
		return
	}
	ko := s.kernelObs(w.kernelFn)
	ko.SmemTxns += uint64(txns)
	if absorbed {
		ko.RFCacheHits++
	}
	w.smemTxns += uint64(txns)
	if w.smemTxns > ko.MaxWarpSmemTxns {
		ko.MaxWarpSmemTxns = w.smemTxns
	}
	if spill && !absorbed {
		w.smemSpillByte += 4
		if w.smemSpillByte > ko.MaxWarpSmemSpillBytes {
			ko.MaxWarpSmemSpillBytes = w.smemSpillByte
		}
	}
}

// BlockAdmit records a block admission, cross-checks the simulator's
// resident-warp count against the tally the admit/exit/retire stream
// implies, and tracks the per-kernel peak residency.
func (s *Sanitizer) BlockAdmit(sm, blockID, levelIdx, regsPerWarp, warps, resident int) {
	if len(s.admitted) == 0 {
		// A fresh launch: the SMs drained completely, so the admissions
		// until the first warp exit form the opening wave whose
		// residency is the launch's occupancy figure.
		s.waveOpen = true
	}
	if want := s.resident[sm] + warps; want != resident {
		s.report(KindOccupancyDivergence, s.lastKernelFn, -1,
			"SM %d admits block %d: simulator reports %d resident warps, admit/exit/retire stream implies %d",
			sm, blockID, resident, want)
	}
	s.resident[sm] = resident
	s.admitted[blockID] = admitRec{sm: sm, left: warps}
	if s.waveOpen && s.lastKernelFn >= 0 {
		if ko := s.kernelObs(s.lastKernelFn); resident > ko.ResidentWarps {
			ko.ResidentWarps = resident
		}
	}
}

// WarpExit removes a finished warp from the resident-warp tally (its
// registers are released immediately, ahead of the block retiring).
func (s *Sanitizer) WarpExit(gwid int) {
	s.waveOpen = false
	w := s.warps[gwid]
	if w == nil {
		return
	}
	rec, ok := s.admitted[w.blockID]
	if !ok {
		s.report(KindOccupancyDivergence, w.kernelFn, -1,
			"warp %d exits in block %d which was never admitted", gwid, w.blockID)
		return
	}
	if rec.left <= 0 {
		s.report(KindOccupancyDivergence, w.kernelFn, -1,
			"warp %d exits in block %d after every admitted warp already exited", gwid, w.blockID)
		return
	}
	rec.left--
	s.admitted[w.blockID] = rec
	s.resident[rec.sm]--
}

// BlockRetire validates that a retiring block's warps all exited and
// drops it from the admission table.
func (s *Sanitizer) BlockRetire(sm, blockID int) {
	rec, ok := s.admitted[blockID]
	if !ok {
		s.report(KindOccupancyDivergence, s.lastKernelFn, -1,
			"SM %d retires block %d that was never admitted", sm, blockID)
		return
	}
	if rec.sm != sm {
		s.report(KindOccupancyDivergence, s.lastKernelFn, -1,
			"block %d admitted on SM %d but retired on SM %d", blockID, rec.sm, sm)
	}
	if rec.left != 0 {
		s.report(KindOccupancyDivergence, s.lastKernelFn, -1,
			"block %d retires with %d unfinished warp(s)", blockID, rec.left)
		s.resident[rec.sm] -= rec.left
	}
	delete(s.admitted, blockID)
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// headInts renders the front of a slot queue for a message.
func headInts(s []int) []int {
	if len(s) > 4 {
		return s[:4]
	}
	return s
}
