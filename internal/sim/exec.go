package sim

import (
	"math"
	"math/bits"

	"carsgo/internal/isa"
	"carsgo/internal/mem"
	"carsgo/internal/simt"
	"carsgo/internal/stats"
)

func categorize(in *isa.Instruction) stats.InstrCat {
	switch {
	case in.Spill:
		return stats.CatSpillFill
	case in.Op.IsCARSOp():
		return stats.CatCARSOp
	case in.Op.IsSFU():
		return stats.CatSFU
	case in.Op.IsLocal():
		return stats.CatLocalOther
	case in.Op.IsGlobal():
		return stats.CatGlobal
	case in.Op == isa.OpLdS || in.Op == isa.OpStS:
		return stats.CatShared
	case in.Op.IsControl() || in.Op == isa.OpBar:
		return stats.CatControl
	case in.Op == isa.OpNop:
		return stats.CatOther
	default:
		return stats.CatALU
	}
}

// execute runs one issued instruction: functional effects immediately,
// timing effects through the scoreboard, LSU, and SIMT stack.
func (s *SM) execute(now int64, w *Warp, in *isa.Instruction) {
	cfg := &s.gpu.Cfg
	st := s.stats()
	top := w.SIMT.Top()
	pc := top.PC
	active := top.Mask

	guard := active
	if in.Op != isa.OpSel { // Sel's predicate selects, it does not guard
		guard = active & w.predMask(in)
	}

	cat := categorize(in)
	st.Instructions[cat]++
	st.ThreadInstructions += uint64(bits.OnesCount32(guard))
	if s.gpu.Trace != nil {
		s.gpu.Trace.OnIssue(s.id, w.GWID, top.Func, pc, in.Op, guard)
	}
	mon := s.gpu.San
	if mon != nil {
		s.monReads(mon, w, in, top.Func, pc, guard)
	}

	// Register-file energy: one 128B access per operand.
	nsrc := 0
	if in.SrcA != isa.NoReg {
		nsrc++
	}
	if in.SrcB != isa.NoReg {
		nsrc++
	}
	if in.SrcC != isa.NoReg {
		nsrc++
	}
	st.RFReads += uint64(nsrc)
	if in.Dst != isa.NoReg {
		st.RFWrites++
	}

	aluDone := now + cfg.ALULat
	if cfg.RFBanks > 1 {
		aluDone += int64(s.bankConflicts(w, in, cfg.RFBanks))
	}
	// The paper's extra issue/operand-collector pipeline cycle (§IV-C)
	// gates the register-stack bookkeeping on calls and returns; plain
	// control flow is untouched, preserving the "without harming
	// function-free programs" property.
	ctrlExtra := int64(0)
	if cfg.CARSEnabled {
		ctrlExtra = cfg.CARSIssueExtra
	}

	switch in.Op {
	case isa.OpNop:
		w.SIMT.Advance()

	case isa.OpIAdd, isa.OpISub, isa.OpIMul, isa.OpIMad, isa.OpIMin,
		isa.OpIMax, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr,
		isa.OpMov, isa.OpMovI, isa.OpFAdd, isa.OpFMul, isa.OpFFma:
		s.execALU(w, in, guard)
		w.ReadyAt[in.Dst] = aluDone
		w.SIMT.Advance()

	case isa.OpFRcp, isa.OpFSqr:
		s.execALU(w, in, guard)
		w.ReadyAt[in.Dst] = now + cfg.SFULat
		w.SIMT.Advance()

	case isa.OpSel:
		dst, a, b := w.reg(in.Dst), w.reg(in.SrcA), w.reg(in.SrcB)
		sel := w.Preds[in.Pred]
		if in.PNeg {
			sel = ^sel
		}
		for l := 0; l < isa.WarpSize; l++ {
			if guard&(1<<l) == 0 {
				continue
			}
			if sel&(1<<l) != 0 {
				dst[l] = a[l]
			} else {
				dst[l] = b[l]
			}
		}
		w.ReadyAt[in.Dst] = aluDone
		w.SIMT.Advance()

	case isa.OpSetP:
		a := w.reg(in.SrcA)
		var res uint32
		for l := 0; l < isa.WarpSize; l++ {
			if guard&(1<<l) == 0 {
				continue
			}
			bv := uint32(in.Imm)
			if in.SrcB != isa.NoReg {
				bv = w.reg(in.SrcB)[l]
			}
			if in.Cmp.Eval(a[l], bv) {
				res |= 1 << l
			}
		}
		w.Preds[in.PDst] = (w.Preds[in.PDst] &^ guard) | res
		w.PredReadyAt[in.PDst] = aluDone
		w.SIMT.Advance()

	case isa.OpS2R:
		dst := w.reg(in.Dst)
		for l := 0; l < isa.WarpSize; l++ {
			if guard&(1<<l) == 0 {
				continue
			}
			dst[l] = s.specialValue(w, in.Sreg, l)
		}
		w.ReadyAt[in.Dst] = aluDone
		w.SIMT.Advance()

	case isa.OpLdG, isa.OpStG:
		s.execGlobal(w, in, guard)
		w.SIMT.Advance()

	case isa.OpLdL, isa.OpStL:
		s.execLocal(w, in, guard)
		if mon != nil {
			mon.LocalAccess(w.GWID, top.Func, pc, in.Op == isa.OpStL, in.Spill, guard)
		}
		if mon != nil && in.Spill {
			if in.Op == isa.OpStL {
				mon.SpillStore(w.GWID, top.Func, pc, in.SrcC, in.Imm, guard, w.reg(in.SrcC))
			} else {
				mon.SpillFill(w.GWID, top.Func, pc, in.Dst, in.Imm, guard, w.reg(in.Dst))
			}
		}
		w.SIMT.Advance()

	case isa.OpLdS, isa.OpStS:
		if mon != nil {
			// Before execShared: a load's destination may alias its
			// address register, so the addresses must be read first.
			mon.SharedAccess(w.GWID, w.Block.ID, top.Func, pc,
				in.Op == isa.OpStS, in.Spill, guard, w.reg(in.SrcA), in.Imm)
		}
		s.execShared(now, w, in, guard)
		if mon != nil && in.Spill {
			if in.Op == isa.OpStS {
				mon.SpillStore(w.GWID, top.Func, pc, in.SrcC, in.Imm, guard, w.reg(in.SrcC))
			} else {
				mon.SpillFill(w.GWID, top.Func, pc, in.Dst, in.Imm, guard, w.reg(in.Dst))
			}
		}
		w.SIMT.Advance()

	case isa.OpBra:
		w.SIMT.Branch(pc, guard, in.Target, in.Target2)
		s.wake[w.Slot] = now + 1

	case isa.OpCall:
		st.Calls++
		if mon != nil {
			// Before the rename: regs still resolves the caller's window.
			mon.CallBegin(w.GWID, top.Func, pc, in.Callee, in.FRU, w.reg)
		}
		if cfg.CARSEnabled {
			s.carsCall(now, w, in.FRU)
		}
		w.SIMT.Call(in.Callee, pc+1)
		if mon != nil {
			mon.CallEnd(w.GWID, w.CStack.RFP, w.CStack.RSP)
		}
		w.DynCallDepth++
		if w.DynCallDepth > st.MaxCallDepth {
			st.MaxCallDepth = w.DynCallDepth
		}
		s.wake[w.Slot] = now + 2 + ctrlExtra

	case isa.OpCallI:
		st.Calls++
		target := s.indirectTarget(w, in, guard)
		if mon != nil {
			mon.CallBegin(w.GWID, top.Func, pc, target, in.FRU, w.reg)
		}
		if cfg.CARSEnabled {
			s.carsCall(now, w, in.FRU)
		}
		w.SIMT.Call(target, pc+1)
		if mon != nil {
			mon.CallEnd(w.GWID, w.CStack.RFP, w.CStack.RSP)
		}
		w.DynCallDepth++
		if w.DynCallDepth > st.MaxCallDepth {
			st.MaxCallDepth = w.DynCallDepth
		}
		s.wake[w.Slot] = now + 2 + ctrlExtra

	case isa.OpRet:
		released := w.SIMT.Ret()
		if released {
			w.DynCallDepth--
			if cfg.CARSEnabled {
				s.carsRet(now, w)
			}
			if mon != nil {
				mon.Return(w.GWID, top.Func, pc, w.CStack.RFP, w.CStack.RSP, w.reg)
			}
		}
		s.wake[w.Slot] = now + 2 + ctrlExtra

	case isa.OpPushRFP:
		// Timing-only: the register-stack pointer updates are performed
		// with the matching CALL; the micro-op costs an issue slot.
		w.SIMT.Advance()

	case isa.OpPush:
		// Under register windows the whole window was renamed at the
		// call; the micro-op costs its issue slot only.
		if !cfg.WindowedStacks {
			if err := w.CStack.Push(int(in.Imm)); err != nil {
				s.execFault(w, "%v", err)
			}
			if mon != nil {
				mon.StackPush(w.GWID, top.Func, pc, int(in.Imm), w.CStack.RFP, w.CStack.RSP)
			}
		}
		w.SIMT.Advance()

	case isa.OpPop:
		if !cfg.WindowedStacks {
			if err := w.CStack.Pop(int(in.Imm)); err != nil {
				s.execFault(w, "%v", err)
			}
			if mon != nil {
				mon.StackPop(w.GWID, top.Func, pc, int(in.Imm), w.CStack.RFP, w.CStack.RSP)
			}
		}
		w.SIMT.Advance()

	case isa.OpBar:
		if mon != nil {
			mon.Barrier(w.GWID, w.Block.ID, top.Func, pc, guard)
		}
		s.execBarrier(now, w, mon)

	case isa.OpExit:
		s.execExit(now, w, mon)

	default:
		s.execFault(w, "unimplemented op %s", in.Op)
	}

	if mon != nil && in.WritesReg() {
		mon.RegWrite(w.GWID, top.Func, pc, in.Dst, guard)
	}
}

// lanes is one register's value in each of a warp's lanes.
type lanes = [isa.WarpSize]uint32

// zeroLanes is the value a missing A or C operand reads.
var zeroLanes lanes

// execALU evaluates an ALU or SFU instruction for the whole warp: one
// dispatch on the opcode, then the guarded lanes take the result. A
// missing A or C operand reads 0 and a missing B reads the immediate.
func (s *SM) execALU(w *Warp, in *isa.Instruction, guard uint32) {
	imm := uint32(in.Imm)
	a, c := &zeroLanes, &zeroLanes
	if in.SrcA != isa.NoReg {
		a = w.reg(in.SrcA)
	}
	if in.SrcC != isa.NoReg {
		c = w.reg(in.SrcC)
	}
	var b *lanes
	var immB lanes
	if in.SrcB != isa.NoReg {
		b = w.reg(in.SrcB)
	} else {
		for l := range immB {
			immB[l] = imm
		}
		b = &immB
	}
	dst := w.reg(in.Dst)
	// Each lane reads only its own operands before writing its result,
	// so a full guard can evaluate straight into dst even when dst is
	// also a source.
	if guard == simt.FullMask {
		if !aluLanes(in.Op, dst, a, b, c, imm) {
			s.execFault(w, "op %s reached the ALU without an evaluation rule", in.Op)
		}
		return
	}
	var r lanes
	if !aluLanes(in.Op, &r, a, b, c, imm) {
		s.execFault(w, "op %s reached the ALU without an evaluation rule", in.Op)
	}
	mergeLanes(dst, &r, guard)
}

// aluLanes sets r[l] = op(a[l], b[l], c[l]) for every lane, reporting
// false for an op without an evaluation rule.
func aluLanes(op isa.Op, r, a, b, c *lanes, imm uint32) bool {
	switch op {
	case isa.OpIAdd:
		for l := range r {
			r[l] = a[l] + b[l]
		}
	case isa.OpISub:
		for l := range r {
			r[l] = a[l] - b[l]
		}
	case isa.OpIMul:
		for l := range r {
			r[l] = a[l] * b[l]
		}
	case isa.OpIMad:
		for l := range r {
			r[l] = a[l]*b[l] + c[l]
		}
	case isa.OpIMin:
		for l := range r {
			r[l] = uint32(min(int32(a[l]), int32(b[l])))
		}
	case isa.OpIMax:
		for l := range r {
			r[l] = uint32(max(int32(a[l]), int32(b[l])))
		}
	case isa.OpAnd:
		for l := range r {
			r[l] = a[l] & b[l]
		}
	case isa.OpOr:
		for l := range r {
			r[l] = a[l] | b[l]
		}
	case isa.OpXor:
		for l := range r {
			r[l] = a[l] ^ b[l]
		}
	case isa.OpShl:
		for l := range r {
			r[l] = a[l] << (b[l] & 31)
		}
	case isa.OpShr:
		for l := range r {
			r[l] = a[l] >> (b[l] & 31)
		}
	case isa.OpMov:
		for l := range r {
			r[l] = a[l]
		}
	case isa.OpMovI:
		for l := range r {
			r[l] = imm
		}
	case isa.OpFAdd:
		for l := range r {
			r[l] = f2u(u2f(a[l]) + u2f(b[l]))
		}
	case isa.OpFMul:
		for l := range r {
			r[l] = f2u(u2f(a[l]) * u2f(b[l]))
		}
	case isa.OpFFma:
		for l := range r {
			r[l] = f2u(u2f(a[l])*u2f(b[l]) + u2f(c[l]))
		}
	case isa.OpFRcp:
		for l := range r {
			r[l] = f2u(1 / u2f(a[l]))
		}
	case isa.OpFSqr:
		for l := range r {
			r[l] = f2u(float32(math.Sqrt(float64(u2f(a[l])))))
		}
	default:
		return false
	}
	return true
}

func u2f(x uint32) float32 { return math.Float32frombits(x) }
func f2u(x float32) uint32 { return math.Float32bits(x) }

func (s *SM) specialValue(w *Warp, sr isa.Special, lane int) uint32 {
	switch sr {
	case isa.SrLaneID:
		return uint32(lane)
	case isa.SrTID:
		return uint32(w.WInBlock*isa.WarpSize + lane)
	case isa.SrCTAID:
		return uint32(w.Block.ID)
	case isa.SrNTID:
		return uint32(w.Block.ThreadsCnt)
	case isa.SrNCTAID:
		return uint32(s.gpu.launch.Dim.Grid)
	case isa.SrWarpID:
		return uint32(w.WInBlock)
	}
	return 0
}

// indirectTarget resolves an indirect call: the target function index
// must be warp-uniform over the active lanes (workloads dispatch after
// branching on type, so polymorphic calls arrive pre-sorted per warp;
// the paper's §III-C case 3).
func (s *SM) indirectTarget(w *Warp, in *isa.Instruction, guard uint32) int {
	vals := w.reg(in.SrcA)
	target := -1
	for l := 0; l < isa.WarpSize; l++ {
		if guard&(1<<l) == 0 {
			continue
		}
		v := int(vals[l])
		if target < 0 {
			target = v
		} else if v != target {
			s.execFault(w, "divergent indirect call target within the warp (R%d holds both %d and %d)",
				in.SrcA, target, v)
		}
	}
	if target < 0 || target >= len(s.gpu.Prog.Funcs) {
		s.execFault(w, "indirect call to invalid function index %d (program has %d functions)",
			target, len(s.gpu.Prog.Funcs))
	}
	return target
}

func (s *SM) execBarrier(now int64, w *Warp, mon Monitor) {
	b := w.Block
	s.park(w, parkBarrier)
	w.SIMT.Advance()
	b.BarrierArrived++
	// Under the static wavefront limiter, a barrier-parked warp hands
	// its scheduling slot to an inactive sibling; otherwise a block
	// wider than the limit can never release the barrier.
	s.swlActivateSibling(now, b)
	s.checkBarrierContextSwitch(now, w)
	if b.BarrierArrived >= b.LiveWarps {
		s.releaseBarrier(now, b, mon)
	}
}

// releaseBarrier unparks every warp waiting at the block's barrier.
func (s *SM) releaseBarrier(now int64, b *Block, mon Monitor) {
	if mon != nil {
		mon.BarrierRelease(b.ID)
	}
	b.BarrierArrived = 0
	for _, bw := range b.Warps {
		s.unpark(bw, parkBarrier, now)
	}
}

func (s *SM) execExit(now int64, w *Warp, mon Monitor) {
	w.SIMT.Exit()
	if !w.SIMT.Empty() {
		return
	}
	s.park(w, parkFinished)
	if mon != nil {
		mon.WarpExit(w.GWID)
	}
	b := w.Block
	b.LiveWarps--
	// A warp exiting may release a barrier its siblings wait at.
	if b.LiveWarps > 0 && b.BarrierArrived >= b.LiveWarps {
		s.releaseBarrier(now, b, mon)
	}
	s.warpStatusCheck(now, w)
	s.applySWL()
	if b.LiveWarps == 0 {
		s.gpu.completeBlock(now, s, b)
	}
}

// --- memory execution ---

func (s *SM) execGlobal(w *Warp, in *isa.Instruction, guard uint32) {
	sys := s.gpu.Sys
	addrs := w.reg(in.SrcA)
	isLoad := in.Op == isa.OpLdG
	var dst, val *[isa.WarpSize]uint32
	if isLoad {
		dst = w.reg(in.Dst)
	} else {
		val = w.reg(in.SrcC)
	}
	capWords := sys.GlobalWords()

	e := s.lsu.newEntry(w, mem.ClassGlobal, isLoad, false, in.Dst)
	for l := 0; l < isa.WarpSize; l++ {
		if guard&(1<<l) == 0 {
			continue
		}
		addr := addrs[l] + uint32(in.Imm)
		if int(addr/4) >= capWords {
			s.execFault(w, "global-memory access at byte address %#x beyond the %d-word global memory", addr, capWords)
		}
		if isLoad {
			dst[l] = sys.ReadGlobal(addr)
		} else {
			sys.WriteGlobal(addr, val[l])
		}
		e.accesses = s.gpu.coalesce(e.accesses, uint64(addr))
	}
	s.dispatchMem(e)
}

// execLocal runs an LDL or STL. When every guarded lane names the same
// word, as every ABI spill, fill and stack access does, the access is
// that word's row of its local page and that row's coalesced lines;
// otherwise each lane reads or writes its own word.
func (s *SM) execLocal(w *Warp, in *isa.Instruction, guard uint32) {
	addrs := w.reg(in.SrcA)
	isLoad := in.Op == isa.OpLdL
	var dst, val *lanes
	if isLoad {
		dst = w.reg(in.Dst)
	} else {
		val = w.reg(in.SrcC)
	}

	class := mem.ClassLocalOther
	if in.Spill {
		class = mem.ClassLocalSpill
	}
	e := s.lsu.newEntry(w, class, isLoad, true, in.Dst)
	if guard != 0 && uniformLanes(addrs, guard) {
		word := s.localWordAt(w, addrs[bits.TrailingZeros32(guard)]+uint32(in.Imm))
		row := w.localRow(word)
		if isLoad {
			mergeLanes(dst, row, guard)
		} else {
			mergeLanes(row, val, guard)
		}
		e.accesses = s.gpu.rowAccesses(e.accesses, s.gpu.localPhysAddr(w.GWID, word, 0), guard)
		s.dispatchMem(e)
		return
	}
	for l := 0; l < isa.WarpSize; l++ {
		if guard&(1<<l) == 0 {
			continue
		}
		word := s.localWordAt(w, addrs[l]+uint32(in.Imm))
		if isLoad {
			dst[l] = w.localRow(word)[l]
		} else {
			w.localRow(word)[l] = val[l]
		}
		e.accesses = s.gpu.coalesce(e.accesses, s.gpu.localPhysAddr(w.GWID, word, l))
	}
	s.dispatchMem(e)
}

// localWordAt returns the local word a byte address names, faulting
// past the warp's local window.
func (s *SM) localWordAt(w *Warp, byteAddr uint32) int {
	word := int(byteAddr / 4)
	if word >= localWordsPerWarp {
		s.execFault(w, "local-memory access at word %d beyond the warp's %d-word window", word, localWordsPerWarp)
	}
	return word
}

// uniformLanes reports whether every lane in guard holds the same value.
func uniformLanes(v *lanes, guard uint32) bool {
	x := v[bits.TrailingZeros32(guard)]
	for m := guard; m != 0; m &= m - 1 {
		if v[bits.TrailingZeros32(m)] != x {
			return false
		}
	}
	return true
}

// mergeLanes copies the lanes in guard from src to dst.
func mergeLanes(dst, src *lanes, guard uint32) {
	if guard == simt.FullMask {
		*dst = *src
		return
	}
	for m := guard; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		dst[l] = src[l]
	}
}

// smemBanks is the shared-memory bank count: successive 4-byte words
// map to successive banks, and active lanes whose words collide on a
// bank at distinct words serialise into extra transactions. Mirrored
// by vet's static bank-conflict multipliers (internal/vet/cost.go).
const smemBanks = 32

func (s *SM) execShared(now int64, w *Warp, in *isa.Instruction, guard uint32) {
	b := w.Block
	addrs := w.reg(in.SrcA)
	isLoad := in.Op == isa.OpLdS
	var dst, val *[isa.WarpSize]uint32
	if isLoad {
		dst = w.reg(in.Dst)
	} else {
		val = w.reg(in.SrcC)
	}
	var bytes [isa.WarpSize]uint32
	for l := 0; l < isa.WarpSize; l++ {
		if guard&(1<<l) == 0 {
			continue
		}
		addr := addrs[l] + uint32(in.Imm)
		bytes[l] = addr
		word := addr / 4
		if int(word) >= len(b.Shared) {
			s.execFault(w, "shared-memory access at word %d beyond the block's %d words", word, len(b.Shared))
		}
		if isLoad {
			dst[l] = b.Shared[word]
		} else {
			b.Shared[word] = val[l]
		}
	}

	// RF-cache absorption: a spill access whose slot lies within the
	// window below every active lane's frame top is served from the
	// register cache — same functional effect on the smem backing
	// store, no shared-memory transaction, register-file latency.
	absorbed := false
	if win := s.gpu.Cfg.RFCacheWindow; win > 0 && in.Spill && guard != 0 {
		absorbed = true
		spill := s.gpu.Prog.SmemSpillPerThread
		base := s.gpu.launch.SharedBytes
		for l := 0; l < isa.WarpSize; l++ {
			if guard&(1<<l) == 0 {
				continue
			}
			top := uint32(base + (w.WInBlock*isa.WarpSize+l+1)*spill)
			if bytes[l] >= top || top-bytes[l] > uint32(4*win) {
				absorbed = false
				break
			}
		}
	}

	txns := 0
	if guard != 0 && !absorbed {
		txns = smemTransactions(guard, &bytes)
	}
	st := s.stats()
	st.SmemTxns += uint64(txns)
	if absorbed {
		st.RFCacheHits++
	}
	if mon := s.gpu.San; mon != nil {
		mon.SharedTxn(w.GWID, b.ID, !isLoad, in.Spill, txns, absorbed)
	}
	if isLoad {
		if absorbed {
			w.ReadyAt[in.Dst] = now + s.gpu.Cfg.ALULat
		} else {
			// Each serialised pass beyond the first costs one cycle.
			w.ReadyAt[in.Dst] = now + s.gpu.Cfg.SmemLat + int64(txns-1)
		}
	}
}

// smemTransactions counts the serialised passes a shared access needs:
// the maximum, over banks, of the number of distinct words the active
// lanes address in that bank (same-word lanes broadcast in one pass).
func smemTransactions(guard uint32, bytes *[isa.WarpSize]uint32) int {
	var words [smemBanks][isa.WarpSize]uint32
	var n [smemBanks]int
	max := 0
	for l := 0; l < isa.WarpSize; l++ {
		if guard&(1<<l) == 0 {
			continue
		}
		wd := bytes[l] / 4
		bank := wd % smemBanks
		dup := false
		for i := 0; i < n[bank]; i++ {
			if words[bank][i] == wd {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		words[bank][n[bank]] = wd
		n[bank]++
		if n[bank] > max {
			max = n[bank]
		}
	}
	return max
}

// dispatchMem enqueues an instruction's coalesced accesses into the LSU,
// or recycles the entry when no lane accessed memory.
func (s *SM) dispatchMem(e *lsuEntry) {
	if len(e.accesses) == 0 {
		s.lsu.release(e)
		return
	}
	if e.isLoad {
		e.warp.ReadyAt[e.dst] = farFuture
	}
	s.lsu.enqueue(e)
}

// coalesce merges a byte address into the access list (line + sector
// of the L1D's geometry).
func (g *GPU) coalesce(accs []access, addr uint64) []access {
	lineAddr := addr >> g.lineShift << g.lineShift
	sector := uint8(1) << (addr & (1<<g.lineShift - 1) >> g.sectorShift)
	for i := range accs {
		if accs[i].lineAddr == lineAddr {
			accs[i].sectors |= sector
			return accs
		}
	}
	return append(accs, access{lineAddr: lineAddr, sectors: sector})
}

// rowAccesses appends the coalesced accesses of one local row: the 32
// lanes' consecutive words from byte address row, of which the lanes in
// guard take part. That is what coalescing each guarded lane's address
// in lane order gives, since the addresses ascend, except that it never
// merges into an access already in accs: a trap appends one row per
// register slot.
func (g *GPU) rowAccesses(accs []access, row uint64, guard uint32) []access {
	first := len(accs)
	secBytes := uint64(1) << g.sectorShift
	end := row + 4*isa.WarpSize
	for sec := row &^ (secBytes - 1); sec < end; sec += secBytes {
		// The lanes whose words start in this sector: lo ≤ l < hi.
		lo, hi := uint64(0), (sec+secBytes-row+3)/4
		if sec > row {
			lo = (sec - row + 3) / 4
		}
		hi = min(hi, isa.WarpSize)
		if lo >= hi || guard&uint32((uint64(1)<<hi-1)&^(uint64(1)<<lo-1)) == 0 {
			continue
		}
		lineAddr := sec >> g.lineShift << g.lineShift
		bit := uint8(1) << (sec & (1<<g.lineShift - 1) >> g.sectorShift)
		if n := len(accs); n > first && accs[n-1].lineAddr == lineAddr {
			accs[n-1].sectors |= bit
		} else {
			accs = append(accs, access{lineAddr: lineAddr, sectors: bit})
		}
	}
	return accs
}

// bankConflicts counts operand-collector serialisation: source operands
// whose physical register slots share a bank are read over extra cycles.
func (s *SM) bankConflicts(w *Warp, in *isa.Instruction, banks int) int {
	var bankOf [3]int
	n := 0
	if in.SrcA != isa.NoReg {
		bankOf[n] = w.slotIndex(in.SrcA) % banks
		n++
	}
	if in.SrcB != isa.NoReg {
		bankOf[n] = w.slotIndex(in.SrcB) % banks
		n++
	}
	if in.SrcC != isa.NoReg {
		bankOf[n] = w.slotIndex(in.SrcC) % banks
		n++
	}
	conflicts := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if bankOf[i] == bankOf[j] {
				conflicts++
			}
		}
	}
	return conflicts
}
