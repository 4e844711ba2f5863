package sim

import (
	"math/bits"

	"carsgo/internal/isa"
	"carsgo/internal/mem"
	"carsgo/internal/simt"
	"carsgo/internal/stats"
)

// SM is one streaming multiprocessor.
type SM struct {
	id  int
	gpu *GPU

	l1d *mem.L1
	l1i *icache

	regArena []([isa.WarpSize]uint32)
	regAlloc *rangeAlloc

	warps    []*Warp // by slot; nil when free
	blocks   []*Block
	freeSmem int
	freeThr  int

	lsu lsu

	// nsched is the scheduler count; scheduler sc owns slots sc,
	// sc+nsched, sc+2*nsched, ...
	nsched int

	// greedy is each scheduler's GTO greedy warp, as a bit of its masks
	// (below): the last warp the oldest-first scan issued, -1 before
	// the first. Scheduler 0 starts greedy on slot 0.
	greedy []int

	// The issue-state table (park.go), by slot: parkState holds the
	// reasons a warp cannot issue and wake the first cycle an unparked
	// warp may; wakeExact marks a wake computed from the scoreboard of
	// the warp's next instruction, so that tryIssue need not check it
	// again. Per scheduler, bit i of ready marks slot sc+i*nsched as
	// holding a warp with no park reason, and of lsuWait as refused for
	// LSU space since its last issue.
	parkState []parkBits
	wake      []int64
	wakeExact []bool
	ready     []uint64
	lsuWait   []uint64

	// stalledWarps is the CARS issue-stage list of register-deactivated
	// warps (§IV-B): scheduled warps that have not been allocated
	// register space, plus context-switched-out warps awaiting regs.
	stalledWarps []*Warp

	// carsLevel is this SM's current allocation-ladder index for newly
	// spawned thread blocks (the Fig. 5 state machine input).
	carsLevel int

	// nextWake is the earliest wake the current tick's scan passed over.
	nextWake int64

	// sleepUntil is the next cycle the SM ticks. A tick that issued
	// nothing and left the LSU where it was sets it to nextWake: until
	// then every tick would refuse the same warps for the same reasons,
	// none with a side effect. A load completion and a block admission
	// wake the SM early (wakeUp); every other unpark happens inside the
	// SM's own issue.
	sleepUntil int64
}

func newSM(id int, g *GPU) *SM {
	cfg := &g.Cfg
	regSlots := cfg.RegFileSize()
	s := &SM{
		id:        id,
		gpu:       g,
		l1d:       mem.NewL1(cfg.L1D, g.Sys),
		l1i:       newICache(cfg.L1I, g.Sys),
		regArena:  make([]([isa.WarpSize]uint32), regSlots),
		regAlloc:  newRangeAlloc(regSlots),
		warps:     make([]*Warp, cfg.MaxWarpsPerSM),
		freeSmem:  cfg.SharedMemBytes,
		freeThr:   cfg.MaxThreadsPerSM,
		nsched:    cfg.SchedulersPerSM,
		greedy:    make([]int, cfg.SchedulersPerSM),
		parkState: make([]parkBits, cfg.MaxWarpsPerSM),
		wake:      make([]int64, cfg.MaxWarpsPerSM),
		wakeExact: make([]bool, cfg.MaxWarpsPerSM),
		ready:     make([]uint64, cfg.SchedulersPerSM),
		lsuWait:   make([]uint64, cfg.SchedulersPerSM),
	}
	for sc := 1; sc < len(s.greedy); sc++ {
		s.greedy[sc] = -1
	}
	s.lsu = newLSU(s, cfg.LSUQueueCap)
	return s
}

// freeWarpSlots returns contiguous-capacity bookkeeping for admission.
func (s *SM) freeWarpSlots() int {
	n := 0
	for _, w := range s.warps {
		if w == nil {
			n++
		}
	}
	return n
}

// canAdmit checks the non-register occupancy limits for one more block.
func (s *SM) canAdmit(threads, smem, warps int) bool {
	cfg := &s.gpu.Cfg
	if !cfg.UnlimitedBlocks && len(s.blocks) >= cfg.MaxBlocksPerSM {
		return false
	}
	if !cfg.UnlimitedSmem && smem > s.freeSmem {
		return false
	}
	if threads > s.freeThr {
		return false
	}
	return s.freeWarpSlots() >= warps
}

// admitBlock schedules grid block blockID onto this SM at the given
// CARS ladder level (ignored for non-CARS runs). Returns false if the
// block does not fit.
func (s *SM) admitBlock(now int64, blockID int) bool {
	g := s.gpu
	L := g.launch
	warpsPerBlock := L.Dim.Warps()
	smemNeed := g.blockSmem
	if !s.canAdmit(L.Dim.Block, smemNeed, warpsPerBlock) {
		return false
	}

	levelIdx := 0
	regsPerWarp := g.baseRegsPerWarp
	if g.Cfg.CARSEnabled && g.kstate != nil {
		levelIdx = s.carsLevel
		// Round the combined demand so allocation slack lands in the
		// register stack (the warp can always use extra stack slots).
		regsPerWarp = g.Cfg.RoundRegs(g.kernelBaseRegs + g.plan.Levels[levelIdx].StackSlots)
	}
	if regsPerWarp > len(s.regArena) {
		regsPerWarp = len(s.regArena) // clamp: a warp can at most own the file
	}

	// Register admission: trial-allocate every warp's range. The full
	// block must fit, except that a CARS SM with no resident blocks may
	// admit with partial warp coverage and rely on context switching
	// (§III-B High-watermark, §IV-B).
	bases := make([]int, 0, warpsPerBlock)
	for wi := 0; wi < warpsPerBlock; wi++ {
		base, ok := s.regAlloc.Alloc(regsPerWarp)
		if !ok {
			break
		}
		bases = append(bases, base)
	}
	if len(bases) < warpsPerBlock {
		if !(g.Cfg.CARSEnabled && len(s.blocks) == 0 && len(bases) >= 1) {
			for _, base := range bases {
				s.regAlloc.Release(base, regsPerWarp)
			}
			return false
		}
	}

	b := &Block{
		ID:          blockID,
		StartCycle:  now,
		LiveWarps:   warpsPerBlock,
		SmemBytes:   smemNeed,
		ThreadsCnt:  L.Dim.Block,
		LevelIdx:    levelIdx,
		RegsPerWarp: regsPerWarp,
	}
	if smemNeed > 0 {
		b.Shared = make([]uint32, (smemNeed+3)/4)
	}
	if !g.Cfg.UnlimitedSmem {
		s.freeSmem -= smemNeed
	}
	s.freeThr -= L.Dim.Block

	slot := 0
	for wi := 0; wi < warpsPerBlock; wi++ {
		for s.warps[slot] != nil {
			slot++
		}
		w := &Warp{
			SM:       s,
			Slot:     slot,
			Block:    b,
			WInBlock: wi,
			GWID:     blockID*warpsPerBlock + wi,
		}
		hasRegs := wi < len(bases)
		if hasRegs {
			w.RegBase = bases[wi]
			w.RegCount = regsPerWarp
		} else {
			// Register-deactivated: parked on the stalled-warp list until
			// the warp-status-check or a context switch frees space.
			s.stalledWarps = append(s.stalledWarps, w)
		}
		s.initWarp(w, hasRegs)
		s.warps[slot] = w
		b.Warps = append(b.Warps, w)
	}
	s.blocks = append(s.blocks, b)
	if g.kernelStats.CARSLevels == nil {
		g.kernelStats.CARSLevels = map[string]int{}
	}
	if g.Cfg.CARSEnabled && g.plan != nil {
		g.kernelStats.CARSLevels[g.plan.Levels[levelIdx].Name()]++
	}
	g.kernelStats.RegSlotsAlloc += uint64(regsPerWarp * warpsPerBlock)
	// Resident warps exclude finished ones: a finished warp has already
	// released its registers (warpStatusCheck), so counting it would
	// credit the SM with occupancy no resource backs.
	resident := 0
	for _, bb := range s.blocks {
		for _, bw := range bb.Warps {
			if !s.parked(bw, parkFinished) {
				resident++
			}
		}
	}
	// Only the opening admission wave defines the launch's occupancy
	// figure: it is the steady state the occupancy model predicts,
	// whereas drain-phase re-admissions transiently overshoot it.
	if g.waveOpen && resident > g.kernelStats.ResidentWarps {
		g.kernelStats.ResidentWarps = resident
	}
	if mon := g.San; mon != nil {
		mon.BlockAdmit(s.id, blockID, levelIdx, regsPerWarp, warpsPerBlock, resident)
	}

	// SWL activation.
	s.applySWL()
	s.wakeUp()
	return true
}

// initWarp resets a warp's architectural state for kernel entry. A warp
// admitted without registers parks until it receives them; under the
// wavefront limiter every new warp parks until applySWL activates it.
func (s *SM) initWarp(w *Warp, hasRegs bool) {
	g := s.gpu
	mask := blockTailMask(w.Block.ThreadsCnt, w.WInBlock)
	w.SIMT.Reset(g.kernelFunc, mask)
	w.KernelBase = g.kernelBaseRegs
	stackSlots := 0
	if g.Cfg.CARSEnabled {
		stackSlots = w.Block.RegsPerWarp - g.kernelBaseRegs
		if stackSlots < 0 {
			stackSlots = 0
		}
	}
	w.CStack.Reset(stackSlots)
	for i := range w.ReadyAt {
		w.ReadyAt[i] = 0
	}
	for i := range w.PredReadyAt {
		w.PredReadyAt[i] = 0
	}
	w.Preds = [8]uint32{}
	w.IBufAddr = noCodeAddr
	s.decode(w)
	w.TrapOutstanding = 0
	w.DynCallDepth = 0
	var p parkBits
	if !hasRegs {
		p |= parkNoRegs
	}
	if g.Cfg.SWLLimit > 0 {
		p |= parkSWL
	}
	s.resetSlot(w, p)
	if hasRegs {
		s.zeroRegs(w)
		s.loadParams(w)
	}
}

func (s *SM) zeroRegs(w *Warp) {
	for i := 0; i < w.RegCount; i++ {
		w.SM.regArena[w.RegBase+i] = [isa.WarpSize]uint32{}
	}
}

// loadParams deposits kernel launch parameters into R4.. of every lane
// and, under the shared-memory spill ABI, initialises R0 as the warp's
// spill stack pointer (the top of its frame above the user's shared
// allocation; the frame grows down).
func (s *SM) loadParams(w *Warp) {
	for pi, v := range s.gpu.launch.Params {
		r := w.reg(uint8(4 + pi))
		for l := 0; l < isa.WarpSize; l++ {
			r[l] = v
		}
	}
	if spill := s.gpu.Prog.SmemSpillPerThread; spill > 0 {
		r := w.reg(0)
		for l := 0; l < isa.WarpSize; l++ {
			tid := w.WInBlock*isa.WarpSize + l
			r[l] = uint32(s.gpu.launch.SharedBytes + (tid+1)*spill)
		}
	}
	// loadParams runs exactly once per fresh architectural state (warp
	// admission or first register activation), never on context-switch
	// resume, so it is the warp-birth event for the sanitizer.
	if mon := s.gpu.San; mon != nil {
		mon.WarpStart(w.GWID, w.Block.ID, w.WInBlock, s.gpu.kernelFunc, w.CStack.Slots, w.SIMT.Top().Mask)
	}
}

// blockTailMask returns the active mask for warp wi of a block with n
// threads (the last warp may be partial).
func blockTailMask(n, wi int) uint32 {
	remaining := n - wi*isa.WarpSize
	if remaining >= isa.WarpSize {
		return simt.FullMask
	}
	if remaining <= 0 {
		return 0
	}
	return (uint32(1) << remaining) - 1
}

// applySWL keeps at most SWLLimit warps schedulable: it activates
// SWL-parked warps in slot order while fewer than the limit are active.
func (s *SM) applySWL() {
	limit := s.gpu.Cfg.SWLLimit
	if limit <= 0 {
		return
	}
	n := 0
	for slot, w := range s.warps {
		if w != nil && s.parkState[slot]&(parkFinished|parkSWL) == 0 {
			n++
		}
	}
	for slot, w := range s.warps {
		if n >= limit {
			break
		}
		if w != nil && s.parkState[slot]&(parkFinished|parkSWL) == parkSWL {
			s.unpark(w, parkSWL, 0)
			n++
		}
	}
}

// swlActivateSibling activates one SWL-parked warp, preferring the
// given block, so barrier progress is always possible.
func (s *SM) swlActivateSibling(now int64, b *Block) {
	if s.gpu.Cfg.SWLLimit <= 0 {
		return
	}
	var fallback *Warp
	for slot, w := range s.warps {
		if w == nil || s.parkState[slot]&(parkFinished|parkSWL) != parkSWL {
			continue
		}
		if w.Block == b {
			s.unpark(w, parkSWL, now)
			return
		}
		if fallback == nil {
			fallback = w
		}
	}
	if fallback != nil {
		s.unpark(fallback, parkSWL, now)
	}
}

// tick advances the SM by one cycle and decides when it next ticks.
func (s *SM) tick(now int64) {
	s.nextWake = farFuture
	moved := s.lsu.tick(now)
	issued := false
	for sc := 0; sc < s.nsched; sc++ {
		if s.scheduleOne(now, sc) {
			issued = true
		}
	}
	if issued || moved {
		s.sleepUntil = now + 1
	} else {
		s.sleepUntil = s.nextWake
	}
}

// scheduleOne lets scheduler sc issue at most one instruction (GTO:
// greedy on the last warp, then oldest-first, i.e. ascending slots).
//
// The candidates are the scheduler's ready mask, less its LSU-waiting
// warps while the LSU is full: such a warp's next instruction is still
// the refused memory op, and the LSU fills only by issuing, which ends
// the call. Of those, a warp whose wake lies ahead is noted for the
// SM's sleep and passed over; only the rest reach tryIssue.
func (s *SM) scheduleOne(now int64, sc int) bool {
	m := s.ready[sc]
	if !s.lsu.hasSpace() {
		m &^= s.lsuWait[sc]
	}
	if m == 0 {
		return false
	}
	if i := s.greedy[sc]; i >= 0 && m&(1<<uint(i)) != 0 {
		m &^= 1 << uint(i)
		slot := sc + i*s.nsched
		if wk := s.wake[slot]; wk > now {
			s.noteWake(wk)
		} else if s.tryIssue(now, s.warps[slot]) {
			return true
		}
	}
	for m != 0 {
		i := bits.TrailingZeros64(m)
		m &= m - 1
		slot := sc + i*s.nsched
		if wk := s.wake[slot]; wk > now {
			s.noteWake(wk)
			continue
		}
		if s.tryIssue(now, s.warps[slot]) {
			s.greedy[sc] = i
			return true
		}
	}
	return false
}

// noteWake records a candidate wake cycle for the SM's sleep.
func (s *SM) noteWake(c int64) {
	if c < s.nextWake {
		s.nextWake = c
	}
}

// tryIssue issues w's next instruction if its remaining hazards clear:
// the caller has found w unparked with its wake passed.
func (s *SM) tryIssue(now int64, w *Warp) bool {
	in := w.next
	if in == nil {
		if w.SIMT.Empty() {
			return false
		}
		top := w.SIMT.Top()
		fn := s.gpu.Prog.Funcs[top.Func]
		s.execFault(w, "PC %d past the end of %s (%d instructions)", top.PC, fn.Name, len(fn.Code))
	}

	// Structural hazard first: with the LSU saturated (the common state
	// of memory-bound phases) this is one boolean per warp.
	if (in.Op.IsGlobal() || in.Op.IsLocal()) && !s.lsu.hasSpace() {
		s.setLSUWait(w, true)
		return false
	}
	// Scoreboard: the hazard clears at a known cycle, so wait until then,
	// or until the in-flight load it waits on completes. A wake that
	// parkOnScoreboard or an earlier check computed already covers it;
	// an unpark or a load completion (lowerWake) sets a wake that may not.
	if !s.wakeExact[w.Slot] {
		s.wakeExact[w.Slot] = true
		if at := w.regsReady(in); at > now {
			if at == farFuture {
				s.park(w, parkLoad)
			} else {
				s.wake[w.Slot] = at
				s.noteWake(at)
			}
			return false
		}
	}
	// Instruction fetch, through the warp's instruction buffer.
	if w.IBufAddr != w.nextAddr {
		if ready, wake := s.l1i.Fetch(now, w.nextAddr); !ready {
			s.wake[w.Slot] = wake
			s.noteWake(wake)
			return false
		}
		w.IBufAddr = w.nextAddr
	}
	s.setLSUWait(w, false)
	s.execute(now, w, in)
	s.decode(w)
	s.parkOnScoreboard(w)
	return true
}

// noCodeAddr is an instruction-buffer key no instruction has.
const noCodeAddr = ^uint64(0)

// decode caches the instruction under w's SIMT top and its code
// address (16-byte instructions from the function's base). It runs
// whenever the top moves: at admission and after every issue. A PC
// past the end of its function leaves no instruction, for tryIssue to
// report.
func (s *SM) decode(w *Warp) {
	w.next = nil
	if w.SIMT.Empty() {
		return
	}
	top := w.SIMT.Top()
	if code := s.gpu.Prog.Funcs[top.Func].Code; top.PC < len(code) {
		w.next = &code[top.PC]
		w.nextAddr = s.gpu.funcBase[top.Func] + uint64(top.PC)*16
	}
}

// parkOnScoreboard raises a just-issued warp's wake to the cycle its
// next instruction's operands are ready, or parks it on parkLoad when
// an operand waits on an in-flight load. That is exact: until then
// tryIssue would refuse the warp at the LSU or scoreboard check, and
// neither refusal has a side effect; the i-fetch check, which has one,
// is reached only once the scoreboard clears. A warp's scoreboard
// entries only fall while it does not issue (a load's completion), so
// the wake stays a sufficient one and tryIssue skips the check.
func (s *SM) parkOnScoreboard(w *Warp) {
	if s.parkState[w.Slot] != 0 || w.next == nil {
		return
	}
	switch at := w.regsReady(w.next); {
	case at == farFuture:
		s.park(w, parkLoad)
		return
	case at > s.wake[w.Slot]:
		s.wake[w.Slot] = at
	}
	s.wakeExact[w.Slot] = true
}

// recordStats routes per-SM counters into the launch-wide kernel stats.
func (s *SM) stats() *stats.Kernel { return s.gpu.kernelStats }
