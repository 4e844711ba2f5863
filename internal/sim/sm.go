package sim

import (
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

	// schedLast is the greedy warp per scheduler (GTO).
	schedLast []int

	// stalledWarps is the CARS issue-stage list of register-deactivated
	// warps (§IV-B): scheduled warps that have not been allocated
	// register space, plus context-switched-out warps awaiting regs.
	stalledWarps []*Warp

	// carsLevel is this SM's current allocation-ladder index for newly
	// spawned thread blocks (the Fig. 5 state machine input).
	carsLevel int

	// nextWake is the earliest cycle at which a currently-blocked warp
	// may become issuable (used for idle-cycle skipping).
	nextWake int64

	issuedThisTick bool
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
		schedLast: make([]int, cfg.SchedulersPerSM),
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
		if wi < len(bases) {
			w.RegBase = bases[wi]
			w.RegCount = regsPerWarp
			w.HasRegs = true
		} else {
			// Register-deactivated: parked on the stalled-warp list until
			// the warp-status-check or a context switch frees space.
			s.stalledWarps = append(s.stalledWarps, w)
		}
		s.initWarp(w)
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
			if !bw.Finished {
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
	return true
}

// initWarp resets a warp's architectural state for kernel entry.
func (s *SM) initWarp(w *Warp) {
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
	w.Wake = 0
	if !w.HasRegs {
		w.Wake = farFuture // deactivated: woken by status check / switch
	}
	w.IBufFunc, w.IBufPC = -1, -1
	w.AtBarrier, w.Finished, w.SwappedOut = false, false, false
	w.lsuRefused = false
	w.TrapOutstanding = 0
	w.DynCallDepth = 0
	if w.HasRegs {
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

// applySWL keeps at most SWLLimit warps schedulable.
func (s *SM) applySWL() {
	limit := s.gpu.Cfg.SWLLimit
	if limit <= 0 {
		for _, w := range s.warps {
			if w != nil {
				w.SWLActive = true
			}
		}
		return
	}
	n := 0
	for _, w := range s.warps {
		if w == nil || w.Finished {
			continue
		}
		if w.SWLActive {
			n++
		} else if w.Wake < farFuture {
			w.Wake = farFuture // parked until the limiter activates it
		}
	}
	for _, w := range s.warps {
		if n >= limit {
			break
		}
		if w != nil && !w.Finished && !w.SWLActive {
			w.SWLActive = true
			if w.TrapOutstanding == 0 && w.Wake == farFuture {
				w.Wake = 0
			}
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
	for _, w := range s.warps {
		if w == nil || w.Finished || w.SWLActive {
			continue
		}
		if w.Block == b {
			s.swlActivate(now, w)
			return
		}
		if fallback == nil {
			fallback = w
		}
	}
	if fallback != nil {
		s.swlActivate(now, fallback)
	}
}

func (s *SM) swlActivate(now int64, w *Warp) {
	w.SWLActive = true
	if w.TrapOutstanding == 0 && w.Wake == farFuture && !w.AtBarrier && w.HasRegs && !w.SwappedOut {
		w.Wake = now
	}
}

// tick advances the SM by one cycle.
func (s *SM) tick(now int64) {
	s.issuedThisTick = false
	s.nextWake = farFuture
	s.lsu.tick(now)
	nsched := s.gpu.Cfg.SchedulersPerSM
	for sc := 0; sc < nsched; sc++ {
		s.scheduleOne(now, sc)
	}
}

// scheduleOne lets scheduler sc issue at most one instruction (GTO:
// greedy on the last warp, then oldest-first).
//
// While the LSU is full, a warp whose last refusal was for LSU space
// (lsuRefused) is skipped without calling tryIssue. The skip is exact:
// such a warp's next instruction is still the refused memory op, so
// with its Wake reached, tryIssue would refuse it again at one of its
// checks, none of which has a side effect before the LSU check. A warp
// whose Wake lies ahead still goes through the wake gate (noteWake).
// The LSU fills only by issuing, which ends the call, so one hasSpace
// read serves the whole scan.
func (s *SM) scheduleOne(now int64, sc int) {
	nsched := s.gpu.Cfg.SchedulersPerSM
	lsuFull := !s.lsu.hasSpace()
	last := s.schedLast[sc]
	if last >= 0 && last < len(s.warps) {
		if w := s.warps[last]; w != nil && last%nsched == sc {
			skip := lsuFull && w.lsuRefused && w.Wake <= now
			if !skip && s.tryIssue(now, w) {
				s.issuedThisTick = true
				return
			}
		}
	}
	for slot := sc; slot < len(s.warps); slot += nsched {
		if slot == last {
			continue
		}
		w := s.warps[slot]
		if w == nil {
			continue
		}
		// Fast gate: Wake aggregates every known stall (scoreboard parks,
		// traps, barriers, deactivation); it may be optimistic but never
		// late, so skipping here is always safe.
		if w.Wake > now {
			if w.Wake < s.nextWake {
				s.nextWake = w.Wake
			}
			continue
		}
		if lsuFull && w.lsuRefused {
			continue
		}
		if s.tryIssue(now, w) {
			s.schedLast[sc] = slot
			s.issuedThisTick = true
			return
		}
	}
}

// noteWake records a candidate wake cycle for idle skipping.
func (s *SM) noteWake(c int64) {
	if c < s.nextWake {
		s.nextWake = c
	}
}

// tryIssue issues w's next instruction if all hazards clear.
func (s *SM) tryIssue(now int64, w *Warp) bool {
	if w.Finished || w.AtBarrier || w.SwappedOut || !w.HasRegs || !w.SWLActive {
		return false
	}
	if w.TrapOutstanding > 0 {
		return false
	}
	if w.Wake > now {
		s.noteWake(w.Wake)
		return false
	}
	if w.SIMT.Empty() {
		return false
	}
	top := w.SIMT.Top()
	code := s.gpu.Prog.Funcs[top.Func].Code
	if top.PC >= len(code) {
		s.execFault(w, "PC %d past the end of %s (%d instructions)", top.PC,
			s.gpu.Prog.Funcs[top.Func].Name, len(code))
	}
	in := &code[top.PC]

	// Structural hazard first: with the LSU saturated (the common state
	// of memory-bound phases) this is one boolean per warp.
	if (in.Op.IsGlobal() || in.Op.IsLocal()) && !s.lsu.hasSpace() {
		w.lsuRefused = true
		return false
	}
	// Scoreboard: the hazard clears at a known cycle, so park the warp
	// until then — later scans skip it with a single compare.
	if ok, at := w.regsReady(now, in); !ok {
		if at > w.Wake {
			w.Wake = at // load completions lower this again (lsu.finish)
		}
		s.noteWake(at)
		return false
	}
	// Instruction fetch, through the warp's instruction buffer.
	if w.IBufFunc != top.Func || w.IBufPC != top.PC {
		if ready, wake := s.l1i.Fetch(now, s.gpu.funcBase[top.Func]+uint64(top.PC)*16); !ready {
			w.Wake = wake
			s.noteWake(wake)
			return false
		}
		w.IBufFunc, w.IBufPC = top.Func, top.PC
	}
	w.lsuRefused = false
	s.execute(now, w, in)
	return true
}

// recordStats routes per-SM counters into the launch-wide kernel stats.
func (s *SM) stats() *stats.Kernel { return s.gpu.kernelStats }
