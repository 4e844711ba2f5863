package sim

import (
	"context"
	"fmt"

	"carsgo/internal/callgraph"
	"carsgo/internal/cars"
	"carsgo/internal/isa"
	"carsgo/internal/mem"
	"carsgo/internal/stats"
)

// localWordsPerWarp sizes each warp's virtual local address space in
// words: the software stack, the CARS trap spill window, and the
// context-switch save area.
const localWordsPerWarp = 16384

// maxLaunchCycles guards against simulation deadlock.
const maxLaunchCycles = int64(1) << 31

// TraceSink receives one event per issued warp-instruction, in issue
// order — the role NVBit's instrumentation plays for the paper (§V-A).
// A nil sink costs one branch per instruction.
type TraceSink interface {
	OnIssue(sm, gwid int, fn, pc int, op isa.Op, activeMask uint32)
}

// GPU is one simulated device: SMs plus the shared memory system.
// A GPU persists across kernel launches (caches stay warm, the CARS
// controller remembers per-kernel allocation performance).
type GPU struct {
	Cfg  Config
	Prog *isa.Program
	Sys  *mem.System

	// Trace receives issue events when non-nil (see TraceSink).
	Trace TraceSink

	// San receives architectural-state events when non-nil (see
	// Monitor); internal/san implements it as a shadow sanitizer.
	San Monitor

	Controller *cars.Controller

	sms       []*SM
	funcBase  []uint64
	localBase uint64

	// lineShift and sectorShift are log2 of the L1D's line and sector
	// sizes: the geometry the LSU coalesces accesses by.
	lineShift, sectorShift uint

	// Per-launch state.
	launch          *isa.Launch
	kernelFunc      int
	kernelBaseRegs  int
	baseRegsPerWarp int
	plan            *cars.Plan
	kstate          *cars.KernelState
	windowSize      int // fixed frame size under WindowedStacks
	blockSmem       int // per-block shared-memory demand
	analysis        *callgraph.Analysis
	kernelStats     *stats.Kernel
	nextBlock       int
	blocksDone      int
	totalBlocks     int
	admitDirty      bool
	// waveOpen is true while the launch's opening admission wave runs
	// (the first scheduleBlocks pass, before any execution): the
	// residency it reaches is the launch's occupancy figure.
	waveOpen bool

	// Timeline collection.
	tlWindow int64
	tlCur    stats.BWSample

	// clock is the device-global cycle counter; it persists across
	// launches so shared-resource state (L2/DRAM bandwidth bookkeeping,
	// in-flight events) stays on one timebase.
	clock int64
}

// New builds a GPU for a program.
func New(cfg Config, prog *isa.Program) (*GPU, error) {
	if cfg.CARSEnabled != prog.CARS {
		return nil, fmt.Errorf("sim: config CARS=%v but program compiled with CARS=%v", cfg.CARSEnabled, prog.CARS)
	}
	if cfg.SchedulersPerSM < 1 || cfg.WarpsPerScheduler() > maxWarpsPerScheduler {
		return nil, fmt.Errorf("sim: %d warp slots over %d schedulers: each scheduler must own 1 to %d slots",
			cfg.MaxWarpsPerSM, cfg.SchedulersPerSM, maxWarpsPerScheduler)
	}
	for _, c := range []struct {
		name string
		geom mem.CacheConfig
	}{{"L1D", cfg.L1D.Cache}, {"L1I", cfg.L1I}, {"L2", cfg.Mem.L2}} {
		if err := c.geom.Validate(); err != nil {
			return nil, fmt.Errorf("sim: %s geometry: %v", c.name, err)
		}
	}
	g := &GPU{
		Cfg:        cfg,
		Prog:       prog,
		Sys:        mem.NewSystem(cfg.Mem, cfg.GlobalMemWords),
		Controller: cars.NewController(),
	}
	g.lineShift, g.sectorShift = cfg.L1D.Cache.Shifts()
	g.localBase = uint64(cfg.GlobalMemWords) * 4
	// Lay out code addresses: 128B-aligned functions, 16B instructions.
	addr := uint64(0)
	for _, f := range prog.Funcs {
		g.funcBase = append(g.funcBase, addr)
		addr += uint64(len(f.Code)) * 16
		addr = (addr + 127) &^ 127
	}
	for i := 0; i < cfg.NumSMs; i++ {
		g.sms = append(g.sms, newSM(i, g))
	}
	return g, nil
}

// Alloc reserves global memory (words), returning the byte address.
func (g *GPU) Alloc(words int) uint32 { return g.Sys.Alloc(words) }

// Global exposes the functional global memory for workload init/verify.
func (g *GPU) Global() []uint32 { return g.Sys.Global() }

// localPhysAddr maps (warp, local word, lane) to a physical byte
// address above global memory. Consecutive lanes of one word pack into
// one 128B line, so warp-uniform local accesses fully coalesce, as the
// hardware's local address interleaving achieves.
func (g *GPU) localPhysAddr(gwid, word, lane int) uint64 {
	return g.localBase + uint64((gwid*localWordsPerWarp+word)*isa.WarpSize+lane)*4
}

// CodeBytes returns the program's instruction footprint in bytes.
func (g *GPU) CodeBytes() uint64 {
	last := len(g.funcBase) - 1
	return g.funcBase[last] + uint64(len(g.Prog.Funcs[last].Code))*16
}

// Run executes one kernel launch to completion and returns its stats.
// Functional-execution faults (see ExecError) surface as the returned
// error rather than a panic.
func (g *GPU) Run(launch isa.Launch) (*stats.Kernel, error) {
	return g.RunContext(context.Background(), launch)
}

// ctxCheckInterval is how many scheduler-loop iterations pass between
// cooperative context checks: frequent enough that a cancelled launch
// dies within microseconds of wall time, rare enough that the check
// never shows up in a profile.
const ctxCheckInterval = 4096

// RunContext is Run with cooperative cancellation: the cycle loop
// polls ctx and abandons the launch with a structured *CancelError
// when the context ends. The GPU must not be reused after a
// cancellation — mid-launch state (resident blocks, in-flight memory
// events) is abandoned, not rolled back.
func (g *GPU) RunContext(ctx context.Context, launch isa.Launch) (st *stats.Kernel, err error) {
	defer func() {
		if r := recover(); r != nil {
			ee, ok := r.(*ExecError)
			if !ok {
				panic(r) // simulator bug: keep the stack trace
			}
			st, err = nil, ee
		}
	}()
	kf, err := g.Prog.Kernel(launch.Kernel)
	if err != nil {
		return nil, err
	}
	if launch.Dim.Grid <= 0 || launch.Dim.Block <= 0 {
		return nil, fmt.Errorf("sim: bad launch dims %+v", launch.Dim)
	}
	if launch.Dim.Block > g.Cfg.MaxThreadsPerSM {
		return nil, fmt.Errorf("sim: block of %d threads exceeds SM capacity", launch.Dim.Block)
	}
	if launch.Dim.Block > isa.MaxBlockThreads {
		return nil, fmt.Errorf("sim: block of %d threads exceeds the architectural limit of %d",
			launch.Dim.Block, isa.MaxBlockThreads)
	}
	shape, err := Fit(g.Cfg, g.Prog, launch)
	if err != nil {
		return nil, err
	}
	if g.San != nil && g.Cfg.WindowedStacks {
		// Windowed stacks skip the PUSH/POP micro-ops and rename whole
		// fixed-size windows, so the shadow stack's exact-FRU model
		// would diverge from the architectural pointers by design.
		return nil, fmt.Errorf("sim: the sanitizer does not model windowed register stacks")
	}

	g.launch = &launch
	g.kernelFunc = kf
	g.blockSmem = shape.BlockSmem()
	g.kernelStats = &stats.Kernel{Name: launch.Kernel, CARSLevels: map[string]int{}}
	g.nextBlock, g.blocksDone = 0, 0
	g.totalBlocks = launch.Dim.Grid
	g.tlWindow = g.Cfg.TimelineWindow
	g.tlCur = stats.BWSample{}

	// Snapshot cache stats so the launch reports deltas.
	l1dBefore := make([]mem.CacheStats, len(g.sms))
	l1iBefore := make([]mem.CacheStats, len(g.sms))
	for i, sm := range g.sms {
		l1dBefore[i] = *sm.l1d.Stats()
		l1iBefore[i] = sm.l1i.tags.Stats
	}
	l2Before := g.Sys.L2().Stats
	dramBefore := g.Sys.Stats.DRAMSectors

	// Link-time analysis + CARS plan.
	an, err := callgraph.Analyze(g.Prog, launch.Kernel)
	if err != nil {
		return nil, err
	}
	g.analysis = an
	g.kernelBaseRegs = g.Cfg.RoundRegs(an.KernelBase)
	// Baseline allocation: worst-case register usage over the kernel's
	// reachable call graph (§II), not the whole program.
	g.baseRegsPerWarp = g.Cfg.RoundRegs(an.MaxRegs)
	if win := g.Cfg.RFCacheWindow; win > 0 {
		// The RF-cache backend provisions its window at admission: one
		// cached spill word per thread is one vector register per warp,
		// on top of the kernel's base demand.
		if g.Cfg.CARSEnabled {
			return nil, fmt.Errorf("sim: RFCacheWindow requires the shared-spill ABI, not CARS")
		}
		g.baseRegsPerWarp = g.Cfg.RoundRegs(an.MaxRegs + win)
	}

	if g.Cfg.CARSEnabled {
		g.plan = cars.NewPlan(an, g.Cfg.MaxWarpsOther(shape), g.Cfg.RegFileSlots)
		g.windowSize = g.plan.MaxFRU
		g.kstate = g.Controller.Launch(launch.Kernel, g.plan)
		for _, sm := range g.sms {
			sm.carsLevel = g.kstate.InitialLevel(sm.id, g.Cfg.CARSPolicy)
		}
	} else {
		g.plan, g.kstate = nil, nil
		if !g.Cfg.UnlimitedRegs &&
			g.baseRegsPerWarp*launch.Dim.Warps() > g.Cfg.RegFileSlots {
			return nil, fmt.Errorf("sim: kernel %s needs %d reg slots per block, file has %d",
				launch.Kernel, g.baseRegsPerWarp*launch.Dim.Warps(), g.Cfg.RegFileSlots)
		}
	}

	g.admitDirty = true
	g.waveOpen = true
	for _, sm := range g.sms {
		sm.wakeUp()
	}
	start := g.clock
	cycle := g.clock
	ctxDone := ctx.Done()
	sinceCheck := 0
	for g.blocksDone < g.totalBlocks {
		if sinceCheck++; sinceCheck >= ctxCheckInterval {
			sinceCheck = 0
			select {
			case <-ctxDone:
				return nil, &CancelError{
					Kernel: launch.Kernel, Cycles: cycle - start,
					BlocksDone: g.blocksDone, TotalBlocks: g.totalBlocks,
					Err: ctx.Err(),
				}
			default:
			}
		}
		g.Sys.RunEvents(cycle)
		if g.admitDirty {
			g.scheduleBlocks(cycle)
		}
		wake := farFuture // the first cycle some SM ticks again
		for _, sm := range g.sms {
			if sm.sleepUntil <= cycle {
				sm.tick(cycle)
			}
			if sm.sleepUntil < wake {
				wake = sm.sleepUntil
			}
		}
		cycle++
		if wake > cycle && !g.admitDirty {
			// Every SM sleeps past the next cycle: jump to the first
			// cycle at which one wakes or a memory event fires.
			if next := g.Sys.NextEventCycle(); next >= 0 && next < wake {
				wake = next
			}
			if wake == farFuture {
				return nil, fmt.Errorf("sim: deadlock at cycle %d: %d/%d blocks done",
					cycle, g.blocksDone, g.totalBlocks)
			}
			if wake > cycle {
				cycle = wake
			}
		}
		if cycle-start > maxLaunchCycles {
			return nil, fmt.Errorf("sim: launch exceeded %d cycles", maxLaunchCycles)
		}
	}
	g.Sys.RunEvents(cycle + g.Cfg.Mem.DRAMLatency + 10_000)
	g.clock = cycle

	st = g.kernelStats
	st.Cycles = cycle - start
	for i, sm := range g.sms {
		st.L1D.Accesses = addClass(st.L1D.Accesses, sm.l1d.Stats().Accesses, l1dBefore[i].Accesses)
		st.L1D.Misses = addClass(st.L1D.Misses, sm.l1d.Stats().Misses, l1dBefore[i].Misses)
		st.L1D.LineFills += sm.l1d.Stats().LineFills - l1dBefore[i].LineFills
		st.L1D.Writebacks += sm.l1d.Stats().Writebacks - l1dBefore[i].Writebacks
		st.L1I.Accesses = addClass(st.L1I.Accesses, sm.l1i.tags.Stats.Accesses, l1iBefore[i].Accesses)
		st.L1I.Misses = addClass(st.L1I.Misses, sm.l1i.tags.Stats.Misses, l1iBefore[i].Misses)
	}
	st.L2.Accesses = addClass(st.L2.Accesses, g.Sys.L2().Stats.Accesses, l2Before.Accesses)
	st.L2.Misses = addClass(st.L2.Misses, g.Sys.L2().Stats.Misses, l2Before.Misses)
	st.DRAMSectors = g.Sys.Stats.DRAMSectors - dramBefore
	if g.tlWindow > 0 && (g.tlCur.GlobalSectors > 0 || g.tlCur.LocalSectors > 0) {
		st.Timeline = append(st.Timeline, g.tlCur)
	}
	if g.kstate != nil {
		g.kstate.FinishLaunch()
	}
	return st, nil
}

func addClass(dst, after, before [mem.NumClasses]uint64) [mem.NumClasses]uint64 {
	for i := range dst {
		dst[i] += after[i] - before[i]
	}
	return dst
}

// scheduleBlocks assigns pending grid blocks to SMs round-robin.
func (g *GPU) scheduleBlocks(now int64) {
	g.admitDirty = false
	for progress := true; progress && g.nextBlock < g.totalBlocks; {
		progress = false
		for _, sm := range g.sms {
			if g.nextBlock >= g.totalBlocks {
				break
			}
			if g.Cfg.CARSEnabled && g.kstate != nil {
				sm.carsLevel = g.kstate.NextLevel(sm.carsLevel, g.Cfg.CARSPolicy)
			}
			if sm.admitBlock(now, g.nextBlock) {
				g.nextBlock++
				progress = true
			}
		}
	}
	g.waveOpen = false
}

// completeBlock retires a finished block from an SM.
func (g *GPU) completeBlock(now int64, s *SM, b *Block) {
	st := g.kernelStats
	dur := now - b.StartCycle
	st.WarpCycles += uint64(len(b.Warps)) * uint64(dur)
	if g.kstate != nil {
		g.kstate.Record(b.LevelIdx, dur, len(s.blocks))
	}
	for _, w := range b.Warps {
		if w.CStack.MaxRSP > st.MaxRSP {
			st.MaxRSP = w.CStack.MaxRSP
		}
		// Every warp has exited, and warpStatusCheck released its
		// registers then.
		s.removeStalled(w)
		s.warps[w.Slot] = nil
	}
	if !g.Cfg.UnlimitedSmem {
		s.freeSmem += b.SmemBytes
	}
	s.freeThr += b.ThreadsCnt
	for i, bb := range s.blocks {
		if bb == b {
			s.blocks = append(s.blocks[:i], s.blocks[i+1:]...)
			break
		}
	}
	g.blocksDone++
	g.admitDirty = true
	if mon := g.San; mon != nil {
		mon.BlockRetire(s.id, b.ID)
	}
}

// noteTraffic feeds the bandwidth timeline (Fig. 11).
func (s *SM) noteTraffic(now int64, class mem.AccessClass, sectors int) {
	g := s.gpu
	if g.tlWindow <= 0 {
		return
	}
	winStart := now / g.tlWindow * g.tlWindow
	if g.tlCur.Cycle != winStart {
		if g.tlCur.GlobalSectors > 0 || g.tlCur.LocalSectors > 0 {
			g.kernelStats.Timeline = append(g.kernelStats.Timeline, g.tlCur)
		}
		g.tlCur = stats.BWSample{Cycle: winStart}
	}
	switch class {
	case mem.ClassGlobal:
		g.tlCur.GlobalSectors += uint64(sectors)
	case mem.ClassLocalSpill, mem.ClassLocalOther:
		g.tlCur.LocalSectors += uint64(sectors)
	}
}
