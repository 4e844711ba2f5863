// Package cars implements Concurrency-Aware Register Stacks: the
// register-stack allocation policies (§III-B), the per-warp RFP/RSP
// renaming stack with software-trap fallback (§III-A, §IV-A), and the
// dynamic reservation state machine (Fig. 5) that balances register
// stack depth against warp concurrency.
package cars

import (
	"fmt"

	"carsgo/internal/callgraph"
)

// LevelKind names an allocation design point.
type LevelKind uint8

const (
	// KindLow is the most-concurrency point: room for at least one call.
	KindLow LevelKind = iota
	// KindNxLow allocates N× the Low stack: the middle ground.
	KindNxLow
	// KindHigh is the least-concurrency point: the full MaxStackDepth.
	KindHigh
)

// Level is one allocation design point for a kernel.
type Level struct {
	Kind LevelKind
	N    int // multiplier for KindNxLow
	// StackSlots is the per-warp register-stack size in warp-register
	// slots beyond the kernel base.
	StackSlots int
}

// Name renders the level like the paper ("Low", "2xLow", "High").
func (l Level) Name() string {
	switch l.Kind {
	case KindLow:
		return "Low"
	case KindHigh:
		return "High"
	default:
		return fmt.Sprintf("%dxLow", l.N)
	}
}

// Policy selects how the runtime chooses a level.
type Policy struct {
	// Adaptive enables the Fig. 5 state machine. When false, Forced is
	// used for every thread block (the per-mechanism study of Fig. 14).
	Adaptive bool
	Forced   Level
}

// AdaptivePolicy is the default CARS behaviour.
func AdaptivePolicy() Policy { return Policy{Adaptive: true} }

// ForcedPolicy pins every thread block to one design point.
func ForcedPolicy(l Level) Policy { return Policy{Forced: l} }

// Plan is the per-kernel-launch allocation plan derived from the
// call-graph analysis and the launch's other occupancy limits.
type Plan struct {
	// Base is the kernel's base register demand per warp (slots).
	Base int
	// Levels are the available design points, ascending by StackSlots,
	// ending with High.
	Levels []Level
	// HighFree is true when every warp can receive the High allocation
	// without reducing occupancy ("register space to spare", §III-B).
	HighFree bool
	// Cyclic marks recursive call graphs, where High does not guarantee
	// zero spills/fills (§III-C).
	Cyclic bool
	// MaxFRU is the largest single function FRU; every level's stack is
	// at least this big so any single frame fits the hardware stack.
	MaxFRU int
}

// NewPlan builds the level ladder for a kernel.
//
// maxWarpsOther is the warp count permitted by the non-register limits
// (threads, blocks, shared memory); regSlotsPerSM is the register file
// capacity in warp-register slots.
func NewPlan(a *callgraph.Analysis, maxWarpsOther, regSlotsPerSM int) *Plan {
	low := a.StackSlots(a.LowWatermark())
	high := max(a.StackSlots(a.HighWatermark()), low)
	p := newLadder(a.KernelBase, low, high, maxWarpsOther, regSlotsPerSM)
	p.Cyclic, p.MaxFRU = a.Cyclic, a.MaxFRU
	return p
}

// newLadder builds the Low, N×Low, High ladder over per-warp sizes
// low ≤ high beyond base: the shape NewPlan's register stacks and
// NewWindowPlan's RF-cache windows share.
func newLadder(base, low, high, maxWarpsOther, regSlotsPerSM int) *Plan {
	p := &Plan{Base: base}
	// A warp can never own more than the register file: cap High at the
	// capacity left beyond the base, keeping Low viable. Cyclic graphs
	// already assume one iteration, but a deep acyclic chain can still
	// overshoot.
	if maxStack := regSlotsPerSM - base; regSlotsPerSM > 0 && high > maxStack {
		high = max(maxStack, low)
	}
	if high == low {
		// Degenerate ladder (call-free kernels, single-frame recursion):
		// Low and High coincide, so emit the single High design point
		// rather than two levels with identical allocations.
		p.Levels = []Level{{Kind: KindHigh, StackSlots: high}}
	} else {
		p.Levels = append(p.Levels, Level{Kind: KindLow, N: 1, StackSlots: low})
		if low > 0 {
			// The N× sequence stops strictly below High: low*n == high
			// would duplicate the High allocation under an NxLow name.
			for n := 2; low*n < high; n *= 2 {
				p.Levels = append(p.Levels, Level{Kind: KindNxLow, N: n, StackSlots: low * n})
			}
		}
		p.Levels = append(p.Levels, Level{Kind: KindHigh, StackSlots: high})
	}
	if maxWarpsOther > 0 && regSlotsPerSM/maxWarpsOther >= base+high {
		p.HighFree = true
	}
	return p
}

// HighLevel returns the High design point.
func (p *Plan) HighLevel() Level { return p.Levels[len(p.Levels)-1] }

// LowLevel returns the Low design point.
func (p *Plan) LowLevel() Level { return p.Levels[0] }

// LevelIndex locates a level equal to l in the ladder (-1 if absent).
func (p *Plan) LevelIndex(l Level) int {
	for i, x := range p.Levels {
		if x.Kind == l.Kind && x.N == l.N {
			return i
		}
	}
	return -1
}

// RegsPerWarp returns the total per-warp register demand (slots) at a
// ladder index.
func (p *Plan) RegsPerWarp(levelIdx int) int {
	return p.Base + p.Levels[levelIdx].StackSlots
}

// levelPerf tracks the running average thread-block latency at a level.
type levelPerf struct {
	blocks int
	total  float64
}

func (l *levelPerf) record(cost float64) {
	l.blocks++
	l.total += cost
}

func (l *levelPerf) avg() float64 {
	if l.blocks == 0 {
		return 0
	}
	return l.total / float64(l.blocks)
}

// KernelState is the dynamic reservation state machine for one named
// kernel (Fig. 5). Performance of thread blocks at each allocation level
// is measured and recorded; each SM adjusts the level used for newly
// spawned thread blocks toward the best recorded neighbour. The
// best-performing allocation is remembered across launches of the same
// named kernel.
type KernelState struct {
	plan     *Plan
	perf     []levelPerf
	started  int // remembered starting level for the next launch, -1 none
	launches int
}

// Controller holds per-kernel dynamic state across launches.
type Controller struct {
	kernels map[string]*KernelState
}

// NewController builds an empty controller.
func NewController() *Controller { return &Controller{kernels: map[string]*KernelState{}} }

// Launch returns (creating if needed) the state machine for a kernel
// launch, rebinding it to the launch's plan. Level indices are preserved
// across launches because the ladder is derived from the same call graph.
func (c *Controller) Launch(kernel string, plan *Plan) *KernelState {
	ks, ok := c.kernels[kernel]
	if !ok || len(ks.perf) != len(plan.Levels) {
		ks = &KernelState{plan: plan, perf: make([]levelPerf, len(plan.Levels)), started: -1}
		c.kernels[kernel] = ks
	} else {
		ks.plan = plan
	}
	ks.launches++
	return ks
}

// InitialLevel picks the level for SM index sm at launch time.
//
// If High costs no occupancy, everyone gets High. On the first launch,
// half the SMs run Low and half High (§III-B); on later launches, all
// SMs start from the best level recorded previously.
func (k *KernelState) InitialLevel(sm int, policy Policy) int {
	if !policy.Adaptive {
		return k.plan.NearestLevel(policy.Forced)
	}
	if k.plan.HighFree {
		return len(k.plan.Levels) - 1
	}
	if k.started >= 0 {
		return k.started
	}
	if sm%2 == 0 {
		return 0
	}
	return len(k.plan.Levels) - 1
}

// Record registers a completed thread block at a level. resident is
// the number of blocks sharing the SM while it ran; the recorded cost
// is latency divided by concurrency, approximating SM-cycles consumed
// per block so that high-occupancy levels are not penalised for
// interleaving more blocks.
func (k *KernelState) Record(levelIdx int, cycles int64, resident int) {
	if resident < 1 {
		resident = 1
	}
	k.perf[levelIdx].record(float64(cycles) / float64(resident))
}

// NextLevel picks the level for the next thread block spawned by an SM
// currently at cur. With measurements at both ends of the ladder, the
// state machine walks one step toward the better-performing neighbour;
// otherwise it holds position.
func (k *KernelState) NextLevel(cur int, policy Policy) int {
	if !policy.Adaptive {
		return cur
	}
	if k.plan.HighFree {
		return cur
	}
	lo, hi := 0, len(k.plan.Levels)-1
	if k.perf[lo].blocks == 0 || k.perf[hi].blocks == 0 {
		if k.started >= 0 {
			// Later launches explore from the remembered level only.
			return k.walk(cur)
		}
		return cur // still warming up both halves
	}
	return k.walk(cur)
}

// walk moves cur one step toward the best measured level, considering
// the recorded performance of cur and its immediate neighbours.
func (k *KernelState) walk(cur int) int {
	best := cur
	bestAvg := k.avgOrInf(cur)
	if cur > 0 {
		if a := k.avgOrInf(cur - 1); a < bestAvg {
			best, bestAvg = cur-1, a
		}
	}
	if cur < len(k.plan.Levels)-1 {
		if a := k.avgOrInf(cur + 1); a < bestAvg {
			best, bestAvg = cur+1, a
		}
	}
	if best == cur {
		// Unexplored neighbours toward the far measured optimum are
		// worth one probe step: Fig. 5 moves Low SMs to 2xLow when High
		// wins, even though 2xLow has no measurements yet.
		lo, hi := 0, len(k.plan.Levels)-1
		if k.perf[lo].blocks > 0 && k.perf[hi].blocks > 0 {
			if k.perf[hi].avg() < k.perf[lo].avg() && cur < hi && k.perf[cur+1].blocks == 0 {
				return cur + 1
			}
			if k.perf[lo].avg() < k.perf[hi].avg() && cur > lo && k.perf[cur-1].blocks == 0 {
				return cur - 1
			}
		}
	}
	return best
}

func (k *KernelState) avgOrInf(i int) float64 {
	if k.perf[i].blocks == 0 {
		return 1e300
	}
	return k.perf[i].avg()
}

// FinishLaunch records the best level as the starting point for the
// next invocation of the same named kernel.
func (k *KernelState) FinishLaunch() {
	best, bestAvg := -1, 1e300
	for i := range k.perf {
		if k.perf[i].blocks > 0 && k.perf[i].avg() < bestAvg {
			best, bestAvg = i, k.perf[i].avg()
		}
	}
	if best >= 0 {
		k.started = best
	}
}

// BestLevel returns the best measured level index, or -1.
func (k *KernelState) BestLevel() int {
	best, bestAvg := -1, 1e300
	for i := range k.perf {
		if k.perf[i].blocks > 0 && k.perf[i].avg() < bestAvg {
			best, bestAvg = i, k.perf[i].avg()
		}
	}
	return best
}

// Blocks returns how many thread blocks have been measured at a level.
func (k *KernelState) Blocks(levelIdx int) int { return k.perf[levelIdx].blocks }

// Plan returns the plan the state machine is bound to.
func (k *KernelState) Plan() *Plan { return k.plan }

// NearestLevel returns the ladder index whose stack size is closest to
// the requested level's intent (exact match when present). Rounding can
// merge adjacent ladder points, so a forced "4xLow" resolves to the
// nearest distinct allocation rather than silently falling back to Low.
func (p *Plan) NearestLevel(l Level) int {
	if i := p.LevelIndex(l); i >= 0 {
		return i
	}
	want := 0
	switch l.Kind {
	case KindLow:
		want = p.Levels[0].StackSlots
	case KindHigh:
		return len(p.Levels) - 1
	case KindNxLow:
		want = p.Levels[0].StackSlots * l.N
	}
	best, bestDiff := 0, 1<<30
	for i, x := range p.Levels {
		d := x.StackSlots - want
		if d < 0 {
			d = -d
		}
		if d < bestDiff {
			best, bestDiff = i, d
		}
	}
	return best
}
