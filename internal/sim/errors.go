package sim

import (
	"errors"
	"fmt"
)

// ErrNoFit reports a launch whose single block can never be admitted:
// its shared-memory demand, the shared-spill frame included, exceeds
// one SM's capacity. RunContext returns it wrapped from launch
// validation, before any cycle runs.
var ErrNoFit = errors.New("launch exceeds shared-memory capacity")

// CancelError is the structured error RunContext returns when a
// launch's context is cancelled or its deadline expires mid-
// simulation: it records how far the launch got so callers (the carsd
// daemon, the -timeout CLI flags) can report a meaningful partial
// state instead of a bare context error. Unwrap exposes the
// underlying context error for errors.Is(ctx.Err()) checks.
type CancelError struct {
	Kernel      string // launched kernel name
	Cycles      int64  // simulated cycles completed before the cut
	BlocksDone  int
	TotalBlocks int
	Err         error // context.Canceled or context.DeadlineExceeded
}

func (e *CancelError) Error() string {
	return fmt.Sprintf("sim: kernel %q cancelled after %d cycles (%d/%d blocks done): %v",
		e.Kernel, e.Cycles, e.BlocksDone, e.TotalBlocks, e.Err)
}

func (e *CancelError) Unwrap() error { return e.Err }

// ExecError is a structured functional-execution fault: a condition
// the program's own code caused (divergent indirect target, invalid
// function index, register-stack misuse) rather than a simulator bug.
// It names the launch, the SM and warp that faulted, and the faulting
// instruction so callers can report or triage without a stack trace.
// GPU.Run returns it as its error value.
type ExecError struct {
	Kernel string // launched kernel name
	SM     int    // SM the warp was resident on
	Warp   int    // global warp id within the launch
	Func   string // function containing the faulting instruction
	PC     int    // instruction index within Func
	Msg    string
}

func (e *ExecError) Error() string {
	return fmt.Sprintf("sim: kernel %q: warp %d on SM %d at %s[%d]: %s",
		e.Kernel, e.Warp, e.SM, e.Func, e.PC, e.Msg)
}

// execFault aborts the current launch with an ExecError carrying the
// warp's current function and PC. The fault unwinds the simulation
// loop as a panic and is recovered into GPU.Run's error return — the
// functional core stays free of error plumbing on its hot paths.
func (s *SM) execFault(w *Warp, format string, args ...any) {
	e := &ExecError{SM: s.id, Msg: fmt.Sprintf(format, args...)}
	if s.gpu.launch != nil {
		e.Kernel = s.gpu.launch.Kernel
	}
	if w != nil {
		e.Warp = w.GWID
		if !w.SIMT.Empty() {
			top := w.SIMT.Top()
			e.PC = top.PC
			if top.Func >= 0 && top.Func < len(s.gpu.Prog.Funcs) {
				e.Func = s.gpu.Prog.Funcs[top.Func].Name
			}
		}
	}
	panic(e)
}
