package trace_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"carsgo/internal/abi"
	"carsgo/internal/config"
	"carsgo/internal/isa"
	"carsgo/internal/sim"
	"carsgo/internal/trace"
	"carsgo/internal/workloads"
)

func TestRoundTripRandomEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	events := make([]trace.Event, 5000)
	fn, pc, gwid := uint32(0), uint32(0), uint32(0)
	for i := range events {
		// Mimic real traces: long sequential runs with occasional jumps.
		switch rng.Intn(10) {
		case 0:
			fn = uint32(rng.Intn(8))
			pc = uint32(rng.Intn(100))
		case 1:
			gwid = uint32(rng.Intn(256))
		case 2:
			pc = uint32(rng.Intn(1000))
		default:
			pc++
		}
		events[i] = trace.Event{
			SM:   uint8(rng.Intn(8)),
			GWID: gwid,
			Func: fn,
			PC:   pc,
			Op:   isa.Op(rng.Intn(int(isa.OpPop) + 1)),
			Mask: rng.Uint32(),
		}
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events, got) {
		for i := range events {
			if events[i] != got[i] {
				t.Fatalf("event %d: %+v vs %+v", i, got[i], events[i])
			}
		}
	}
}

func TestCompression(t *testing.T) {
	// Sequential single-warp execution compresses far below the naive
	// 17 bytes/event.
	events := make([]trace.Event, 10000)
	for i := range events {
		events[i] = trace.Event{GWID: 3, Func: 1, PC: uint32(i), Op: isa.OpIAdd, Mask: ^uint32(0)}
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, events); err != nil {
		t.Fatal(err)
	}
	if perEvent := float64(buf.Len()) / float64(len(events)); perEvent > 3 {
		t.Errorf("sequential trace costs %.1f bytes/event", perEvent)
	}
}

func TestCorruptTraceRejected(t *testing.T) {
	if _, err := trace.Read(bytes.NewReader([]byte("nope"))); err == nil {
		t.Error("garbage accepted")
	}
	var buf bytes.Buffer
	trace.Write(&buf, []trace.Event{{Op: isa.OpNop}})
	raw := buf.Bytes()
	if _, err := trace.Read(bytes.NewReader(raw[:len(raw)-1])); err == nil {
		t.Error("truncated trace accepted")
	}
}

func TestRecorderCap(t *testing.T) {
	r := &trace.Recorder{Cap: 10}
	for i := 0; i < 25; i++ {
		r.OnIssue(0, 0, 0, i, isa.OpNop, 1)
	}
	if len(r.Events) != 10 || r.Dropped != 15 {
		t.Fatalf("cap: %d events, %d dropped", len(r.Events), r.Dropped)
	}
}

// TestTraceMatchesSimulatorStats is the cross-check: characteristics
// recomputed from the captured trace must equal the simulator's own
// counters — instruction counts exactly, CPKI to rounding.
func TestTraceMatchesSimulatorStats(t *testing.T) {
	w, err := workloads.ByName("SSSP")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := abi.Link(abi.Baseline, w.Modules()...)
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := sim.New(config.V100(), prog)
	if err != nil {
		t.Fatal(err)
	}
	rec := &trace.Recorder{}
	gpu.Trace = rec
	launches, err := w.Setup(gpu)
	if err != nil {
		t.Fatal(err)
	}
	var cycles int64
	var warpInstr, calls uint64
	for _, l := range launches {
		st, err := gpu.Run(l)
		if err != nil {
			t.Fatal(err)
		}
		cycles += st.Cycles
		warpInstr += st.TotalInstructions()
		calls += st.Calls
	}
	sum := trace.Summarize(rec.Events, prog)
	// Trap-injected spill ops are counted by the simulator's stats but
	// are not program instructions, so they never reach the trace; the
	// baseline run has none, making the counts exact.
	if sum.WarpInstructions != warpInstr {
		t.Errorf("trace instrs %d, sim %d", sum.WarpInstructions, warpInstr)
	}
	if sum.Calls != calls {
		t.Errorf("trace calls %d, sim %d", sum.Calls, calls)
	}
	if sum.MaxCallDepth != 3 {
		t.Errorf("trace call depth = %d, want 3", sum.MaxCallDepth)
	}
	if sum.SpillFillInstr == 0 {
		t.Error("trace found no spill instructions in a spilling workload")
	}
	if got := sum.ByOp[isa.OpCall] + sum.ByOp[isa.OpCallI]; got != calls {
		t.Errorf("per-op call count %d vs %d", got, calls)
	}
	_ = cycles
}

func TestSummaryEmpty(t *testing.T) {
	s := trace.Summarize(nil, nil)
	if s.CPKI != 0 || s.WarpInstructions != 0 {
		t.Fatal("empty trace summary not zero")
	}
}

func TestSummarizeByFuncAndOps(t *testing.T) {
	events := []trace.Event{
		{Func: 0, PC: 0, Op: isa.OpCall, Mask: 0xF},
		{Func: 1, PC: 0, Op: isa.OpIAdd, Mask: 0xF},
		{Func: 1, PC: 1, Op: isa.OpCall, Mask: 0xF},
		{Func: 2, PC: 0, Op: isa.OpRet, Mask: 0xF},
		{Func: 1, PC: 2, Op: isa.OpRet, Mask: 0xF},
	}
	s := trace.Summarize(events, nil)
	if s.WarpInstructions != 5 || s.Calls != 2 || s.Returns != 2 {
		t.Fatalf("summary: %+v", s)
	}
	if s.MaxCallDepth != 2 {
		t.Errorf("depth = %d", s.MaxCallDepth)
	}
	if s.ByFunc[1] != 3 {
		t.Errorf("byfunc: %v", s.ByFunc)
	}
	if s.LaneInstructions != 20 {
		t.Errorf("lanes = %d", s.LaneInstructions)
	}
	if s.ByOp[isa.OpCall] != 2 {
		t.Errorf("byop: %v", s.ByOp)
	}
}

// TestTopOpsTiedCounts: opcodes with equal counts rank by mnemonic,
// whatever order the ByOp map yields them in.
func TestTopOpsTiedCounts(t *testing.T) {
	s := &trace.Summary{ByOp: map[isa.Op]uint64{
		isa.OpShr: 8576, isa.OpCall: 8576, isa.OpRet: 8576, isa.OpPush: 8576,
		isa.OpSetP: 8576, isa.OpIAdd: 9000, isa.OpBra: 12,
	}}
	for _, c := range []struct {
		n    int
		want []string
	}{
		{0, nil},
		{1, []string{"IADD"}},
		{4, []string{"IADD", "CALL", "PUSH", "RET"}},
		{10, []string{"IADD", "CALL", "PUSH", "RET", "SETP", "SHR", "BRA"}},
	} {
		for range 20 {
			var got []string
			for _, oc := range s.TopOps(c.n) {
				got = append(got, oc.Op.String())
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("TopOps(%d) = %v, want %v", c.n, got, c.want)
			}
		}
	}
}
