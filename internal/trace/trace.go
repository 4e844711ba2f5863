// Package trace captures and analyses dynamic instruction traces from
// the simulator — the role NVBit plays in the paper's methodology
// (§V-A: "the traces are generated using NVBit").
//
// A Recorder attaches to a sim.GPU as its TraceSink and appends one
// compact event per issued warp-instruction. Traces serialise to a
// stream format with per-record delta compression (function and warp
// ids repeat heavily), and Summary recomputes workload characteristics
// — instruction mix, CPKI, per-function dynamic counts, call depth —
// from the trace alone, which tests cross-check against the
// simulator's own statistics.
package trace

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"strings"

	"carsgo/internal/isa"
)

// Event is one issued warp-instruction.
type Event struct {
	SM   uint8
	GWID uint32 // grid-global warp id
	Func uint32 // function index
	PC   uint32
	Op   isa.Op
	Mask uint32 // active lanes
}

// Recorder collects events in memory; it implements sim.TraceSink.
type Recorder struct {
	Events []Event

	// Cap bounds memory use; once reached, further events are counted
	// in Dropped instead of stored. Zero means unbounded.
	Cap     int
	Dropped uint64
}

// OnIssue appends one event (sim.TraceSink).
func (r *Recorder) OnIssue(sm, gwid int, fn, pc int, op isa.Op, mask uint32) {
	if r.Cap > 0 && len(r.Events) >= r.Cap {
		r.Dropped++
		return
	}
	r.Events = append(r.Events, Event{
		SM: uint8(sm), GWID: uint32(gwid), Func: uint32(fn),
		PC: uint32(pc), Op: op, Mask: mask,
	})
}

// traceMagic heads a serialised trace stream.
var traceMagic = [4]byte{'C', 'T', 'R', '1'}

// Write serialises events with delta compression: records carry a tag
// byte marking which fields changed since the previous record from the
// same encoder (warps issue long runs of sequential PCs in one
// function, so most records are 3-6 bytes).
func Write(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(traceMagic[:]); err != nil {
		return err
	}
	var count [8]byte
	binary.LittleEndian.PutUint64(count[:], uint64(len(events)))
	if _, err := bw.Write(count[:]); err != nil {
		return err
	}
	var prev Event
	for i := range events {
		e := events[i]
		var tag uint8
		if e.SM != prev.SM {
			tag |= 1 << 0
		}
		if e.GWID != prev.GWID {
			tag |= 1 << 1
		}
		if e.Func != prev.Func {
			tag |= 1 << 2
		}
		if e.PC != prev.PC+1 {
			tag |= 1 << 3
		}
		if e.Mask != prev.Mask {
			tag |= 1 << 4
		}
		bw.WriteByte(tag)
		bw.WriteByte(uint8(e.Op))
		if tag&(1<<0) != 0 {
			bw.WriteByte(e.SM)
		}
		if tag&(1<<1) != 0 {
			writeUvarint(bw, uint64(e.GWID))
		}
		if tag&(1<<2) != 0 {
			writeUvarint(bw, uint64(e.Func))
		}
		if tag&(1<<3) != 0 {
			writeUvarint(bw, uint64(e.PC))
		}
		if tag&(1<<4) != 0 {
			var m [4]byte
			binary.LittleEndian.PutUint32(m[:], e.Mask)
			bw.Write(m[:])
		}
		prev = e
	}
	return bw.Flush()
}

func writeUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

// Read deserialises a trace stream.
func Read(r io.Reader) ([]Event, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, err
	}
	if magic != traceMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	var countRaw [8]byte
	if _, err := io.ReadFull(br, countRaw[:]); err != nil {
		return nil, err
	}
	count := binary.LittleEndian.Uint64(countRaw[:])
	if count > 1<<32 {
		return nil, fmt.Errorf("trace: implausible event count %d", count)
	}
	events := make([]Event, 0, count)
	var prev Event
	for i := uint64(0); i < count; i++ {
		tag, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		opb, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		e := prev
		e.Op = isa.Op(opb)
		e.PC = prev.PC + 1
		if tag&(1<<0) != 0 {
			b, err := br.ReadByte()
			if err != nil {
				return nil, err
			}
			e.SM = b
		}
		if tag&(1<<1) != 0 {
			v, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			e.GWID = uint32(v)
		}
		if tag&(1<<2) != 0 {
			v, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			e.Func = uint32(v)
		}
		if tag&(1<<3) != 0 {
			v, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			e.PC = uint32(v)
		}
		if tag&(1<<4) != 0 {
			var m [4]byte
			if _, err := io.ReadFull(br, m[:]); err != nil {
				return nil, err
			}
			e.Mask = binary.LittleEndian.Uint32(m[:])
		}
		events = append(events, e)
		prev = e
	}
	return events, nil
}

// Summary holds workload characteristics recomputed from a trace.
type Summary struct {
	WarpInstructions uint64
	LaneInstructions uint64
	Calls            uint64
	Returns          uint64
	CPKI             float64
	MaxCallDepth     int

	// ByOp counts warp-instructions per opcode.
	ByOp map[isa.Op]uint64

	// ByFunc counts warp-instructions per function index.
	ByFunc map[uint32]uint64

	// SpillFillInstr counts local ops marked as ABI spills in prog.
	SpillFillInstr uint64
}

// Summarize analyses events against the program that produced them.
// prog may be nil, in which case spill classification is skipped.
func Summarize(events []Event, prog *isa.Program) *Summary {
	s := &Summary{ByOp: map[isa.Op]uint64{}, ByFunc: map[uint32]uint64{}}
	depth := map[uint32]int{}
	for i := range events {
		e := &events[i]
		s.WarpInstructions++
		s.LaneInstructions += uint64(popcount32(e.Mask))
		s.ByOp[e.Op]++
		s.ByFunc[e.Func]++
		switch {
		case e.Op.IsCall():
			s.Calls++
			depth[e.GWID]++
			if depth[e.GWID] > s.MaxCallDepth {
				s.MaxCallDepth = depth[e.GWID]
			}
		case e.Op == isa.OpRet:
			s.Returns++
			// Divergent early returns re-execute RET per path; depth
			// tracking is approximate under divergence, matching how
			// trace-based tools estimate it.
			if depth[e.GWID] > 0 {
				depth[e.GWID]--
			}
		}
		if prog != nil && e.Op.IsLocal() {
			fn := int(e.Func)
			if fn < len(prog.Funcs) && int(e.PC) < len(prog.Funcs[fn].Code) {
				if prog.Funcs[fn].Code[e.PC].Spill {
					s.SpillFillInstr++
				}
			}
		}
	}
	if s.WarpInstructions > 0 {
		s.CPKI = 1000 * float64(s.Calls) / float64(s.WarpInstructions)
	}
	return s
}

// OpCount is one opcode's warp-instruction count.
type OpCount struct {
	Op isa.Op
	N  uint64
}

// TopOps returns the n most frequent opcodes in ByOp, ranked by count
// and then by mnemonic, so tied counts come out in a fixed order.
func (s *Summary) TopOps(n int) []OpCount {
	ops := make([]OpCount, 0, len(s.ByOp))
	for op, c := range s.ByOp {
		ops = append(ops, OpCount{op, c})
	}
	slices.SortFunc(ops, func(a, b OpCount) int {
		return cmp.Or(cmp.Compare(b.N, a.N), strings.Compare(a.Op.String(), b.Op.String()), cmp.Compare(a.Op, b.Op))
	})
	return ops[:min(n, len(ops))]
}

func popcount32(m uint32) int {
	n := 0
	for m != 0 {
		m &= m - 1
		n++
	}
	return n
}
