// Package binfmt serialises linked programs to a compact ELF-like
// container and back.
//
// The paper's methodology (§V-C) dumps workload binaries and statically
// analyses their ELF symbol tables to recover kernel and device-function
// information for the call-graph pass. This package plays that role for
// the repo's toolchain: abi.Link produces a Program, binfmt writes it as
// a binary image with a section table and symbol table, and the
// analysis side (cmd/carsvet, tests) can reload it without access to
// the builder that produced it.
//
// Layout (all little-endian):
//
//	header:   magic "CARS" | version u32 | flags u32 | section count u32
//	sections: per section: kind u32 | offset u64 | size u64
//	  .code    one record per function: instruction array
//	  .symtab  one record per function: name, kind, regs, callee-saved,
//	           frame bytes, code index, FRU metadata
//	  .kernels kernel name -> function index
//	  .reloc   call-site relocations (function, pc, target, kind)
package binfmt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"maps"
	"slices"

	"carsgo/internal/isa"
)

// Magic identifies a carsgo binary image.
var Magic = [4]byte{'C', 'A', 'R', 'S'}

// Version is the current format version.
const Version = 1

// Section kinds.
const (
	secCode    = 1
	secSymtab  = 2
	secKernels = 3
	secReloc   = 4
)

// Flag bits.
const (
	// FlagCARS marks programs compiled with CARS push/pop micro-ops.
	FlagCARS = 1 << 0
)

// instrWords is the serialised instruction size in 32-bit words — four
// words (16 bytes), matching the contemporary-GPU instruction width the
// paper cites for Volta/Hopper.
const instrWords = 4

type sectionHeader struct {
	Kind   uint32
	Offset uint64
	Size   uint64
}

// Write serialises a linked program.
func Write(w io.Writer, p *isa.Program) error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("binfmt: refusing to write invalid program: %w", err)
	}
	code := encodeCode(p)
	symtab := encodeSymtab(p)
	kernels := encodeKernels(p)
	reloc := encodeReloc(p)

	var flags uint32
	if p.CARS {
		flags |= FlagCARS
	}

	var hdr bytes.Buffer
	hdr.Write(Magic[:])
	binary.Write(&hdr, binary.LittleEndian, uint32(Version))
	binary.Write(&hdr, binary.LittleEndian, flags)
	binary.Write(&hdr, binary.LittleEndian, uint32(4)) // section count

	sections := []struct {
		kind uint32
		data []byte
	}{
		{secCode, code},
		{secSymtab, symtab},
		{secKernels, kernels},
		{secReloc, reloc},
	}
	offset := uint64(hdr.Len()) + uint64(len(sections))*20
	var table bytes.Buffer
	for _, s := range sections {
		binary.Write(&table, binary.LittleEndian, sectionHeader{
			Kind: s.kind, Offset: offset, Size: uint64(len(s.data)),
		})
		offset += uint64(len(s.data))
	}
	if _, err := w.Write(hdr.Bytes()); err != nil {
		return err
	}
	if _, err := w.Write(table.Bytes()); err != nil {
		return err
	}
	for _, s := range sections {
		if _, err := w.Write(s.data); err != nil {
			return err
		}
	}
	return nil
}

// Read loads a program image and validates it.
func Read(r io.Reader) (*isa.Program, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(raw) < 16 || !bytes.Equal(raw[:4], Magic[:]) {
		return nil, fmt.Errorf("binfmt: bad magic")
	}
	version := binary.LittleEndian.Uint32(raw[4:8])
	if version != Version {
		return nil, fmt.Errorf("binfmt: unsupported version %d", version)
	}
	flags := binary.LittleEndian.Uint32(raw[8:12])
	nsec := binary.LittleEndian.Uint32(raw[12:16])
	if nsec > 16 {
		return nil, fmt.Errorf("binfmt: implausible section count %d", nsec)
	}
	secs := map[uint32][]byte{}
	pos := 16
	for i := uint32(0); i < nsec; i++ {
		if pos+20 > len(raw) {
			return nil, fmt.Errorf("binfmt: truncated section table")
		}
		kind := binary.LittleEndian.Uint32(raw[pos:])
		off := binary.LittleEndian.Uint64(raw[pos+4:])
		size := binary.LittleEndian.Uint64(raw[pos+12:])
		pos += 20
		if off+size > uint64(len(raw)) {
			return nil, fmt.Errorf("binfmt: section %d out of bounds", kind)
		}
		secs[kind] = raw[off : off+size]
	}

	p := &isa.Program{Kernels: map[string]int{}, CARS: flags&FlagCARS != 0}
	if err := decodeSymtab(secs[secSymtab], p); err != nil {
		return nil, err
	}
	if err := decodeCode(secs[secCode], p); err != nil {
		return nil, err
	}
	if err := decodeKernels(secs[secKernels], p); err != nil {
		return nil, err
	}
	if err := decodeReloc(secs[secReloc], p); err != nil {
		return nil, err
	}
	maxRegs := 0
	for _, f := range p.Funcs {
		if f.RegsUsed > maxRegs {
			maxRegs = f.RegsUsed
		}
	}
	p.StaticRegsPerWarp = maxRegs
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("binfmt: image decodes to invalid program: %w", err)
	}
	return p, nil
}

// --- encoding helpers ---

func putString(b *bytes.Buffer, s string) {
	binary.Write(b, binary.LittleEndian, uint32(len(s)))
	b.WriteString(s)
}

func getString(r *bytes.Reader) (string, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if n > 4096 {
		return "", fmt.Errorf("binfmt: implausible string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// encodeInstr packs one instruction into 16 bytes:
//
//	word0: op | dst | srcA | srcB
//	word1: srcC | pdst | pred | (pneg|spill|cmp|sreg packed byte)
//	word2: imm (or callee for calls, target for branches)
//	word3: target2 | fru  (16 bits each)
func encodeInstr(b *bytes.Buffer, in *isa.Instruction) error {
	if in.Target2 > 0xFFFF || in.FRU > 0xFFFF || in.Target > 1<<30 || in.Callee > 1<<30 {
		return fmt.Errorf("binfmt: instruction field overflow: %+v", *in)
	}
	var meta uint8
	if in.PNeg {
		meta |= 1 << 0
	}
	if in.Spill {
		meta |= 1 << 1
	}
	meta |= uint8(in.Cmp) << 2 // 3 bits
	meta |= uint8(in.Sreg) << 5

	b.WriteByte(uint8(in.Op))
	b.WriteByte(in.Dst)
	b.WriteByte(in.SrcA)
	b.WriteByte(in.SrcB)
	b.WriteByte(in.SrcC)
	b.WriteByte(in.PDst)
	b.WriteByte(in.Pred)
	b.WriteByte(meta)
	word2 := uint32(in.Imm)
	switch in.Op {
	case isa.OpCall:
		word2 = uint32(in.Callee)
	case isa.OpBra, isa.OpSSY:
		word2 = uint32(in.Target)
	}
	binary.Write(b, binary.LittleEndian, word2)
	binary.Write(b, binary.LittleEndian, uint16(in.Target2))
	binary.Write(b, binary.LittleEndian, uint16(in.FRU))
	return nil
}

func decodeInstr(raw []byte) isa.Instruction {
	in := isa.Instruction{
		Op:   isa.Op(raw[0]),
		Dst:  raw[1],
		SrcA: raw[2],
		SrcB: raw[3],
		SrcC: raw[4],
		PDst: raw[5],
		Pred: raw[6],
	}
	meta := raw[7]
	in.PNeg = meta&1 != 0
	in.Spill = meta&2 != 0
	in.Cmp = isa.CmpKind(meta >> 2 & 0x7)
	in.Sreg = isa.Special(meta >> 5)
	word2 := binary.LittleEndian.Uint32(raw[8:12])
	switch in.Op {
	case isa.OpCall:
		in.Callee = int(word2)
	case isa.OpBra, isa.OpSSY:
		in.Target = int(word2)
	case isa.OpCallI:
		in.Callee = -1
	default:
		in.Imm = int32(word2)
	}
	in.Target2 = int(binary.LittleEndian.Uint16(raw[12:14]))
	in.FRU = int(binary.LittleEndian.Uint16(raw[14:16]))
	return in
}

func encodeCode(p *isa.Program) []byte {
	var b bytes.Buffer
	binary.Write(&b, binary.LittleEndian, uint32(len(p.Funcs)))
	for _, f := range p.Funcs {
		binary.Write(&b, binary.LittleEndian, uint32(len(f.Code)))
		for i := range f.Code {
			if err := encodeInstr(&b, &f.Code[i]); err != nil {
				panic(err) // Validate()d programs cannot overflow
			}
		}
	}
	return b.Bytes()
}

func decodeCode(raw []byte, p *isa.Program) error {
	r := bytes.NewReader(raw)
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return fmt.Errorf("binfmt: code section: %w", err)
	}
	if int(n) != len(p.Funcs) {
		return fmt.Errorf("binfmt: code has %d functions, symtab %d", n, len(p.Funcs))
	}
	buf := make([]byte, instrWords*4)
	for _, f := range p.Funcs {
		var ninstr uint32
		if err := binary.Read(r, binary.LittleEndian, &ninstr); err != nil {
			return err
		}
		if ninstr > 1<<20 {
			return fmt.Errorf("binfmt: implausible code size %d", ninstr)
		}
		f.Code = make([]isa.Instruction, ninstr)
		for i := range f.Code {
			if _, err := io.ReadFull(r, buf); err != nil {
				return err
			}
			f.Code[i] = decodeInstr(buf)
		}
	}
	return nil
}

func encodeSymtab(p *isa.Program) []byte {
	var b bytes.Buffer
	binary.Write(&b, binary.LittleEndian, uint32(len(p.Funcs)))
	for _, f := range p.Funcs {
		putString(&b, f.Name)
		var kind uint8
		if f.IsKernel {
			kind = 1
		}
		b.WriteByte(kind)
		binary.Write(&b, binary.LittleEndian, uint16(f.RegsUsed))
		binary.Write(&b, binary.LittleEndian, uint16(f.CalleeSaved))
		binary.Write(&b, binary.LittleEndian, uint32(f.LocalFrameBytes))
	}
	return b.Bytes()
}

func decodeSymtab(raw []byte, p *isa.Program) error {
	r := bytes.NewReader(raw)
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return fmt.Errorf("binfmt: symtab: %w", err)
	}
	if n > 1<<16 {
		return fmt.Errorf("binfmt: implausible function count %d", n)
	}
	for i := uint32(0); i < n; i++ {
		name, err := getString(r)
		if err != nil {
			return err
		}
		kind, err := r.ReadByte()
		if err != nil {
			return err
		}
		var regs, saved uint16
		var frame uint32
		if err := binary.Read(r, binary.LittleEndian, &regs); err != nil {
			return err
		}
		if err := binary.Read(r, binary.LittleEndian, &saved); err != nil {
			return err
		}
		if err := binary.Read(r, binary.LittleEndian, &frame); err != nil {
			return err
		}
		p.Funcs = append(p.Funcs, &isa.Function{
			Name:            name,
			IsKernel:        kind == 1,
			RegsUsed:        int(regs),
			CalleeSaved:     int(saved),
			LocalFrameBytes: int(frame),
		})
	}
	return nil
}

// encodeKernels writes the kernel table sorted by name, so one
// program always encodes to the same bytes.
func encodeKernels(p *isa.Program) []byte {
	var b bytes.Buffer
	binary.Write(&b, binary.LittleEndian, uint32(len(p.Kernels)))
	for _, name := range slices.Sorted(maps.Keys(p.Kernels)) {
		putString(&b, name)
		binary.Write(&b, binary.LittleEndian, uint32(p.Kernels[name]))
	}
	return b.Bytes()
}

func decodeKernels(raw []byte, p *isa.Program) error {
	r := bytes.NewReader(raw)
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return fmt.Errorf("binfmt: kernels: %w", err)
	}
	for i := uint32(0); i < n; i++ {
		name, err := getString(r)
		if err != nil {
			return err
		}
		var idx uint32
		if err := binary.Read(r, binary.LittleEndian, &idx); err != nil {
			return err
		}
		p.Kernels[name] = int(idx)
	}
	return nil
}

// encodeReloc stores per-function call metadata the ELF symbol table
// alone cannot express: resolved direct callees and indirect candidate
// sets (what nvlink's -dump-callgraph provides, §V-C).
func encodeReloc(p *isa.Program) []byte {
	var b bytes.Buffer
	binary.Write(&b, binary.LittleEndian, uint32(len(p.Funcs)))
	for _, f := range p.Funcs {
		binary.Write(&b, binary.LittleEndian, uint32(len(f.Callees)))
		for _, c := range f.Callees {
			binary.Write(&b, binary.LittleEndian, uint32(c))
		}
		binary.Write(&b, binary.LittleEndian, uint32(len(f.IndirectTargets)))
		for _, cands := range f.IndirectTargets {
			binary.Write(&b, binary.LittleEndian, uint32(len(cands)))
			for _, c := range cands {
				binary.Write(&b, binary.LittleEndian, uint32(c))
			}
		}
	}
	return b.Bytes()
}

func decodeReloc(raw []byte, p *isa.Program) error {
	r := bytes.NewReader(raw)
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return fmt.Errorf("binfmt: reloc: %w", err)
	}
	if int(n) != len(p.Funcs) {
		return fmt.Errorf("binfmt: reloc count mismatch")
	}
	readU32 := func() (uint32, error) {
		var v uint32
		err := binary.Read(r, binary.LittleEndian, &v)
		return v, err
	}
	for _, f := range p.Funcs {
		nc, err := readU32()
		if err != nil {
			return err
		}
		if nc > 1<<16 {
			return fmt.Errorf("binfmt: implausible callee count")
		}
		for i := uint32(0); i < nc; i++ {
			c, err := readU32()
			if err != nil {
				return err
			}
			f.Callees = append(f.Callees, int(c))
		}
		ni, err := readU32()
		if err != nil {
			return err
		}
		if ni > 1<<16 {
			return fmt.Errorf("binfmt: implausible indirect count")
		}
		for i := uint32(0); i < ni; i++ {
			ncand, err := readU32()
			if err != nil {
				return err
			}
			if ncand > 1<<12 {
				return fmt.Errorf("binfmt: implausible candidate count")
			}
			var cands []int
			for j := uint32(0); j < ncand; j++ {
				c, err := readU32()
				if err != nil {
					return err
				}
				cands = append(cands, int(c))
			}
			f.IndirectTargets = append(f.IndirectTargets, cands)
		}
	}
	return nil
}
