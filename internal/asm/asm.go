// Package asm provides a SASS-like text assembly format for pre-ABI
// modules: a human-readable twin of the kir builder. The paper's
// methodology reads SASS text to recover register usage per function
// (§V-C); this package closes the loop in the other direction, letting
// programs be written, versioned, and diffed as text.
//
// Syntax (one instruction per line; ';' or '//' start comments):
//
//	.func sqsum callee_saved=2 extra_local=0
//	    MOV   R16, R4          ; save x
//	    IMUL  R17, R16, R16
//	    IADDI R4, R4, 1
//	    CALL  helper
//	    IADD  R4, R4, R17
//	    RET
//
//	.kernel main
//	    S2R   R8, SR_TID
//	    MOV   R4, R8
//	    CALL  sqsum
//	    STG   [R19+0], R4
//	    EXIT
//
// Labels (`name:`) mark branch targets; predicated instructions take a
// leading `@P0` / `@!P3` guard. Branches name their target label and,
// for divergence, the reconvergence label: `@P0 BRA body, done`.
// Indirect calls list their static candidates: `CALLI [R8], va, vb`.
// `MOVF Rn, fname` loads a function's linked index (MovFuncIdx).
package asm

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"carsgo/internal/isa"
	"carsgo/internal/kir"
)

// Parse reads a module in assembly text form.
func Parse(r io.Reader) (*kir.Module, error) {
	p := &parser{module: &kir.Module{Name: "asm"}}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		p.line++
		if err := p.parseLine(sc.Text()); err != nil {
			return nil, fmt.Errorf("asm: line %d: %w", p.line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := p.finishFunc(); err != nil {
		return nil, err
	}
	if len(p.module.Funcs) == 0 {
		return nil, fmt.Errorf("asm: no functions")
	}
	return p.module, nil
}

// ParseString is Parse over a string.
func ParseString(s string) (*kir.Module, error) { return Parse(strings.NewReader(s)) }

type pendingBranch struct {
	instr  int
	target string
	reconv string
	line   int
}

type parser struct {
	module *kir.Module
	line   int

	cur      *kir.Func
	labels   map[string]int
	branches []pendingBranch
	maxReg   int
}

func (p *parser) parseLine(raw string) error {
	line := raw
	if i := strings.IndexAny(line, ";"); i >= 0 {
		line = line[:i]
	}
	if i := strings.Index(line, "//"); i >= 0 {
		line = line[:i]
	}
	line = strings.TrimSpace(line)
	if line == "" {
		return nil
	}

	if strings.HasPrefix(line, ".func") || strings.HasPrefix(line, ".kernel") {
		if err := p.finishFunc(); err != nil {
			return err
		}
		return p.startFunc(line)
	}
	if p.cur == nil {
		return fmt.Errorf("instruction outside a .func/.kernel block")
	}
	if strings.HasSuffix(line, ":") && !strings.ContainsAny(line, " \t") {
		name := strings.TrimSuffix(line, ":")
		if _, dup := p.labels[name]; dup {
			return fmt.Errorf("duplicate label %q", name)
		}
		p.labels[name] = len(p.cur.Code)
		return nil
	}
	return p.parseInstr(line)
}

func (p *parser) startFunc(line string) error {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return fmt.Errorf("%s needs a name", fields[0])
	}
	f := &kir.Func{
		Name:     fields[1],
		IsKernel: fields[0] == ".kernel",
		FuncRefs: map[int]string{},
	}
	for _, opt := range fields[2:] {
		k, v, ok := strings.Cut(opt, "=")
		if !ok {
			return fmt.Errorf("bad option %q", opt)
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("bad option value %q", opt)
		}
		switch k {
		case "callee_saved":
			f.CalleeSaved = n
		case "extra_local":
			f.ExtraLocalBytes = n
		default:
			return fmt.Errorf("unknown option %q", k)
		}
	}
	p.cur = f
	p.labels = map[string]int{}
	p.branches = nil
	p.maxReg = 0
	if f.CalleeSaved > 0 {
		p.maxReg = isa.FirstCalleeSaved + f.CalleeSaved
	}
	return nil
}

func (p *parser) finishFunc() error {
	if p.cur == nil {
		return nil
	}
	// Resolve branch labels.
	for _, b := range p.branches {
		t, ok := p.labels[b.target]
		if !ok {
			return fmt.Errorf("asm: line %d: undefined label %q", b.line, b.target)
		}
		p.cur.Code[b.instr].Target = t
		r := t
		if b.reconv != "" {
			r, ok = p.labels[b.reconv]
			if !ok {
				return fmt.Errorf("asm: line %d: undefined reconvergence label %q", b.line, b.reconv)
			}
		}
		p.cur.Code[b.instr].Target2 = r
	}
	if len(p.cur.Code) == 0 {
		return fmt.Errorf("asm: function %s is empty", p.cur.Name)
	}
	last := p.cur.Code[len(p.cur.Code)-1].Op
	if p.cur.IsKernel && last != isa.OpExit {
		return fmt.Errorf("asm: kernel %s must end with EXIT", p.cur.Name)
	}
	if !p.cur.IsKernel && last != isa.OpRet {
		return fmt.Errorf("asm: func %s must end with RET", p.cur.Name)
	}
	p.cur.RegsUsed = p.maxReg
	p.module.AddFunc(p.cur)
	p.cur = nil
	return nil
}

func (p *parser) touch(r uint8) {
	if r != isa.NoReg && int(r)+1 > p.maxReg {
		p.maxReg = int(r) + 1
	}
}

// reg parses "R12". R255 is not addressable: its encoding is
// isa.NoReg, "no register".
func reg(tok string) (uint8, error) {
	if len(tok) < 2 || (tok[0] != 'R' && tok[0] != 'r') {
		return 0, fmt.Errorf("expected register, got %q", tok)
	}
	n, err := strconv.Atoi(tok[1:])
	if err != nil || n < 0 || n >= isa.NoReg {
		return 0, fmt.Errorf("bad register %q: R0-R%d are addressable (R%d encodes no register)",
			tok, isa.NoReg-1, isa.NoReg)
	}
	return uint8(n), nil
}

// pred parses "P3".
func pred(tok string) (uint8, error) {
	if len(tok) < 2 || (tok[0] != 'P' && tok[0] != 'p') {
		return 0, fmt.Errorf("expected predicate, got %q", tok)
	}
	n, err := strconv.Atoi(tok[1:])
	if err != nil || n < 0 || n > 7 {
		return 0, fmt.Errorf("bad predicate %q", tok)
	}
	return uint8(n), nil
}

func imm(tok string) (int32, error) {
	n, err := strconv.ParseInt(tok, 0, 64)
	if err != nil || n < -(1<<31) || n > (1<<31)-1 {
		return 0, fmt.Errorf("bad immediate %q", tok)
	}
	return int32(n), nil
}

// memRef parses "[R5+12]" or "[R5]".
func memRef(tok string) (uint8, int32, error) {
	if !strings.HasPrefix(tok, "[") || !strings.HasSuffix(tok, "]") {
		return 0, 0, fmt.Errorf("expected [Rn+off], got %q", tok)
	}
	inner := tok[1 : len(tok)-1]
	base, off, has := strings.Cut(inner, "+")
	r, err := reg(strings.TrimSpace(base))
	if err != nil {
		return 0, 0, err
	}
	if !has {
		return r, 0, nil
	}
	v, err := imm(strings.TrimSpace(off))
	if err != nil {
		return 0, 0, err
	}
	return r, v, nil
}

var cmpKinds = map[string]isa.CmpKind{
	"EQ": isa.CmpEQ, "NE": isa.CmpNE, "LT": isa.CmpLT,
	"LE": isa.CmpLE, "GT": isa.CmpGT, "GE": isa.CmpGE,
}

var specials = map[string]isa.Special{
	"SR_LANEID": isa.SrLaneID, "SR_TID": isa.SrTID, "SR_CTAID": isa.SrCTAID,
	"SR_NTID": isa.SrNTID, "SR_NCTAID": isa.SrNCTAID, "SR_WARPID": isa.SrWarpID,
}

// binary ALU mnemonics: register and immediate ("...I") forms.
var aluOps = map[string]isa.Op{
	"IADD": isa.OpIAdd, "ISUB": isa.OpISub, "IMUL": isa.OpIMul,
	"IMIN": isa.OpIMin, "IMAX": isa.OpIMax, "AND": isa.OpAnd,
	"OR": isa.OpOr, "XOR": isa.OpXor, "SHL": isa.OpShl, "SHR": isa.OpShr,
	"FADD": isa.OpFAdd, "FMUL": isa.OpFMul,
}

func (p *parser) parseInstr(line string) error {
	in := isa.Instruction{
		Dst: isa.NoReg, SrcA: isa.NoReg, SrcB: isa.NoReg, SrcC: isa.NoReg,
		Pred: isa.NoPred,
	}
	// Guard predicate.
	if strings.HasPrefix(line, "@") {
		guard, rest, _ := strings.Cut(line[1:], " ")
		if strings.HasPrefix(guard, "!") {
			in.PNeg = true
			guard = guard[1:]
		}
		pr, err := pred(guard)
		if err != nil {
			return err
		}
		in.Pred = pr
		line = strings.TrimSpace(rest)
	}

	mnemonic, rest, _ := strings.Cut(line, " ")
	mnemonic = strings.ToUpper(mnemonic)
	args := splitArgs(rest)

	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("%s expects %d operands, got %d", mnemonic, n, len(args))
		}
		return nil
	}

	// SETP.CC / SETPI.CC carry the comparison in the mnemonic.
	if strings.HasPrefix(mnemonic, "SETP") {
		base, cc, ok := strings.Cut(mnemonic, ".")
		if !ok {
			return fmt.Errorf("SETP needs a condition suffix")
		}
		kind, okc := cmpKinds[cc]
		if !okc {
			return fmt.Errorf("unknown condition %q", cc)
		}
		if err := need(3); err != nil {
			return err
		}
		pd, err := pred(args[0])
		if err != nil {
			return err
		}
		a, err := reg(args[1])
		if err != nil {
			return err
		}
		in.Op, in.PDst, in.SrcA, in.Cmp = isa.OpSetP, pd, a, kind
		switch base {
		case "SETP":
			b, err := reg(args[2])
			if err != nil {
				return err
			}
			in.SrcB = b
		case "SETPI":
			v, err := imm(args[2])
			if err != nil {
				return err
			}
			in.Imm = v
		default:
			return fmt.Errorf("unknown mnemonic %q", mnemonic)
		}
		p.emit(in)
		return nil
	}

	// Immediate forms of binary ALU ops.
	if op, ok := aluOps[strings.TrimSuffix(mnemonic, "I")]; ok && strings.HasSuffix(mnemonic, "I") && mnemonic != "MOVI" && mnemonic != "CALLI" {
		if err := need(3); err != nil {
			return err
		}
		d, err := reg(args[0])
		if err != nil {
			return err
		}
		a, err := reg(args[1])
		if err != nil {
			return err
		}
		v, err := imm(args[2])
		if err != nil {
			return err
		}
		in.Op, in.Dst, in.SrcA, in.Imm = op, d, a, v
		p.emit(in)
		return nil
	}
	if op, ok := aluOps[mnemonic]; ok {
		if err := need(3); err != nil {
			return err
		}
		d, err := reg(args[0])
		if err != nil {
			return err
		}
		a, err := reg(args[1])
		if err != nil {
			return err
		}
		b, err := reg(args[2])
		if err != nil {
			return err
		}
		in.Op, in.Dst, in.SrcA, in.SrcB = op, d, a, b
		p.emit(in)
		return nil
	}

	switch mnemonic {
	case "NOP":
		in.Op = isa.OpNop
	case "MOV":
		if err := need(2); err != nil {
			return err
		}
		d, err := reg(args[0])
		if err != nil {
			return err
		}
		a, err := reg(args[1])
		if err != nil {
			return err
		}
		in.Op, in.Dst, in.SrcA = isa.OpMov, d, a
	case "MOVI":
		if err := need(2); err != nil {
			return err
		}
		d, err := reg(args[0])
		if err != nil {
			return err
		}
		v, err := imm(args[1])
		if err != nil {
			return err
		}
		in.Op, in.Dst, in.Imm = isa.OpMovI, d, v
	case "MOVF":
		if err := need(2); err != nil {
			return err
		}
		d, err := reg(args[0])
		if err != nil {
			return err
		}
		in.Op, in.Dst = isa.OpMovI, d
		p.cur.FuncRefs[len(p.cur.Code)] = args[1]
	case "IMAD", "FFMA":
		if err := need(4); err != nil {
			return err
		}
		d, err := reg(args[0])
		if err != nil {
			return err
		}
		a, err := reg(args[1])
		if err != nil {
			return err
		}
		b, err := reg(args[2])
		if err != nil {
			return err
		}
		c, err := reg(args[3])
		if err != nil {
			return err
		}
		in.Dst, in.SrcA, in.SrcB, in.SrcC = d, a, b, c
		in.Op = isa.OpIMad
		if mnemonic == "FFMA" {
			in.Op = isa.OpFFma
		}
	case "FRCP", "FSQRT":
		if err := need(2); err != nil {
			return err
		}
		d, err := reg(args[0])
		if err != nil {
			return err
		}
		a, err := reg(args[1])
		if err != nil {
			return err
		}
		in.Dst, in.SrcA = d, a
		in.Op = isa.OpFRcp
		if mnemonic == "FSQRT" {
			in.Op = isa.OpFSqr
		}
	case "SEL":
		if err := need(4); err != nil {
			return err
		}
		d, err := reg(args[0])
		if err != nil {
			return err
		}
		a, err := reg(args[1])
		if err != nil {
			return err
		}
		b, err := reg(args[2])
		if err != nil {
			return err
		}
		pr, err := pred(args[3])
		if err != nil {
			return err
		}
		in.Op, in.Dst, in.SrcA, in.SrcB, in.Pred = isa.OpSel, d, a, b, pr
	case "S2R":
		if err := need(2); err != nil {
			return err
		}
		d, err := reg(args[0])
		if err != nil {
			return err
		}
		sr, ok := specials[strings.ToUpper(args[1])]
		if !ok {
			return fmt.Errorf("unknown special register %q", args[1])
		}
		in.Op, in.Dst, in.Sreg = isa.OpS2R, d, sr
	case "LDG", "LDL", "LDS":
		if err := need(2); err != nil {
			return err
		}
		d, err := reg(args[0])
		if err != nil {
			return err
		}
		a, off, err := memRef(args[1])
		if err != nil {
			return err
		}
		in.Dst, in.SrcA, in.Imm = d, a, off
		in.Op = map[string]isa.Op{"LDG": isa.OpLdG, "LDL": isa.OpLdL, "LDS": isa.OpLdS}[mnemonic]
	case "STG", "STL", "STS":
		if err := need(2); err != nil {
			return err
		}
		a, off, err := memRef(args[0])
		if err != nil {
			return err
		}
		v, err := reg(args[1])
		if err != nil {
			return err
		}
		in.SrcA, in.Imm, in.SrcC = a, off, v
		in.Op = map[string]isa.Op{"STG": isa.OpStG, "STL": isa.OpStL, "STS": isa.OpStS}[mnemonic]
	case "BRA":
		if len(args) < 1 || len(args) > 2 {
			return fmt.Errorf("BRA expects target[, reconv]")
		}
		in.Op = isa.OpBra
		b := pendingBranch{instr: len(p.cur.Code), target: args[0], line: p.line}
		if len(args) == 2 {
			b.reconv = args[1]
		}
		p.branches = append(p.branches, b)
	case "CALL":
		if err := need(1); err != nil {
			return err
		}
		in.Op = isa.OpCall
		in.Callee = len(p.cur.CallNames)
		p.cur.CallNames = append(p.cur.CallNames, args[0])
	case "CALLI":
		if len(args) < 2 {
			return fmt.Errorf("CALLI expects [Rn] plus candidate targets")
		}
		a, _, err := memRef(args[0])
		if err != nil {
			return err
		}
		in.Op, in.SrcA, in.Callee = isa.OpCallI, a, -1
		p.cur.IndirectTargets = append(p.cur.IndirectTargets, args[1:])
	case "RET":
		in.Op = isa.OpRet
	case "EXIT":
		in.Op = isa.OpExit
	case "BAR.SYNC", "BAR":
		in.Op = isa.OpBar
	default:
		return fmt.Errorf("unknown mnemonic %q", mnemonic)
	}
	p.emit(in)
	return nil
}

func (p *parser) emit(in isa.Instruction) {
	p.touch(in.Dst)
	p.touch(in.SrcA)
	p.touch(in.SrcB)
	p.touch(in.SrcC)
	p.cur.Code = append(p.cur.Code, in)
}

func splitArgs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		a = strings.TrimSpace(a)
		if a != "" {
			out = append(out, a)
		}
	}
	return out
}

// Format renders a pre-ABI module back to assembly text. The output
// parses back to an equivalent module (Format∘Parse is identity up to
// label naming and spacing).
func Format(m *kir.Module) string {
	var b strings.Builder
	for fi, f := range m.Funcs {
		if fi > 0 {
			b.WriteByte('\n')
		}
		formatFunc(&b, f)
	}
	return b.String()
}

func formatFunc(b *strings.Builder, f *kir.Func) {
	kind := ".func"
	if f.IsKernel {
		kind = ".kernel"
	}
	fmt.Fprintf(b, "%s %s", kind, f.Name)
	if f.CalleeSaved > 0 {
		fmt.Fprintf(b, " callee_saved=%d", f.CalleeSaved)
	}
	if f.ExtraLocalBytes > 0 {
		fmt.Fprintf(b, " extra_local=%d", f.ExtraLocalBytes)
	}
	b.WriteByte('\n')

	// Collect label positions from branch targets.
	labelAt := map[int]string{}
	var targets []int
	for i := range f.Code {
		in := &f.Code[i]
		if in.Op == isa.OpBra {
			targets = append(targets, in.Target, in.Target2)
		}
	}
	sort.Ints(targets)
	for _, t := range targets {
		if _, ok := labelAt[t]; !ok {
			labelAt[t] = fmt.Sprintf("L%d", len(labelAt))
		}
	}

	callIdx, indirectIdx := 0, 0
	for i := 0; i <= len(f.Code); i++ {
		if name, ok := labelAt[i]; ok {
			fmt.Fprintf(b, "%s:\n", name)
		}
		if i == len(f.Code) {
			break
		}
		in := &f.Code[i]
		b.WriteString("    ")
		if in.Pred != isa.NoPred && in.Op != isa.OpSel {
			if in.PNeg {
				fmt.Fprintf(b, "@!P%d ", in.Pred)
			} else {
				fmt.Fprintf(b, "@P%d ", in.Pred)
			}
		}
		formatInstr(b, f, in, labelAt, &callIdx, &indirectIdx, i)
		b.WriteByte('\n')
	}
}

func formatInstr(b *strings.Builder, f *kir.Func, in *isa.Instruction, labels map[int]string, callIdx, indirectIdx *int, pos int) {
	switch in.Op {
	case isa.OpNop:
		b.WriteString("NOP")
	case isa.OpMovI:
		if name, ok := f.FuncRefs[pos]; ok {
			fmt.Fprintf(b, "MOVF R%d, %s", in.Dst, name)
		} else {
			fmt.Fprintf(b, "MOVI R%d, %d", in.Dst, in.Imm)
		}
	case isa.OpMov:
		fmt.Fprintf(b, "MOV R%d, R%d", in.Dst, in.SrcA)
	case isa.OpIMad:
		fmt.Fprintf(b, "IMAD R%d, R%d, R%d, R%d", in.Dst, in.SrcA, in.SrcB, in.SrcC)
	case isa.OpFFma:
		fmt.Fprintf(b, "FFMA R%d, R%d, R%d, R%d", in.Dst, in.SrcA, in.SrcB, in.SrcC)
	case isa.OpFRcp:
		fmt.Fprintf(b, "FRCP R%d, R%d", in.Dst, in.SrcA)
	case isa.OpFSqr:
		fmt.Fprintf(b, "FSQRT R%d, R%d", in.Dst, in.SrcA)
	case isa.OpSel:
		fmt.Fprintf(b, "SEL R%d, R%d, R%d, P%d", in.Dst, in.SrcA, in.SrcB, in.Pred)
	case isa.OpSetP:
		if in.SrcB == isa.NoReg {
			fmt.Fprintf(b, "SETPI.%s P%d, R%d, %d", in.Cmp, in.PDst, in.SrcA, in.Imm)
		} else {
			fmt.Fprintf(b, "SETP.%s P%d, R%d, R%d", in.Cmp, in.PDst, in.SrcA, in.SrcB)
		}
	case isa.OpS2R:
		fmt.Fprintf(b, "S2R R%d, %s", in.Dst, in.Sreg)
	case isa.OpLdG, isa.OpLdL, isa.OpLdS:
		mn := map[isa.Op]string{isa.OpLdG: "LDG", isa.OpLdL: "LDL", isa.OpLdS: "LDS"}[in.Op]
		fmt.Fprintf(b, "%s R%d, [R%d+%d]", mn, in.Dst, in.SrcA, in.Imm)
	case isa.OpStG, isa.OpStL, isa.OpStS:
		mn := map[isa.Op]string{isa.OpStG: "STG", isa.OpStL: "STL", isa.OpStS: "STS"}[in.Op]
		fmt.Fprintf(b, "%s [R%d+%d], R%d", mn, in.SrcA, in.Imm, in.SrcC)
	case isa.OpBra:
		if in.Target2 != in.Target {
			fmt.Fprintf(b, "BRA %s, %s", labels[in.Target], labels[in.Target2])
		} else {
			fmt.Fprintf(b, "BRA %s", labels[in.Target])
		}
	case isa.OpCall:
		fmt.Fprintf(b, "CALL %s", f.CallNames[*callIdx])
		*callIdx++
	case isa.OpCallI:
		fmt.Fprintf(b, "CALLI [R%d], %s", in.SrcA, strings.Join(f.IndirectTargets[*indirectIdx], ", "))
		*indirectIdx++
	case isa.OpRet:
		b.WriteString("RET")
	case isa.OpExit:
		b.WriteString("EXIT")
	case isa.OpBar:
		b.WriteString("BAR.SYNC")
	default:
		// Binary ALU (register or immediate form).
		for mn, op := range aluOps {
			if op == in.Op {
				if in.SrcB == isa.NoReg {
					fmt.Fprintf(b, "%sI R%d, R%d, %d", mn, in.Dst, in.SrcA, in.Imm)
				} else {
					fmt.Fprintf(b, "%s R%d, R%d, R%d", mn, in.Dst, in.SrcA, in.SrcB)
				}
				return
			}
		}
		fmt.Fprintf(b, "; unknown op %d", in.Op)
	}
}
