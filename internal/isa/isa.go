// Package isa implements the formal P-RAM processor model: each processor
// is a RAM executing instructions fetched from a private program (Fortune &
// Wyllie 1978 — the definition the paper's Section 1 adopts). The package
// provides a small word-RAM assembly language, a two-pass assembler, and a
// VM that binds an assembled program to the execution harness, so P-RAM
// algorithms can be written as actual RAM programs rather than Go closures
// and still run on every simulated machine.
//
// Instruction set (registers r0..r15; `(rX)` is an indirect address):
//
//	loadi r, imm        r ← imm
//	mov   r, s          r ← s
//	add|sub|mul|div|mod r, s, t
//	and|or|xor|shl|shr  r, s, t
//	slt   r, s, t       r ← 1 if s < t else 0
//	seq   r, s, t       r ← 1 if s = t else 0
//	id    r             r ← processor id
//	nprocs r            r ← processor count
//	load  r, (s)        r ← private[s]
//	store (s), r        private[s] ← r
//	read  r, (s)        r ← SHARED[s]     (one P-RAM step)
//	write (s), r        SHARED[s] ← r     (one P-RAM step)
//	sync                idle P-RAM step
//	jmp  label
//	beqz r, label       branch if r = 0
//	bnez r, label       branch if r ≠ 0
//	halt
//
// Comments run from ';' or '#' to end of line; labels are `name:` on their
// own or before an instruction. Local (non-memory) instructions are free,
// matching the harness convention that a step boundary is a shared-memory
// access.
package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// Op enumerates the instruction opcodes.
type Op uint8

// Opcodes.
const (
	OpLoadI Op = iota
	OpMov
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpSlt
	OpSeq
	OpID
	OpNProcs
	OpLoad
	OpStore
	OpRead
	OpWrite
	OpSync
	OpJmp
	OpBeqz
	OpBnez
	OpHalt
)

// NumRegs is the register-file size.
const NumRegs = 16

// Instr is one decoded instruction.
type Instr struct {
	Op      Op
	A, B, C int   // register operands
	Imm     int64 // immediate (loadi)
	Target  int   // resolved branch target (jmp/beqz/bnez)
	Line    int   // source line, for diagnostics
}

// Program is an assembled processor program.
type Program struct {
	Instrs []Instr
	Labels map[string]int
	Source string
}

// AsmError reports an assembly failure with its source line.
type AsmError struct {
	Line int
	Msg  string
}

// Error implements the error interface.
func (e *AsmError) Error() string { return fmt.Sprintf("isa: line %d: %s", e.Line, e.Msg) }

// Assemble parses and resolves src into a Program.
func Assemble(src string) (*Program, error) {
	p := &Program{Labels: map[string]int{}, Source: src}
	type patch struct {
		instr int
		label string
		line  int
	}
	var patches []patch

	lines := strings.Split(src, "\n")
	for ln, raw := range lines {
		line := raw
		if i := strings.IndexAny(line, ";#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Leading labels (possibly several).
		for {
			if i := strings.Index(line, ":"); i >= 0 && !strings.ContainsAny(line[:i], " \t,()") {
				label := strings.TrimSpace(line[:i])
				if label == "" {
					return nil, &AsmError{ln + 1, "empty label"}
				}
				if _, dup := p.Labels[label]; dup {
					return nil, &AsmError{ln + 1, "duplicate label " + label}
				}
				p.Labels[label] = len(p.Instrs)
				line = strings.TrimSpace(line[i+1:])
				if line == "" {
					break
				}
				continue
			}
			break
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(strings.ReplaceAll(line, ",", " "))
		if len(fields) == 0 { // only commas
			return nil, &AsmError{ln + 1, "missing mnemonic"}
		}
		mn := strings.ToLower(fields[0])
		args := fields[1:]
		in := Instr{Line: ln + 1}
		reg := func(s string) (int, error) {
			s = strings.ToLower(strings.TrimSpace(s))
			if !strings.HasPrefix(s, "r") {
				return 0, &AsmError{ln + 1, "expected register, got " + s}
			}
			k, err := strconv.Atoi(s[1:])
			if err != nil || k < 0 || k >= NumRegs {
				return 0, &AsmError{ln + 1, "bad register " + s}
			}
			return k, nil
		}
		ind := func(s string) (int, error) {
			s = strings.TrimSpace(s)
			if !strings.HasPrefix(s, "(") || !strings.HasSuffix(s, ")") {
				return 0, &AsmError{ln + 1, "expected (rX), got " + s}
			}
			return reg(s[1 : len(s)-1])
		}
		need := func(k int) error {
			if len(args) != k {
				return &AsmError{ln + 1, fmt.Sprintf("%s wants %d operands, got %d", mn, k, len(args))}
			}
			return nil
		}
		var err error
		switch mn {
		case "loadi":
			if err = need(2); err == nil {
				if in.A, err = reg(args[0]); err == nil {
					in.Imm, err = strconv.ParseInt(args[1], 0, 64)
					if err != nil {
						err = &AsmError{ln + 1, "bad immediate " + args[1]}
					}
				}
			}
			in.Op = OpLoadI
		case "mov":
			in.Op = OpMov
			err = twoRegs(&in, args, need, reg)
		case "add", "sub", "mul", "div", "mod", "and", "or", "xor", "shl", "shr", "slt", "seq":
			in.Op = map[string]Op{"add": OpAdd, "sub": OpSub, "mul": OpMul,
				"div": OpDiv, "mod": OpMod, "and": OpAnd, "or": OpOr,
				"xor": OpXor, "shl": OpShl, "shr": OpShr, "slt": OpSlt, "seq": OpSeq}[mn]
			err = threeRegs(&in, args, need, reg)
		case "id":
			in.Op = OpID
			if err = need(1); err == nil {
				in.A, err = reg(args[0])
			}
		case "nprocs":
			in.Op = OpNProcs
			if err = need(1); err == nil {
				in.A, err = reg(args[0])
			}
		case "load":
			in.Op = OpLoad
			if err = need(2); err == nil {
				if in.A, err = reg(args[0]); err == nil {
					in.B, err = ind(args[1])
				}
			}
		case "store":
			in.Op = OpStore
			if err = need(2); err == nil {
				if in.B, err = ind(args[0]); err == nil {
					in.A, err = reg(args[1])
				}
			}
		case "read":
			in.Op = OpRead
			if err = need(2); err == nil {
				if in.A, err = reg(args[0]); err == nil {
					in.B, err = ind(args[1])
				}
			}
		case "write":
			in.Op = OpWrite
			if err = need(2); err == nil {
				if in.B, err = ind(args[0]); err == nil {
					in.A, err = reg(args[1])
				}
			}
		case "sync":
			in.Op = OpSync
			err = need(0)
		case "jmp":
			in.Op = OpJmp
			if err = need(1); err == nil {
				patches = append(patches, patch{len(p.Instrs), args[0], ln + 1})
			}
		case "beqz", "bnez":
			if mn == "beqz" {
				in.Op = OpBeqz
			} else {
				in.Op = OpBnez
			}
			if err = need(2); err == nil {
				if in.A, err = reg(args[0]); err == nil {
					patches = append(patches, patch{len(p.Instrs), args[1], ln + 1})
				}
			}
		case "halt":
			in.Op = OpHalt
			err = need(0)
		default:
			err = &AsmError{ln + 1, "unknown mnemonic " + mn}
		}
		if err != nil {
			return nil, err
		}
		p.Instrs = append(p.Instrs, in)
	}
	for _, pt := range patches {
		tgt, ok := p.Labels[pt.label]
		if !ok {
			return nil, &AsmError{pt.line, "undefined label " + pt.label}
		}
		p.Instrs[pt.instr].Target = tgt
	}
	return p, nil
}

func twoRegs(in *Instr, args []string, need func(int) error, reg func(string) (int, error)) error {
	if err := need(2); err != nil {
		return err
	}
	var err error
	if in.A, err = reg(args[0]); err != nil {
		return err
	}
	in.B, err = reg(args[1])
	return err
}

func threeRegs(in *Instr, args []string, need func(int) error, reg func(string) (int, error)) error {
	if err := need(3); err != nil {
		return err
	}
	var err error
	if in.A, err = reg(args[0]); err != nil {
		return err
	}
	if in.B, err = reg(args[1]); err != nil {
		return err
	}
	in.C, err = reg(args[2])
	return err
}
