package isa

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ideal"
	"repro/internal/machine"
	"repro/internal/model"
)

// treeSumAsm is the canonical EREW tree reduction written in P-RAM
// assembly: cell i starts with value i+1; cell 0 ends with n(n+1)/2.
// All processors execute identical instruction sequences (3 shared ops per
// round, actives doing read/read/write, passives sync/sync/sync), keeping
// lockstep.
const treeSumAsm = `
        id     r1            ; r1 = my id
        nprocs r2            ; r2 = n
        loadi  r3, 1         ; r3 = stride
round:  slt    r4, r3, r2    ; stride < n ?
        beqz   r4, done
        ; active iff id % (2*stride) == 0 and id+stride < n
        loadi  r5, 2
        mul    r5, r5, r3    ; r5 = 2*stride
        mod    r6, r1, r5    ; id % 2stride
        add    r7, r1, r3    ; id + stride
        slt    r8, r7, r2    ; (id+stride) < n
        seq    r9, r6, r0    ; id%2stride == 0  (r0 is always 0)
        and    r9, r9, r8
        beqz   r9, passive
        read   r10, (r1)     ; a = S[id]
        read   r11, (r7)     ; b = S[id+stride]
        add    r10, r10, r11
        write  (r1), r10     ; S[id] = a+b
        jmp    next
passive: sync
        sync
        sync
next:   loadi  r5, 2
        mul    r3, r3, r5    ; stride *= 2
        jmp    round
done:   halt
`

func TestAssembleTreeSum(t *testing.T) {
	p, err := Assemble(treeSumAsm)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Instrs) == 0 {
		t.Fatal("no instructions")
	}
	for _, l := range []string{"round", "done", "passive", "next"} {
		if _, ok := p.Labels[l]; !ok {
			t.Errorf("label %s missing", l)
		}
	}
}

func TestTreeSumRunsOnIdealAndDMMPC(t *testing.T) {
	prog, err := Assemble(treeSumAsm)
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	vals := make([]model.Word, n)
	for i := range vals {
		vals[i] = model.Word(i + 1)
	}
	backends := []model.Backend{
		ideal.New(n, n, model.EREW),
		core.NewDMMPC(n, core.Config{Mode: model.EREW}),
	}
	for _, b := range backends {
		b.LoadCells(0, vals)
		rep := machine.New(b).Run(Bind(prog, VMConfig{}))
		if err := rep.Err(); err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		if got := b.ReadCell(0); got != n*(n+1)/2 {
			t.Errorf("%s: sum = %d, want %d", b.Name(), got, n*(n+1)/2)
		}
	}
}

func TestArithmeticOps(t *testing.T) {
	src := `
        loadi r1, 10
        loadi r2, 3
        add   r3, r1, r2
        sub   r4, r1, r2
        mul   r5, r1, r2
        div   r6, r1, r2
        mod   r7, r1, r2
        and   r8, r1, r2
        or    r9, r1, r2
        xor   r10, r1, r2
        shl   r11, r1, r2
        shr   r12, r1, r2
        slt   r13, r2, r1
        seq   r14, r1, r1
        write (r0), r3    ; keep the harness engaged
        halt`
	prog, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	b := ideal.New(1, 4, model.CREW)
	var vm *VM
	machine.New(b).Run(func(p *machine.Proc) {
		vm = &VM{prog: prog, proc: p, priv: make([]int64, 16), fuel: 1000}
		vm.Run()
	})
	want := map[int]int64{3: 13, 4: 7, 5: 30, 6: 3, 7: 1, 8: 2, 9: 11,
		10: 9, 11: 80, 12: 1, 13: 1, 14: 1}
	for reg, v := range want {
		if vm.Reg(reg) != v {
			t.Errorf("r%d = %d, want %d", reg, vm.Reg(reg), v)
		}
	}
}

func TestPrivateMemory(t *testing.T) {
	src := `
        loadi r1, 42
        loadi r2, 7
        store (r2), r1
        load  r3, (r2)
        write (r0), r3
        halt`
	prog, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	b := ideal.New(1, 2, model.CREW)
	machine.New(b).Run(Bind(prog, VMConfig{PrivSize: 16}))
	if got := b.ReadCell(0); got != 42 {
		t.Errorf("private roundtrip = %d, want 42", got)
	}
}

func TestAssemblerErrors(t *testing.T) {
	cases := []struct{ src, frag string }{
		{"bogus r1, r2", "unknown mnemonic"},
		{"add r1, r2", "wants 3 operands"},
		{"loadi r99, 5", "bad register"},
		{"loadi r1, xyz", "bad immediate"},
		{"jmp nowhere", "undefined label"},
		{"x: loadi r1, 1\nx: halt", "duplicate label"},
		{"load r1, r2", "expected (rX)"},
		{",", "missing mnemonic"},
		{"lbl: ,", "missing mnemonic"},
	}
	for _, c := range cases {
		_, err := Assemble(c.src)
		if err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("src %q: err = %v, want fragment %q", c.src, err, c.frag)
		}
	}
}

func TestFuelExhaustionIsIsolated(t *testing.T) {
	prog, err := Assemble("spin: jmp spin")
	if err != nil {
		t.Fatal(err)
	}
	b := ideal.New(2, 4, model.CREW)
	rep := machine.New(b).RunEach(func(id int) machine.Program {
		if id == 0 {
			return Bind(prog, VMConfig{Fuel: 100})
		}
		return func(p *machine.Proc) { p.Write(1, 5) }
	})
	if len(rep.Panics) != 1 || !strings.Contains(rep.Panics[0].Error(), "fuel exhausted") {
		t.Errorf("runaway program not caught: %v", rep.Panics)
	}
	if b.ReadCell(1) != 5 {
		t.Error("healthy processor was disturbed")
	}
}

func TestDivisionByZeroCaught(t *testing.T) {
	prog, err := Assemble("loadi r1, 4\ndiv r2, r1, r0\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	b := ideal.New(1, 2, model.CREW)
	rep := machine.New(b).Run(Bind(prog, VMConfig{}))
	if len(rep.Panics) != 1 || !strings.Contains(rep.Panics[0].Error(), "division by zero") {
		t.Errorf("div-by-zero not caught: %v", rep.Panics)
	}
}

func TestPrivateOutOfRangeCaught(t *testing.T) {
	prog, err := Assemble("loadi r1, 9999999\nload r2, (r1)\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	b := ideal.New(1, 2, model.CREW)
	rep := machine.New(b).Run(Bind(prog, VMConfig{PrivSize: 8}))
	if len(rep.Panics) != 1 || !strings.Contains(rep.Panics[0].Error(), "private address") {
		t.Errorf("oob not caught: %v", rep.Panics)
	}
}

func TestCommentsAndLabelsOnOwnLines(t *testing.T) {
	src := `
; standalone comment
start:
        loadi r1, 1   # trailing comment
        write (r0), r1
        halt
`
	prog, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Labels["start"] != 0 {
		t.Errorf("label start = %d, want 0", prog.Labels["start"])
	}
}
