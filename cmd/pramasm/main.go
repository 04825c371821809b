// Command pramasm assembles a P-RAM assembly file (see package
// repro/internal/isa for the instruction set) and runs it SPMD — the same
// program on every processor — on a chosen machine model.
//
// Usage:
//
//	pramasm -backend dmmpc -n 16 -cells "1,2,3,4" prog.pram
//	pramasm -dump prog.pram          # assemble and list, don't run
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/model"

	pramsim "repro"
)

func main() {
	backendName := flag.String("backend", "ideal", "ideal, mpc, dmmpc, mot2d, luccio, schuster, hashed")
	n := flag.Int("n", 16, "processor count")
	mem := flag.Int("m", 0, "shared cells (default n²)")
	cells := flag.String("cells", "", "comma-separated initial values for cells 0..")
	mode := flag.String("mode", "crcw", "conflict mode: erew, crew, crcw, common or arbitrary")
	dump := flag.Bool("dump", false, "assemble and print the listing, do not run")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pramasm [flags] program.pram")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	prog, err := isa.Assemble(string(src))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *dump {
		fmt.Printf("%d instructions, labels: %v\n", len(prog.Instrs), prog.Labels)
		for i, in := range prog.Instrs {
			fmt.Printf("%4d: op=%-2d A=r%-2d B=r%-2d C=r%-2d imm=%-6d tgt=%d (line %d)\n",
				i, in.Op, in.A, in.B, in.C, in.Imm, in.Target, in.Line)
		}
		return
	}

	md, err := model.ParseMode(*mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	m := *mem
	if m == 0 {
		m = (*n) * (*n)
	}
	entry, ok := pramsim.LookupMachine(*backendName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown backend %q\n", *backendName)
		os.Exit(1)
	}
	b := entry.New(*n, m, md, 0)

	if *cells != "" {
		var vals []pramsim.Word
		for _, f := range strings.Split(*cells, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(f), 0, 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bad cell value %q\n", f)
				os.Exit(1)
			}
			vals = append(vals, v)
		}
		b.LoadCells(0, vals)
	}

	rep := machine.New(b).Run(isa.Bind(prog, isa.VMConfig{}))
	fmt.Printf("machine: %s\n", b.Name())
	fmt.Printf("steps=%d  sim time=%d  phases=%d  net cycles=%d\n",
		rep.Steps, rep.SimTime, rep.Phases, rep.NetworkCycles)
	if err := rep.Err(); err != nil {
		fmt.Printf("errors: %v\n", err)
	}
	limit := 16
	if m < limit {
		limit = m
	}
	fmt.Printf("cells[0..%d):", limit)
	for a := 0; a < limit; a++ {
		fmt.Printf(" %d", b.ReadCell(a))
	}
	fmt.Println()
}
