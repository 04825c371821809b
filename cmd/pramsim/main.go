// Command pramsim runs a P-RAM workload on a chosen machine model and
// reports the simulated cost — the quickest way to see the paper's
// machines at work.
//
// Usage:
//
//	pramsim -backend mot2d -workload prefixsum -n 64
//	pramsim -backend all   -workload bitonicsort -n 32
//	pramsim -list
//
// Backends: ideal, mpc, dmmpc, mot2d, luccio, schuster, hashed, all.
// Workloads: treesum, prefixsum, broadcast, listrank, bitonicsort,
// matvec, permutation, hotspot.
//
// The exit status is 1 when any run fails: a processor panicked, a conflict
// rule was violated or the result did not verify. A machine too small for
// the workload is a skipped row, not a failure.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/stats"
	"repro/internal/workloads"

	pramsim "repro"
)

func workloadByName(name string, n int, seed int64) (pramsim.Workload, bool) {
	switch strings.ToLower(name) {
	case "treesum":
		return workloads.TreeSum(n, seed), true
	case "prefixsum":
		return workloads.PrefixSum(n, seed), true
	case "broadcast":
		return workloads.Broadcast(n, 42), true
	case "listrank":
		return workloads.ListRank(n, seed), true
	case "bitonicsort":
		return workloads.BitonicSort(n, seed), true
	case "matvec":
		return workloads.MatVec(n, 8, seed), true
	case "permutation":
		return workloads.Permutation(n, seed), true
	case "hotspot":
		return workloads.HotSpot(n), true
	}
	return pramsim.Workload{}, false
}

var allWorkloads = []string{"treesum", "prefixsum", "broadcast", "listrank",
	"bitonicsort", "matvec", "permutation", "hotspot"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, prints the table to stdout and
// returns the exit status, 1 if any run failed (a row skipped because the
// machine's memory is too small is not a failure).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pramsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	backend := fs.String("backend", "dmmpc", "machine model (or 'all')")
	workload := fs.String("workload", "prefixsum", "P-RAM program (or 'all')")
	n := fs.Int("n", 64, "processor count (power of two recommended)")
	seed := fs.Int64("seed", 1, "input/map seed")
	list := fs.Bool("list", false, "list backends and workloads")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	var allBackends []string
	for _, m := range pramsim.Machines {
		allBackends = append(allBackends, m.Name)
	}
	if *list {
		fmt.Fprintln(stdout, "backends: ", strings.Join(allBackends, ", "))
		fmt.Fprintln(stdout, "workloads:", strings.Join(allWorkloads, ", "))
		return 0
	}
	wNames := []string{*workload}
	if *workload == "all" {
		wNames = allWorkloads
	}
	bNames := []string{*backend}
	if *backend == "all" {
		bNames = allBackends
	}

	var ws []pramsim.Workload
	for _, wn := range wNames {
		w, ok := workloadByName(wn, *n, *seed)
		if !ok {
			fmt.Fprintf(stderr, "unknown workload %q (try -list)\n", wn)
			return 1
		}
		ws = append(ws, w)
	}
	return runTable(ws, bNames, *seed, stdout, stderr)
}

// runTable runs every workload on every named backend, prints the table to
// stdout and returns the exit status: 1 if any run failed.
func runTable(ws []pramsim.Workload, bNames []string, seed int64, stdout, stderr io.Writer) int {
	tb := stats.NewTable("workload", "backend", "PRAM steps", "sim time",
		"phases", "net cycles", "max module load", "wall", "ok")
	failed := 0
	for _, w := range ws {
		for _, bn := range bNames {
			m, ok := pramsim.LookupMachine(bn)
			if !ok {
				fmt.Fprintf(stderr, "unknown backend %q (try -list)\n", bn)
				return 1
			}
			b := m.New(w.Procs, w.Cells, w.Mode, seed)
			if b.MemSize() < w.Cells {
				tb.AddRow(w.Name, b.Name(), "-", "-", "-", "-", "-", "-", "memory too small")
				continue
			}
			start := time.Now()
			rep, err := pramsim.RunWorkload(w, b)
			wall := time.Since(start).Round(time.Microsecond)
			status := "verified"
			if err != nil {
				status = err.Error()
				failed++
			}
			tb.AddRow(w.Name, b.Name(), rep.Steps, rep.SimTime, rep.Phases,
				rep.NetworkCycles, rep.MaxContention, wall.String(), status)
		}
	}
	fmt.Fprint(stdout, tb.String())
	if failed > 0 {
		fmt.Fprintf(stderr, "pramsim: %d run(s) failed\n", failed)
		return 1
	}
	return 0
}
