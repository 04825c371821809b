// Command experiments regenerates the reproduction tables: E1–E8 test one
// claim of the paper each (Theorems 1–3, Lemma 2, Sections 1 and 3), and
// E9–E17 measure the conclusion's P-ROM, ablations, program slowdown and
// the serving sweeps. Each table prints the claim it tests; `experiments
// -list` names them all.
//
// Usage:
//
//	experiments            # run everything
//	experiments e3 e5     # run selected experiments
//	experiments -list     # list experiment ids
//	experiments -csv e14  # emit an experiment's table as CSV (sweeps)
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	list := flag.Bool("list", false, "list experiment ids and exit")
	markdown := flag.Bool("markdown", false, "emit markdown sections (EXPERIMENTS.md source format)")
	csv := flag.Bool("csv", false, "emit each experiment's table as CSV (sweep output format)")
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	ids := flag.Args()
	if len(ids) == 0 {
		ids = experiments.IDs()
	}
	exit := 0
	for _, id := range ids {
		start := time.Now()
		res, ok := experiments.Run(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", id)
			exit = 1
			continue
		}
		if *markdown {
			fmt.Println(res.Markdown())
			continue
		}
		if *csv {
			fmt.Print(res.Table.CSV())
			continue
		}
		fmt.Println(res.String())
		fmt.Printf("(%s finished in %v)\n\n", res.ID, time.Since(start).Round(time.Millisecond))
	}
	os.Exit(exit)
}
