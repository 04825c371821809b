// `serve promlint FILE` — validates a Prometheus text exposition
// (format 0.0.4) with exposition.Lint, whose doc lists the checked
// invariants, so CI can gate the /metrics surface without the real
// promlint tool.

package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/exposition"
)

func cmdPromlint(args []string) error {
	fs := flag.NewFlagSet("serve promlint", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("promlint: want exactly one FILE (- = stdin)")
	}
	var data []byte
	var err error
	if fs.Arg(0) == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(fs.Arg(0))
	}
	if err != nil {
		return err
	}
	problems, families, samples := exposition.Lint(data)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "promlint:", p)
	}
	if len(problems) > 0 {
		return fmt.Errorf("promlint: %d problem(s) in %s", len(problems), fs.Arg(0))
	}
	fmt.Printf("promlint: OK — %s (%d families, %d samples)\n", fs.Arg(0), families, samples)
	return nil
}
