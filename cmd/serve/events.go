// The events verb: serve a mix entirely in virtual time and write the
// server's event dump (the event log as Chrome/Perfetto JSON) — the
// offline twin of GET /debug/events. Load the output into
// https://ui.perfetto.dev (or chrome://tracing) to see each round
// decomposed into scheduling, partition, per-tenant wait, quorum and
// commit legs, per-shard routing and the closing merge on the virtual
// makespan clock, with admission events as instants on the same timeline.

package main

import (
	"flag"
	"fmt"
	"io"
	"os"
)

func cmdEvents(args []string) error {
	fs := flag.NewFlagSet("serve events", flag.ExitOnError)
	sf := addShared(fs)
	tenants := fs.String("tenants", "uniform,uniform", "tenant mix spec (see package doc)")
	arrival := fs.String("arrival", "closed:2", "arrival process: closed:W or open:PERIOD:BURST[:ON:OFF]")
	out := fs.String("o", "-", "write the event dump to FILE (- = stdout)")
	limit := fs.Int("limit", 0, "emit only the N most recent events (0 = all retained; truncation is counted in the dump)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := sf.config(*tenants, *arrival)
	if err != nil {
		return err
	}
	o, err := execute(cfg, sf.rounds)
	if err != nil {
		return err
	}
	w := io.Writer(os.Stdout)
	var f *os.File
	if *out != "-" {
		if f, err = os.Create(*out); err != nil {
			return err
		}
		w = f
	}
	werr := o.server.WriteEvents(w, *limit)
	if f != nil {
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
	}
	if werr != nil {
		return werr
	}
	// The JSON owns stdout when -o is "-": the human-readable summary goes
	// to stderr either way.
	l := o.server.Events()
	fmt.Fprintf(os.Stderr, "events: %d recorded, %d retained, %d dropped — %d exec rounds, virtual clock %d\n",
		l.Total(), l.Len(), l.Dropped(), o.serverStats.ExecRounds, l.Now())
	return nil
}
