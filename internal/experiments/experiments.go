// Package experiments implements the reproduction harness: one runner per
// experiment, each regenerating the table that operationalizes one of the
// paper's claims (E1–E8: Theorems 1–3, Lemma 2, the Section 1 comparison
// and the Section 3 area model) or measures a proposal of its conclusion
// or a design choice (E9–E17). Each runner's Result states
// the claim it tests. The cmd/experiments CLI prints them, and the root
// bench_test.go times the machines they run.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/stats"
)

// Result is a finished experiment: a rendered table plus interpretation.
type Result struct {
	ID    string
	Title string
	Claim string // the paper statement being reproduced
	Table *stats.Table
	Notes []string
}

// String renders the result for terminal output.
func (r Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", r.ID, r.Title)
	fmt.Fprintf(&sb, "claim: %s\n\n", r.Claim)
	sb.WriteString(r.Table.String())
	for _, n := range r.Notes {
		sb.WriteString("note: " + n + "\n")
	}
	return sb.String()
}

// Markdown renders the result as a markdown section (the EXPERIMENTS.md
// source format).
func (r Result) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "## %s — %s\n\n", r.ID, r.Title)
	fmt.Fprintf(&sb, "**Claim:** %s\n\n", r.Claim)
	sb.WriteString(r.Table.Markdown())
	if len(r.Notes) > 0 {
		sb.WriteString("\n")
		for _, n := range r.Notes {
			sb.WriteString("- " + n + "\n")
		}
	}
	return sb.String()
}

// Runner produces a Result.
type Runner func() Result

// registry lists every experiment id with its runner, in presentation
// order (numeric, not lexicographic).
var registry = []struct {
	id  string
	run Runner
}{
	{"e1", E1LowerBound},
	{"e2", E2Expansion},
	{"e3", E3DMMPC},
	{"e4", E4MPCvsDMMPC},
	{"e5", E5MOT},
	{"e6", E6Comparison},
	{"e7", E7IDA},
	{"e8", E8VLSI},
	{"e9", E9PROM},
	{"e10", E10Ablations},
	{"e11", E11Slowdown},
	{"e14", E14ReplaySweep},
	{"e17", E17StageAttribution},
}

// IDs returns the registered experiment ids in presentation order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.id
	}
	return out
}

// Run executes one experiment by id.
func Run(id string) (Result, bool) {
	id = strings.ToLower(id)
	for _, e := range registry {
		if e.id == id {
			return e.run(), true
		}
	}
	return Result{}, false
}
