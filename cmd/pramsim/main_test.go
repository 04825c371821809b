package main

import (
	"strings"
	"testing"

	"repro/internal/workloads"

	pramsim "repro"
)

// TestExitStatus: a failed run fails the command; verified runs, at any n,
// do not.
func TestExitStatus(t *testing.T) {
	for _, n := range []string{"12", "16"} {
		var stdout, stderr strings.Builder
		got := run([]string{"-backend", "ideal", "-workload", "bitonicsort", "-n", n}, &stdout, &stderr)
		if got != 0 || !strings.Contains(stdout.String(), "verified") {
			t.Errorf("-n %s: exit %d, want 0 with a verified row\nstdout:\n%s\nstderr:\n%s",
				n, got, stdout.String(), stderr.String())
		}
	}

	bad := workloads.BitonicSort(16, 1)
	bad.Program = func(int) pramsim.Program {
		return func(p *pramsim.Proc) { p.Read(bad.Cells) }
	}
	var stdout, stderr strings.Builder
	got := runTable([]pramsim.Workload{bad}, []string{"ideal"}, 1, &stdout, &stderr)
	if want := "outside shared memory [0, 16)"; got != 1 || !strings.Contains(stdout.String(), want) {
		t.Errorf("failing run: exit %d, want 1 with a %q row\nstdout:\n%s\nstderr:\n%s",
			got, want, stdout.String(), stderr.String())
	}
}
