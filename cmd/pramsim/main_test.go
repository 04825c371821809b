package main

import (
	"strings"
	"testing"
)

// TestExitStatus: a failed run fails the command. Bitonic partners id^j
// reach past n when n is not a power of two, so n=12 reads outside the
// ideal machine's 12 cells.
func TestExitStatus(t *testing.T) {
	for _, tc := range []struct {
		n    string
		want int
		row  string
	}{
		{"12", 1, "outside shared memory [0, 12)"},
		{"16", 0, "verified"},
	} {
		var stdout, stderr strings.Builder
		got := run([]string{"-backend", "ideal", "-workload", "bitonicsort", "-n", tc.n}, &stdout, &stderr)
		if got != tc.want || !strings.Contains(stdout.String(), tc.row) {
			t.Errorf("-n %s: exit %d, want %d with a %q row\nstdout:\n%s\nstderr:\n%s",
				tc.n, got, tc.want, tc.row, stdout.String(), stderr.String())
		}
	}
}
