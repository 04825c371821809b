//go:build race

package exposition

// raceEnabled reports that the race detector is active: the allocation
// invariants are measured without it (its instrumentation skews Mallocs).
const raceEnabled = true
