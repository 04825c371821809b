//go:build !race

package hashsim

// raceEnabled reports that the race detector is active.
const raceEnabled = false
