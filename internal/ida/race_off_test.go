//go:build !race

package ida

// raceEnabled reports that the race detector is active.
const raceEnabled = false
