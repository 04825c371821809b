//go:build !race

package exposition

// raceEnabled reports that the race detector is active.
const raceEnabled = false
