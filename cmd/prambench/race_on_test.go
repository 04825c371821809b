//go:build race

package main

// raceEnabled reports whether the race detector instruments this build; it
// slows the open-loop client below its offered rate.
const raceEnabled = true
