//go:build race

package harness

// raceEnabled reports whether the race detector is on: it instruments
// allocations, so allocation-count bounds hold only without it.
const raceEnabled = true
