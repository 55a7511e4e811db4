//go:build race

package frontend_test

// raceEnabled reports whether the race detector is on. The detector's
// instrumentation inserts allocations of its own, so the allocation
// ceiling skips itself under -race and runs everywhere else.
const raceEnabled = true
