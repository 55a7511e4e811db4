//go:build race

package actor

// raceEnabled reports whether the race detector is on. The detector's
// instrumentation inserts allocations of its own, so the zero-alloc
// assertion skips itself under -race and runs everywhere else.
const raceEnabled = true
