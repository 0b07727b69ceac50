//go:build race

package obsv

// raceEnabled: the race detector instruments every memory access, so
// nanosecond gates do not apply under it.
const raceEnabled = true
