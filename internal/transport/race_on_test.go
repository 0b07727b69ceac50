//go:build race

package transport

// raceEnabled: under the race detector sync.Pool drops a quarter of what
// is Put on purpose, so pooled paths allocate and exact allocation gates
// do not apply.
const raceEnabled = true
