//go:build !race

package obsv

const raceEnabled = false
