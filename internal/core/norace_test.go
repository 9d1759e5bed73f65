//go:build !race

package core

// raceEnabled reports a build under the race detector.
const raceEnabled = false
