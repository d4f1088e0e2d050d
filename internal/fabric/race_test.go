//go:build race

package fabric

// raceEnabled reports a -race build, whose instrumentation and randomized
// sync.Pool change allocation counts.
const raceEnabled = true
