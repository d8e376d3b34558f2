//go:build race

package stats

// raceEnabled skips the pool reuse check under the race detector, whose
// sync.Pool drops a random quarter of the values put into it.
const raceEnabled = true
