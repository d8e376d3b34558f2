//go:build race

package pcm

// raceEnabled skips the pool allocation checks under the race detector,
// whose sync.Pool drops a random quarter of the values put into it.
const raceEnabled = true
