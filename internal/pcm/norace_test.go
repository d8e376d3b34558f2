//go:build !race

package pcm

const raceEnabled = false
