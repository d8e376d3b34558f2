// Package core is a stand-in for a deterministic sim-core package:
// wall-clock reads, host pacing, and global rand are all banned.
package core

import (
	"math/rand" // want `import "math/rand": use the seeded sim\.RNG`
	"time"
)

func stamp() time.Time {
	time.Sleep(time.Millisecond)   // want `time\.Sleep paces against the host clock; core is a deterministic sim-core package`
	<-time.After(time.Millisecond) // want `time\.After paces against the host clock`
	return time.Now()              // want `time\.Now reads the wall clock`
}

func jitter() int {
	return rand.Intn(10) // reported once, at the import
}

func suppressed() time.Time {
	//pcmaplint:ignore nodeterminism fixture-only exception with a recorded reason
	return time.Now()
}

// Durations are values, not clock reads: manipulating them is fine.
func double(d time.Duration) time.Duration { return 2 * d }

// Time.After compares two values; it is not the pacing function.
func later(a, b time.Time) bool { return a.After(b) }

// Seeded sources are fine too; only the package-level global is banned.
func seeded(r *rand.Rand) int { return r.Intn(10) }
