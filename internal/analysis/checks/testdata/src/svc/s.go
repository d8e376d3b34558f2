// Package svc is not in the sim-core set: it may pace itself against
// the host clock, but reading the clock is banned everywhere.
package svc

import "time"

func Uptime(start time.Time) time.Duration {
	time.Sleep(time.Millisecond)
	return time.Since(start) // want `time\.Since reads the wall clock`
}
