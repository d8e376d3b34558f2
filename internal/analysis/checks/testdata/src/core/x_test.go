package core_test

import "time"

// An external test package belongs to the sim-core package it tests.
func pace() {
	time.Sleep(time.Millisecond) // want `time\.Sleep paces against the host clock; core is a deterministic sim-core package`
}
