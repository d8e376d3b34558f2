// Package use imports the package under test, so the external test
// package's view of exporttest.Counter must be the one use sees.
package use

import "fixture/exporttest"

// Twice increments c twice.
func Twice(c *exporttest.Counter) {
	c.Inc()
	c.Inc()
}
