// Package exporttest is a loader fixture: its external test package
// calls a helper that only export_test.go exports, and passes the
// package's type through a dependency that imports the package.
package exporttest

// Counter counts calls to Inc.
type Counter struct{ n int }

// Inc adds one.
func (c *Counter) Inc() { c.n++ }
