package energy

// In-package test files are part of the package, so they are in scope.
func exact(a, b float64) bool {
	return a == b // want `floating-point == comparison`
}
