package energy_test

// An external test package is outside floatcmp's scope: a test may
// assert an exact value.
func exact(a, b float64) bool { return a == b }
