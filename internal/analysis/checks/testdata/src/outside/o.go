// Package outside is beyond floatcmp's scope (stats, energy, exp), so
// its float equality is not reported.
package outside

func exact(a, b float64) bool { return a == b }
