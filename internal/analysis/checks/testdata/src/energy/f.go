// Package energy exercises the float-equality analyzer inside its
// scope (stats, energy, exp).
package energy

// Ratio is a named float type; the check looks through to the
// underlying type.
type Ratio float64

const eps = 1e-9

func violations(a, b float64, f float32, r Ratio) bool {
	if a == b { // want `floating-point == comparison`
		return true
	}
	if a != 0 { // want `floating-point != comparison`
		return true
	}
	if f == 0.5 { // want `floating-point == comparison`
		return true
	}
	return r == Ratio(1) // want `floating-point == comparison`
}

func allowed(a, b float64, n int) bool {
	if a < b || a >= b { // ordered comparisons are fine
		return true
	}
	if diff := a - b; diff < eps && diff > -eps { // epsilon compare
		return true
	}
	const half = 0.5
	if half == 0.5 { // both constant: exact, folded at compile time
		return true
	}
	return n == 3 // integers compare exactly
}
