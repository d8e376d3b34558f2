// Package unitsafe exercises the unit-mixing analyzer outside the
// defining packages, where the rules apply in full.
package unitsafe

import (
	"fmt"

	"fixture/mem"
	"fixture/sim"
)

func violations(t sim.Time, c mem.Cycles, p mem.Picos) {
	_ = sim.Time(c)  // want `direct conversion mem\.Cycles -> sim\.Time mixes units`
	_ = sim.Time(p)  // want `direct conversion mem\.Picos -> sim\.Time mixes units`
	_ = mem.Picos(t) // want `direct conversion sim\.Time -> mem\.Picos mixes units`
	_ = int64(t)     // want `conversion strips the sim\.Time unit`
	_ = float64(t)   // want `conversion strips the sim\.Time unit`
	_ = int(c)       // want `conversion strips the mem\.Cycles unit`
	_ = float64(p)   // want `conversion strips the mem\.Picos unit`
	_ = t * t        // want `multiplying sim\.Time by sim\.Time is not unit-correct`
	_ = t * c.Time() // want `multiplying sim\.Time by sim\.Time is not unit-correct`
}

func allowed(t sim.Time, c mem.Cycles, p mem.Picos, n int) {
	_ = sim.Time(5)     // bare -> unit: this is how literals acquire units
	_ = mem.Cycles(n)   // bare -> unit
	_ = c.Time()        // blessed conversion method
	_ = p.Time()        // blessed conversion method
	_ = t.Ticks()       // blessed accessor
	_ = c.Int()         // blessed accessor
	_ = t.Times(3)      // scalar scaling
	_ = 1000 * t        // duration-literal idiom: constant scalar
	_ = t * sim.Time(2) // constant-folded, also the literal idiom
	_ = t + t           // same-unit addition is fine
	_ = t / sim.Time(4) // ratios of like units are dimensionless in spirit
	fmt.Println(t)      // passing to interface{} is not a conversion
}
