// Package mem is a fixture stand-in for pcmap/internal/mem's unit
// types.
package mem

import "fixture/sim"

// Cycles mirrors the real mem.Cycles.
type Cycles int

// Time converts cycles to simulated time; the raw conversions below are
// legal because this is the defining package.
func (c Cycles) Time() sim.Time { return sim.MemCycle.Times(int(c)) }

// Int returns the bare count.
func (c Cycles) Int() int { return int(c) }

// Picos mirrors the real mem.Picos.
type Picos int64

// Time truncates to a whole tick; the cross-unit conversion is exempt
// here (Picos' defining package).
func (p Picos) Time() sim.Time { return sim.Time(p / 100) }
