package sim

import (
	"math"
	"sync/atomic"
)

// GapBits is how many top bits of a draw index a GapTable's buckets.
const GapBits = 12

// Bucket states: not yet filled, or spanning more than one gap; any
// larger value is the bucket's gap plus gapFirst.
const (
	gapUnfilled = iota
	gapFormula
	gapFirst
)

// gapMargin is how far from a half-integer both of a bucket's edge
// values must lie for the bucket to hold a gap. It dwarfs math.Log's
// rounding error, so the formula cannot round any draw between the
// edges differently.
const gapMargin = 1e-9

// maxTableGap bounds the gaps a bucket holds: below it a float64 gap
// value resolves gapMargin by a wide margin.
const maxTableGap = 1 << 16

// GapTable draws int(Exp(mean)+0.5), an exponential gap rounded to the
// nearest integer, from one Uint64 as Exp does, but mostly without a
// logarithm. The gap is a monotone step function of the draw, so the
// draw's top GapBits bits name a bucket whose gap is, for most buckets,
// the same at both of its edges: such a bucket holds that gap, and the
// others evaluate the formula. A bucket holds a gap only when both
// edge values lie more than gapMargin from a half-integer, so the table
// gives exactly the formula's gap for every draw.
//
// Buckets are filled on their first draw, so building a table costs
// nothing up front. Fills are atomic and idempotent, so one table may
// serve generators on any number of goroutines.
type GapTable struct {
	mean    float64
	buckets [1 << GapBits]atomic.Uint32
}

// NewGapTable returns an empty table of gaps with the given mean.
func NewGapTable(mean float64) *GapTable { return &GapTable{mean: mean} }

// Draw returns int(r.Exp(mean) + 0.5), consuming one Uint64 from r.
func (t *GapTable) Draw(r *RNG) int { return t.Gap(r.Uint64()) }

// Gap returns ExpGap(x, mean), the gap of the random bits x.
func (t *GapTable) Gap(x uint64) int {
	b := &t.buckets[x>>(64-GapBits)]
	s := b.Load()
	if s == gapUnfilled {
		s = t.fill(x >> (64 - GapBits))
		b.Store(s)
	}
	if s == gapFormula {
		return ExpGap(x, t.mean)
	}
	return int(s - gapFirst)
}

// fill returns bucket i's state.
func (t *GapTable) fill(i uint64) uint32 {
	lo := i << (64 - GapBits)
	hi := lo | (1<<(64-GapBits) - 1)
	g, ok := clearGap(expOf(lo, t.mean))
	if g2, ok2 := clearGap(expOf(hi, t.mean)); !ok || !ok2 || g != g2 {
		return gapFormula
	}
	return uint32(g) + gapFirst
}

// clearGap returns the gap that rounding v gives and whether v lies
// more than gapMargin from a half-integer, within the range a bucket
// may hold.
func clearGap(v float64) (int, bool) {
	if !(v >= 0 && v < maxTableGap) {
		return 0, false
	}
	g := int(v + 0.5)
	return g, math.Abs(v-float64(g)) < 0.5-gapMargin
}

// ExpGap is the gap formula: the integer that the exponential value
// Exp makes of the random bits x rounds to.
func ExpGap(x uint64, mean float64) int { return int(expOf(x, mean) + 0.5) }
