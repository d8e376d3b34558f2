package stats

import (
	"fmt"
	"math"
	"sync"

	"pcmap/internal/sim"
)

// IRLP measures intra-rank-level parallelism during writes, the paper's
// central metric (Section I footnote 2): over the union of time windows
// in which at least one write is in service on the rank, the
// time-average number of chips concurrently serving data words (reads or
// essential-word writes). ECC/PCC bookkeeping updates are modeled for
// contention but do not count as data service, which keeps the metric's
// maximum at the paper's 8.0 for an 8-data-chip rank.
//
// Components report service intervals as they are scheduled; ends may
// lie in the future. The tracker keeps only the interval edges not yet
// reached, in a min-heap on time, and sweeps the timeline as the owner
// advances it: Advance(now) folds every edge at or before now into the
// running integral. An interval must therefore start at or after the
// latest instant passed to Advance (the swept frontier); reporting one
// that starts earlier is a programming error and panics. Sweeping edges
// in time order performs the same additions in the same order as
// sorting every edge and sweeping once, so the result does not depend
// on how often Advance runs.
type IRLP struct {
	pending   []irlpDelta // min-heap on at: the edges after the frontier
	now       sim.Time    // the swept frontier
	maxChips  int         // the clamp of the last Advance or Finalize
	finalized bool

	// Sweep state over the edges already folded in.
	writes, chips int
	last          sim.Time
	integral      float64
	busyTime      sim.Time
	maxBusy       int

	avg float64 // set by Finalize
}

type irlpDelta struct {
	at    sim.Time
	write int8 // +1 / -1 when a write enters / leaves service
	chip  int8 // +n / -n when n chips begin / end data service
}

// NewIRLP returns an empty tracker.
func NewIRLP() *IRLP { return &IRLP{} }

// Reset empties the tracker in place, dropping in-flight intervals and
// keeping the heap's capacity so warmup-discard resets do not
// reallocate it.
func (x *IRLP) Reset() {
	*x = IRLP{pending: x.pending[:0]}
}

// irlpHeaps holds the heap arrays of released trackers, so a tracker
// that starts from empty takes the capacity an earlier system's tracker
// grew instead of growing its own.
var irlpHeaps sync.Pool // of *[]irlpDelta

// Release hands the tracker's heap array to the next tracker that
// starts from empty. The tracker must not be used afterwards.
func (x *IRLP) Release() {
	if cap(x.pending) > 0 {
		h := x.pending[:0]
		irlpHeaps.Put(&h)
	}
	x.pending = nil
}

// AddWriteWindow records that a write request is in service on the rank
// during [start, end).
func (x *IRLP) AddWriteWindow(start, end sim.Time) {
	if end <= start || x.finalized {
		return
	}
	x.add(irlpDelta{at: start, write: 1})
	x.add(irlpDelta{at: end, write: -1})
}

// AddChipService records that n chips are busy serving data during
// [start, end), where n is the sum of chips, or 1 when no count is
// given: the count is variadic so that the one-chip form keeps its two
// arguments. The n chips are one pair of edges, so a read's nine chips
// cost the heap what one chip does. Concurrent services on one chip
// count once each; the count is clamped to the rank's data chips when
// it is integrated. An n outside [0, 127], which an edge cannot carry,
// panics.
func (x *IRLP) AddChipService(start, end sim.Time, chips ...int) {
	n := 1
	if len(chips) > 0 {
		n = 0
		for _, c := range chips {
			n += c
		}
	}
	if n < 0 || n > math.MaxInt8 {
		panic(fmt.Sprintf("stats: IRLP chip count %d does not fit an edge", n))
	}
	if end <= start || x.finalized || n == 0 {
		return
	}
	x.add(irlpDelta{at: start, chip: int8(n)})
	x.add(irlpDelta{at: end, chip: -int8(n)})
}

// Advance sweeps every recorded edge at or before now, clamping the
// busy-chip count at maxChips (which must equal Finalize's). now must
// not decrease; later intervals must start at or after it.
func (x *IRLP) Advance(now sim.Time, maxChips int) {
	if x.finalized || now <= x.now {
		return
	}
	x.now, x.maxChips = now, maxChips
	for len(x.pending) > 0 && x.pending[0].at <= now {
		x.sweep(x.pop())
	}
}

// Finalize sweeps the remaining edges and computes the summary. It is
// idempotent; intervals added after it are ignored.
func (x *IRLP) Finalize(maxChips int) {
	if x.finalized {
		return
	}
	x.finalized, x.maxChips = true, maxChips
	for len(x.pending) > 0 {
		x.sweep(x.pop())
	}
	if x.busyTime > 0 {
		x.avg = x.integral / float64(x.busyTime.Ticks())
	}
}

// add records one edge: an edge at the frontier is the earliest not yet
// swept, so it is folded in at once; later edges wait in the heap.
func (x *IRLP) add(d irlpDelta) {
	switch {
	case d.at > x.now:
		x.push(d)
	case d.at == x.now:
		x.sweep(d)
	default:
		panic(fmt.Sprintf("stats: IRLP interval edge at %d before the swept frontier %d", d.at.Ticks(), x.now.Ticks()))
	}
}

// sweep folds one edge into the integral: the segment since the last
// edge counts with the edge counts in force before d. Edges at one
// instant close empty segments after the first, so their order within
// the instant does not matter.
func (x *IRLP) sweep(d irlpDelta) {
	if dt := d.at - x.last; x.writes > 0 && dt > 0 {
		x.busyTime += dt
		c := x.chips
		if c > x.maxChips {
			c = x.maxChips
		}
		x.integral += float64(dt.Ticks()) * float64(c)
		if c > x.maxBusy {
			x.maxBusy = c
		}
	}
	x.last = d.at
	x.writes += int(d.write)
	x.chips += int(d.chip)
}

func (x *IRLP) push(d irlpDelta) {
	if x.pending == nil {
		if h, ok := irlpHeaps.Get().(*[]irlpDelta); ok {
			x.pending = *h
		}
	}
	h := append(x.pending, d)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].at <= d.at {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = d
	x.pending = h
}

func (x *IRLP) pop() irlpDelta {
	h := x.pending
	top := h[0]
	n := len(h) - 1
	d := h[n]
	h = h[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].at < h[c].at {
			c++
		}
		if d.at <= h[c].at {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = d
	}
	x.pending = h
	return top
}

// Average returns the time-average IRLP during write-busy windows.
// Finalize must have been called.
func (x *IRLP) Average() float64 { return x.avg }

// MaxBusy returns the maximum instantaneous chip parallelism observed
// inside write-busy windows.
func (x *IRLP) MaxBusy() int { return x.maxBusy }

// WriteBusyTime returns the total length of the write-busy windows.
func (x *IRLP) WriteBusyTime() sim.Time { return x.busyTime }
