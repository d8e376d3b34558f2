package cpu

import (
	"math"

	"pcmap/internal/sim"
)

// never is nextDone while no pending load has a known completion.
const never = sim.Time(math.MaxInt64)

// load tracks one in-flight (or timed, not-yet-passed) load.
type load struct {
	seq  uint64   // instruction sequence number at issue
	done sim.Time // completion time; 0 while unknown (PCM fetch pending)
}

// window is the core's list of pending loads, in program order, with
// the earliest known completion among them. nextDone is exact: add and
// markDone lower it, and every retire pass that drops loads recomputes
// it. So retire at a time before nextDone has nothing to drop, and
// after retire(now) every pending load is outstanding at now — its
// completion is unknown or later than now.
type window struct {
	pending  []load
	nextDone sim.Time // earliest known completion; never when none is known
}

func newWindow(size int) window {
	return window{pending: make([]load, 0, size), nextDone: never}
}

// add appends a load issued at seq completing at done (0: unknown).
func (w *window) add(seq uint64, done sim.Time) {
	w.pending = append(w.pending, load{seq: seq, done: done})
	w.noteDone(done)
}

// markDone sets the completion of the pending load issued at seq, if
// it is still unknown.
func (w *window) markDone(seq uint64, t sim.Time) {
	for i := range w.pending {
		if w.pending[i].seq == seq && w.pending[i].done == 0 {
			w.pending[i].done = t
			w.noteDone(t)
			return
		}
	}
}

func (w *window) noteDone(t sim.Time) {
	if t != 0 && t < w.nextDone {
		w.nextDone = t
	}
}

// retire drops the loads whose completion time has passed by now.
func (w *window) retire(now sim.Time) {
	if now < w.nextDone {
		return
	}
	i := 0
	w.nextDone = never
	for _, l := range w.pending {
		if l.done != 0 && l.done <= now {
			continue
		}
		w.pending[i] = l
		i++
		w.noteDone(l.done)
	}
	w.pending = w.pending[:i]
}
