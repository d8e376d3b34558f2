package main

import (
	"slices"
	"time"
)

// A shared host runs the benchmark at a speed that drifts with its
// neighbours' load: on the 2-CPU host of README.md a repetition took up
// to 1.5 times its fastest host time within minutes, and a fixed piece
// of reference work slowed in step with it. So the benchmark times the
// reference work before the first repetition and after each, and
// reports each repetition's host times at reference speed: a time taken
// while the reference work ran at half its nominal speed is halved.
//
// The reference work is the benchmark's own code and calls nothing in
// the simulator, so a change to the simulator cannot move it. It mixes
// what the simulator spends host time on: random access to a table
// larger than the host caches, hash-map updates, sorting and integer
// arithmetic.

// refNominal is the reference work's host time at reference speed:
// about its median over forty runs of the benchmark on that host, so
// that times at reference speed read close to what a user sees there.
const refNominal = 150 * time.Millisecond

// refWork holds the reference work's buffers, allocated once so that a
// timed run allocates nothing.
type refWork struct {
	table  []uint64
	counts map[uint64]uint32
	keys   []uint64
	sorted []uint64
	x      uint64 // xorshift state
}

const (
	refTableWords = 1 << 22 // 32 MB
	refTableOps   = 1 << 21
	refMapKeys    = 1 << 18
	refMapOps     = 1 << 20
	refSortLen    = 1 << 18
	refALUOps     = 1 << 25
)

// sinkRef keeps the compiler from discarding the reference work.
var sinkRef uint64

func newRefWork() *refWork {
	w := &refWork{
		table:  make([]uint64, refTableWords),
		counts: make(map[uint64]uint32, refMapKeys),
		keys:   make([]uint64, refSortLen),
		sorted: make([]uint64, refSortLen),
		x:      0x9e3779b97f4a7c15,
	}
	for i := range w.keys {
		w.keys[i] = w.next()
	}
	w.run() // fault the buffers in before the first timed run
	return w
}

// next is a xorshift step. The simulator's sim.RNG is not used, so that
// a change to it cannot move the reference.
func (w *refWork) next() uint64 {
	w.x ^= w.x << 13
	w.x ^= w.x >> 7
	w.x ^= w.x << 17
	return w.x
}

// run does the reference work once.
func (w *refWork) run() {
	var sum uint64
	for i := 0; i < refTableOps; i++ {
		j := w.next() & (refTableWords - 1)
		w.table[j] += w.x
		sum += w.table[j^1]
	}
	clear(w.counts)
	for i := 0; i < refMapOps; i++ {
		w.counts[w.next()&(refMapKeys-1)]++
	}
	copy(w.sorted, w.keys)
	slices.Sort(w.sorted)
	sum += w.sorted[refSortLen/2] + uint64(len(w.counts))
	for i := 0; i < refALUOps; i++ {
		sum += w.next()
	}
	sinkRef = sum
}

// time runs the reference work once and returns the host time it took.
func (w *refWork) time() time.Duration {
	return timed(func(func() time.Duration) { w.run() })
}

// hostSpeed is the host's speed relative to the reference over an
// interval the reference work ran just before and just after: 1 at
// reference speed, 0.5 at half of it.
func hostSpeed(before, after time.Duration) float64 {
	return 2 * refNominal.Seconds() / (before + after).Seconds()
}
