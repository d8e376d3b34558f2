// Package sim provides a deterministic discrete-event simulation engine
// used by every other component of the PCMap reproduction.
//
// Time is measured in integer ticks of 100 picoseconds, which is the
// least common granularity needed to express both the 2.5 GHz CPU clock
// (one cycle = 4 ticks) and the 400 MHz DDR3 memory clock (one cycle =
// 25 ticks) from Table I of the paper without rounding error.
package sim

import "fmt"

// Time is a point in simulated time, in ticks of 100 ps.
type Time int64

// Common durations expressed in ticks.
const (
	Tick        Time = 1
	Picosecond       = 0 // smaller than one tick; defined for documentation
	Nanosecond  Time = 10
	Microsecond Time = 10 * 1000
	Millisecond Time = 10 * 1000 * 1000

	// CPUCycle is one cycle of the 2.5 GHz processor clock (0.4 ns).
	CPUCycle Time = 4
	// MemCycle is one cycle of the 400 MHz memory clock (2.5 ns).
	MemCycle Time = 25
)

// Nanoseconds reports t as a floating point number of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / 10 }

// CPUCycles reports t as a floating point number of CPU cycles.
func (t Time) CPUCycles() float64 { return float64(t) / float64(CPUCycle) }

func (t Time) String() string { return fmt.Sprintf("%.1fns", t.Nanoseconds()) }

// NS returns a duration of n nanoseconds.
func NS(n float64) Time { return Time(n * 10) }

// event is a scheduled callback. Events live by value inside the
// engine's arena slice; pushing one never allocates (beyond amortized
// slice growth), unlike the previous container/heap implementation
// which boxed every event into an interface{} on both Push and Pop.
type event struct {
	at  Time
	seq uint64 // tie-breaker for deterministic FIFO ordering
	fn  func()
}

// before is the heap order: earliest time first, FIFO within a time.
// (at, seq) is a total order — seq is unique — so any correct heap pops
// events in exactly the same sequence, which is what keeps the engine
// rewrite bit-identical to the old binary heap.
func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Engine is a discrete-event simulator. The zero value is ready to use.
// Engine is not safe for concurrent use; the whole simulation is single
// threaded and deterministic, which is what a reproducibility study needs.
//
// Events are kept in a monomorphic 4-ary min-heap laid out in one slice
// (the event arena). A 4-ary heap halves the tree depth of a binary
// heap, and sift operations move whole event values inside the arena,
// so the steady-state scheduling path performs zero allocations.
type Engine struct {
	now    Time
	seq    uint64
	events []event // 4-ary min-heap ordered by (at, seq)
	nsteps uint64

	// stepHook, when non-nil, observes every executed event. It exists
	// for the observability layer (internal/obs) and costs exactly one
	// predictable branch per step when unset, keeping the hot path at
	// zero allocations.
	stepHook func(now Time, pending int)
}

// NewEngine returns an empty engine starting at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Steps returns the number of events executed so far.
func (e *Engine) Steps() uint64 { return e.nsteps }

// Pending returns the number of scheduled, not yet executed events.
func (e *Engine) Pending() int { return len(e.events) }

// Schedule runs fn after delay ticks. A negative delay panics: scheduling
// into the past would silently break causality.
func (e *Engine) Schedule(delay Time, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: schedule into the past (delay %d)", delay))
	}
	e.At(e.now+delay, fn)
}

// At runs fn at absolute time t, which must not precede the current time.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	e.seq++
	e.push(event{at: t, seq: e.seq, fn: fn})
}

// push appends ev to the arena and sifts it up the 4-ary heap, moving
// displaced parents down into the hole rather than swapping.
func (e *Engine) push(ev event) {
	h := append(e.events, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !ev.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	e.events = h
}

// pop removes and returns the minimum event. The vacated arena slot is
// zeroed so the engine does not retain the callback past execution.
func (e *Engine) pop() event {
	h := e.events
	root := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	h = h[:n]
	e.events = h
	if n > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			// Minimum of the (up to four) children.
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if h[j].before(&h[m]) {
					m = j
				}
			}
			if !h[m].before(&last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	return root
}

// SetStepHook installs fn to be called once per executed event with the
// event's timestamp and the number of events still pending after the
// pop. The hook is observability-only: it must not schedule events or
// otherwise influence the simulation, so that traced and untraced runs
// stay bit-identical. Passing nil removes the hook.
func (e *Engine) SetStepHook(fn func(now Time, pending int)) { e.stepHook = fn }

// Step executes the next event. It reports false when no events remain.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.pop()
	e.now = ev.at
	e.nsteps++
	if e.stepHook != nil {
		e.stepHook(e.now, len(e.events))
	}
	ev.fn()
	return true
}

// Run executes events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= t and then advances the
// clock to t. Events scheduled beyond t remain pending.
func (e *Engine) RunUntil(t Time) {
	for len(e.events) > 0 && e.events[0].at <= t {
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}
