// Package cpu implements the processor side of the evaluation as an
// interval-model out-of-order core (the standard methodology for
// memory-system studies): a 192-instruction window, 4-wide issue and
// MSHR-limited memory-level parallelism. The model captures exactly
// the couplings the paper measures — PCM read latency stalling the
// window, PCM write throughput throttling eviction-blocked fills, and
// the cost of RoW verification rollbacks (Table IV).
package cpu

import (
	"fmt"

	"pcmap/internal/cache"
	"pcmap/internal/config"
	"pcmap/internal/obs"
	"pcmap/internal/sim"
	"pcmap/internal/stats"
	"pcmap/internal/workloads"
)

// quantum bounds how far a core's local clock runs ahead of the global
// engine inside one scheduling event.
const quantum = 1000 * sim.CPUCycle

// load tracks one in-flight (or timed, not-yet-passed) load.
type load struct {
	seq  uint64   // instruction sequence number at issue
	done sim.Time // completion time; 0 while unknown (PCM fetch pending)
}

// Core is one interval-model core executing a workload stream.
type Core struct {
	ID   int
	eng  *sim.Engine
	cfg  config.Core
	hier *cache.Hierarchy
	feed *workloads.Feed
	rng  *sim.RNG

	baseCPI float64 // the workload's CPI for non-memory instructions

	budget uint64 // instruction budget; a zero budget finishes immediately

	// stepTimer re-arms the scheduling loop; pre-binding step once
	// means the per-cycle wakeups on the hot path allocate nothing.
	stepTimer *sim.Timer
	// unstallFn is the pre-bound OnUnstall callback, for the same
	// reason: stall/retry cycles are hot in write-bound phases.
	unstallFn func()

	now     sim.Time // local clock, >= engine time when running
	instrs  uint64
	pending []load // in program order
	current *workloads.Op
	haveOp  bool

	waitingFill    bool // blocked on an unknown-latency PCM load
	waitingUnstall bool
	finished       bool
	onFinish       func()

	// Rollback model (Section IV-B3): each load completing at time t
	// commits at t + commitDelay; a faulty RoW verification arriving
	// after commit forces a rollback.
	commitMin      sim.Time
	commitMean     float64
	pendingPenalty sim.Time

	// Measurement window (reset after warmup).
	instrs0 uint64
	time0   sim.Time

	// Counters.
	Loads, Stores, Rollbacks, VerifiesSeen, FaultyVerifies uint64
	StallFillTime                                          sim.Time

	// Stall-cause accounting (observability layer): one episode per
	// stall, bucketed by what blocked issue. When a tracer is attached,
	// each episode also emits an instant on the core's timeline track.
	// Plain counter increments keep the no-tracer hot path
	// allocation-free.
	StallReadLatency  stats.Counter // window blocked on an unknown-latency PCM fill
	StallMSHRFull     stats.Counter // all data MSHRs in flight
	StallWriteQFull   stats.Counter // store rejected: write queue back-pressure
	StallBankConflict stats.Counter // load rejected below the caches

	trace                                            *obs.Tracer
	track                                            obs.TrackID
	nmReadLat, nmMSHRFull, nmWriteQFull, nmBankConfl obs.NameID
}

// NewCore builds a core running feed's op stream on hier.
func NewCore(eng *sim.Engine, cfg *config.Config, id int, hier *cache.Hierarchy, feed *workloads.Feed, rng *sim.RNG) *Core {
	c := &Core{
		ID:         id,
		eng:        eng,
		cfg:        cfg.Core,
		hier:       hier,
		feed:       feed,
		rng:        rng,
		baseCPI:    feed.Generator().P.BaseCPI,
		commitMin:  100 * sim.CPUCycle,
		commitMean: float64((2000 * sim.CPUCycle).Ticks()),
	}
	c.stepTimer = eng.NewTimer(c.step)
	c.unstallFn = func() {
		c.waitingUnstall = false
		c.stepTimer.Schedule(0)
	}
	c.pending = make([]load, 0, cfg.Core.WindowSize)
	hier.SetVerifyHandler(id, c.onVerify)
	hier.SetFillHandler(id, c.fillArrived)
	return c
}

// Instrument attaches a timeline track that receives one instant per
// stall episode, named after the stall bucket (stall.read_latency,
// stall.mshr_full, stall.writeq_full, stall.bank_conflict). A nil tr
// leaves tracing off. Call once, before Start.
func (c *Core) Instrument(tr *obs.Tracer) {
	if tr != nil {
		c.trace = tr
		c.track = tr.Track("cpu", fmt.Sprintf("core%d", c.ID))
		c.nmReadLat = tr.Name("stall.read_latency")
		c.nmMSHRFull = tr.Name("stall.mshr_full")
		c.nmWriteQFull = tr.Name("stall.writeq_full")
		c.nmBankConfl = tr.Name("stall.bank_conflict")
	}
}

// Start runs budget more instructions; onFinish runs when they have
// retired. A new core's budget is zero, so the first call runs exactly
// budget instructions and a later call extends a finished core (the
// measurement phase after warmup). The core's clock needs no reset
// here: step advances it to the engine's time before executing.
func (c *Core) Start(budget uint64, onFinish func()) {
	c.budget += budget
	c.finished = false
	c.onFinish = onFinish
	c.stepTimer.Schedule(0)
}

// Instructions returns the retired instruction count.
func (c *Core) Instructions() uint64 { return c.instrs }

// Finished reports whether the budget was consumed.
func (c *Core) Finished() bool { return c.finished }

// ResetWindow starts a fresh measurement window at the current state
// (drops warmup from IPC).
func (c *Core) ResetWindow() {
	c.instrs0 = c.instrs
	c.time0 = c.now
}

// IPC returns instructions per cycle over the measurement window.
func (c *Core) IPC() float64 {
	cycles := (c.now - c.time0).CPUCycles()
	if cycles <= 0 {
		return 0
	}
	return float64(c.instrs-c.instrs0) / cycles
}

// onVerify receives a deferred RoW verification outcome for a load
// that completed at loadDone.
func (c *Core) onVerify(faulty bool, loadDone sim.Time) {
	c.VerifiesSeen++
	if !faulty {
		return
	}
	c.FaultyVerifies++
	// Did the consuming load commit before the check? The commit point
	// trails completion by the window-drain delay (older instructions
	// retiring first — long in memory-bound phases, which is why the
	// paper sees only ~1.3% of RoW lines committed before the check).
	commitAt := loadDone + c.commitMin + sim.Time(c.rng.Exp(c.commitMean))
	if commitAt < c.eng.Now() {
		// Committed with bad data: squash and re-execute from the
		// faulting load (Section IV-B3).
		c.Rollbacks++
		c.pendingPenalty += sim.CPUCycle.Times(c.cfg.RollbackPen) + (c.eng.Now() - commitAt)
	}
	// Not yet committed: the controller resends corrected data before
	// the CPU uses it; no cost.
}

// step is the core's scheduling loop: process operations, advancing
// the local clock, until blocked or a quantum boundary.
func (c *Core) step() {
	if c.finished {
		return
	}
	if c.now < c.eng.Now() {
		c.now = c.eng.Now()
	}
	if c.pendingPenalty > 0 {
		c.now += c.pendingPenalty
		c.pendingPenalty = 0
	}
	deadline := c.eng.Now() + quantum
	for c.now < deadline {
		if c.instrs >= c.budget {
			c.finish()
			return
		}
		if !c.haveOp {
			if c.current == nil {
				c.current = new(workloads.Op)
			}
			c.feed.Next(c.current)
			c.haveOp = true
			// The gap instructions execute at the base CPI.
			c.instrs += uint64(c.current.Gap)
			c.now += sim.CPUCycle.Scale(float64(c.current.Gap) * c.baseCPI)
		}
		c.retireCompleted()
		// Window limit: cannot run more than WindowSize instructions
		// past the oldest incomplete load.
		if !c.advancePastWindow() {
			return // waiting on a PCM fill
		}
		// MSHR limit.
		if !c.advancePastMSHR() {
			return
		}
		op := c.current
		if op.Store {
			if !c.doStore(op) {
				return // stalled; OnUnstall resumes
			}
			c.Stores++
		} else {
			if !c.doLoad(op) {
				return
			}
			c.Loads++
		}
		// The memory instruction itself occupies an issue slot.
		c.instrs++
		c.now += sim.CPUCycle / sim.Time(c.cfg.IssueWidth)
		c.haveOp = false
	}
	// Quantum boundary: yield to the rest of the system.
	c.stepTimer.At(c.now)
}

// retireCompleted drops loads whose completion time has passed.
func (c *Core) retireCompleted() {
	i := 0
	for _, l := range c.pending {
		if l.done != 0 && l.done <= c.now {
			continue
		}
		c.pending[i] = l
		i++
	}
	c.pending = c.pending[:i]
}

// advancePastWindow enforces the reorder window. It returns false when
// the core must sleep for a PCM fill (resumed by callback).
func (c *Core) advancePastWindow() bool {
	for len(c.pending) > 0 && c.instrs >= c.pending[0].seq+uint64(c.cfg.WindowSize) {
		head := c.pending[0]
		if head.done == 0 {
			// Unknown completion: a PCM fetch. Sleep.
			c.waitingFill = true
			c.StallReadLatency.Inc()
			c.trace.Instant(c.track, c.nmReadLat, c.now)
			return false
		}
		if head.done > c.now {
			c.StallFillTime += head.done - c.now
			c.now = head.done
		}
		c.retireCompleted()
	}
	return true
}

// advancePastMSHR enforces the outstanding-load limit.
func (c *Core) advancePastMSHR() bool {
	stalled := false
	for c.outstanding() >= c.cfg.DataMSHRs {
		if !stalled {
			// Count one episode however many completions it takes to
			// free an MSHR.
			stalled = true
			c.StallMSHRFull.Inc()
			c.trace.Instant(c.track, c.nmMSHRFull, c.now)
		}
		// Wait for the earliest known completion; if none is known,
		// sleep for a fill.
		var earliest sim.Time
		for _, l := range c.pending {
			if l.done != 0 && (earliest == 0 || l.done < earliest) {
				earliest = l.done
			}
		}
		if earliest == 0 {
			c.waitingFill = true
			return false
		}
		if earliest > c.now {
			c.now = earliest
		}
		c.retireCompleted()
	}
	return true
}

func (c *Core) outstanding() int {
	n := 0
	for _, l := range c.pending {
		if l.done == 0 || l.done > c.now {
			n++
		}
	}
	return n
}

// doLoad issues a load; false means stalled (retry via OnUnstall).
func (c *Core) doLoad(op *workloads.Op) bool {
	entrySeq := c.instrs
	res, lat := c.hier.Load(c.ID, op.Addr, op.NonTemporal, entrySeq)
	switch res {
	case cache.HitL1:
		// Covered by issue width; no window entry needed.
		return true
	case cache.HitL2, cache.HitLLC:
		c.pending = append(c.pending, load{seq: entrySeq, done: c.now + lat})
		return true
	case cache.GoesToMemory:
		c.pending = append(c.pending, load{seq: entrySeq, done: 0})
		return true
	case cache.Stalled:
		c.StallBankConflict.Inc()
		c.trace.Instant(c.track, c.nmBankConfl, c.now)
		c.waitUnstall()
		return false
	default:
		panic(fmt.Sprintf("cpu: unexpected load result %v", res))
	}
}

// fillArrived marks the matching pending load complete and wakes the
// core if it slept on the fill.
func (c *Core) fillArrived(seq uint64) {
	c.markDone(seq, c.eng.Now())
	if c.waitingFill {
		c.waitingFill = false
		c.stepTimer.Schedule(0)
	}
}

func (c *Core) markDone(seq uint64, t sim.Time) {
	for i := range c.pending {
		if c.pending[i].seq == seq && c.pending[i].done == 0 {
			c.pending[i].done = t
			return
		}
	}
}

// doStore issues a store; false means stalled.
func (c *Core) doStore(op *workloads.Op) bool {
	res := c.hier.Store(c.ID, op.Addr, op.EssMask, op.NonTemporal)
	if res == cache.Stalled {
		c.StallWriteQFull.Inc()
		c.trace.Instant(c.track, c.nmWriteQFull, c.now)
		c.waitUnstall()
		return false
	}
	// Stores retire through the store buffer; no window entry.
	return true
}

func (c *Core) waitUnstall() {
	if c.waitingUnstall {
		return
	}
	c.waitingUnstall = true
	c.hier.OnUnstall(c.unstallFn)
}

func (c *Core) finish() {
	c.finished = true
	if c.onFinish != nil {
		c.onFinish()
	}
}
