// Package core implements the paper's contribution: the PCMap memory
// controller (Section IV). One Controller drives one channel's rank of
// ten x8 PCM chips through rank subsetting, serving requests with the
// baseline read-priority/write-drain policy and — depending on the
// configured variant — overlapping reads with ongoing writes via PCC
// parity reconstruction (RoW), consolidating writes with disjoint chip
// sets (WoW), and rotating data words and ECC/PCC words across chips.
package core

import (
	"fmt"

	"pcmap/internal/config"
	"pcmap/internal/dimm"
	"pcmap/internal/ecc"
	"pcmap/internal/mem"
	"pcmap/internal/obs"
	"pcmap/internal/pcm"
	"pcmap/internal/sim"
	"pcmap/internal/stats"
	"pcmap/internal/wear"
)

// Controller schedules one memory channel.
type Controller struct {
	eng     *sim.Engine
	cfg     config.Memory
	variant config.Variant
	channel int

	// feat is the variant's capability set, resolved once from the
	// registry at construction; scheduling predicates read it instead of
	// re-deriving capabilities from the variant identity.
	feat config.Features
	// parts is the partitions-per-bank count in force (1 for every
	// variant without PartitionRoW), and dcaRounds the SET division
	// count of the content-aware write-latency model.
	parts     int
	dcaRounds int

	rank *dimm.Rank
	amap *mem.AddrMap

	rdq *mem.Queue
	wrq *mem.Queue

	dataBus mem.Bus
	cmdBus  mem.Bus

	draining   bool
	powerInUse int
	active     []*activeWrite // writes currently in service
	paused     *activeWrite   // the write-pausing comparator's segmented write

	rng     *sim.RNG
	Metrics *mem.Metrics
	// irlpSweep is the rank's IRLP tracker (Figure 8), swept as the
	// engine advances. It finalizes per rank, so unlike Metrics it is
	// never merged across channels; Memory.IRLP combines the ranks.
	irlpSweep stats.IRLP

	// sg, when non-nil, applies Start-Gap wear leveling: logical
	// channel-local line indices remap to slowly rotating physical
	// slots, and every Psi-th write pays a line-copy (see
	// internal/wear).
	sg *wear.StartGap

	// remap redirects worn-out physical lines to spare-pool slots
	// (allocated by the program-and-verify path when retries exhaust).
	// Nil until the first remap, so healthy runs pay nothing.
	remap map[uint64]uint64
	// spareNext is the next unallocated slot of the spare-line pool.
	spareNext int

	kicked       bool
	runTimer     *sim.Timer // pre-bound run: the issue loop re-arms allocation-free
	kickTimer    *sim.Timer // pre-bound kick, for chip-release wakeups
	readWaiters  sim.Waiters
	writeWaiters sim.Waiters

	// Free lists recycling the per-request records.
	awFree *activeWrite
	arFree *activeRead

	// AssertContent makes the controller panic if a PCC reconstruction
	// ever disagrees with stored content absent injected faults;
	// enabled by tests.
	AssertContent bool

	// Timeline instrumentation (nil when tracing is off): request
	// service spans, queue-depth counter samples, and write-drain
	// windows for this channel.
	trace            *obs.Tracer
	trkService       obs.TrackID
	trkRdq, trkWrq   obs.TrackID
	nmRead, nmWrite  obs.NameID
	nmDepth, nmDrain obs.NameID
	drainStart       sim.Time
}

// activeWrite is one write's record from issue to completeWrite: the
// scheduling and Figure 1 accounting state, the program-and-verify
// state (zero unless cfg.VerifyWrites), the write-pausing segment state
// (zero unless the comparator runs), and the step its one pending event
// runs. The record's fire callback is bound once, when the pool
// allocates it, so a write costs no closure allocations in steady
// state.
type activeWrite struct {
	req      *mem.Request
	essCount int
	end      sim.Time // when the current programming booking ends
	power    int      // power slots released when programming ends

	coord    mem.Coord            // decoded target (post wear-level and remap)
	intended *[ecc.LineBytes]byte // content the write meant to store
	mask     uint8                // the write's word mask
	attempts int                  // re-program attempts so far
	progEnd  sim.Time             // when programming finished (verify overhead baseline)

	// wordProg holds a coarse write's essential words' programming
	// times, which its bookings report to IRLP.
	wordProg [ecc.WordsPerLine]sim.Time

	// Write-pausing comparator state: the write programs in segments,
	// and between them the chips are free for reads (see pausing.go).
	act       sim.Time // activation still to charge (first segment only)
	prog      sim.Time // the write's whole programming time
	remaining sim.Time // programming time left
	segment   sim.Time // per-segment slice
	inFlight  bool     // a segment is currently reserved

	// intendedBuf backs intended when the producer supplied no real
	// bytes and the controller synthesized content; inlining it here
	// keeps the synthesis allocation-free across the pool.
	intendedBuf [ecc.LineBytes]byte

	step writeStep // what the pending event does
	fire func()    // runs step; bound once per pooled record
	next *activeWrite
}

// writeStep names the event a write has pending.
type writeStep uint8

const (
	stepProgrammed   writeStep = iota // programming ended: release power, maybe verify
	stepReadBack                      // verify read-back done: compare with the intent
	stepReprogrammed                  // re-program done: read back again
	stepRemapped                      // spare-line copy done: complete
	stepSegment                       // a pausable segment ended
)

// newActive pops a recycled activeWrite, reset to zero apart from its
// fire callback, or allocates the pool's next one with fire bound.
func (c *Controller) newActive() *activeWrite {
	aw := c.awFree
	if aw == nil {
		aw = &activeWrite{}
		aw.fire = func() { c.stepWrite(aw) }
		return aw
	}
	c.awFree = aw.next
	*aw = activeWrite{fire: aw.fire}
	return aw
}

// recycleActive returns a write's record to the pool at its terminal,
// completeWrite.
func (c *Controller) recycleActive(aw *activeWrite) {
	aw.req = nil
	aw.intended = nil
	aw.next = c.awFree
	c.awFree = aw
}

// at arms a write's one pending event: step runs at t.
func (c *Controller) at(t sim.Time, aw *activeWrite, step writeStep) {
	aw.step = step
	c.eng.At(t, aw.fire)
}

// stepWrite runs a write's pending event.
func (c *Controller) stepWrite(aw *activeWrite) {
	switch aw.step {
	case stepProgrammed:
		c.powerInUse -= aw.power
		c.maybeVerifyWrite(aw)
	case stepReadBack:
		c.checkVerify(aw)
	case stepReprogrammed:
		c.scheduleVerifyRead(aw)
	case stepRemapped:
		c.verifiedWrite(aw)
	case stepSegment:
		c.segmentDone(aw)
	}
}

// activeRead is one read's record from issue to its last event: the
// completion, or for a read served by PCC reconstruction the deferred
// SECDED verification that follows it. Its fire callback is bound once,
// when the pool allocates the record.
type activeRead struct {
	req      *mem.Request
	verifyAt sim.Time // when a reconstructed read's verification runs
	faulty   bool     // the verification's injected-fault outcome
	returned bool     // data returned; the pending event is the verification

	fire func() // completeRead, then verifyRoW once returned
	next *activeRead
}

// newActiveRead pops a recycled activeRead, or allocates the pool's
// next one with fire bound, and assigns it to r.
func (c *Controller) newActiveRead(r *mem.Request, verifyAt sim.Time) *activeRead {
	ar := c.arFree
	if ar == nil {
		ar = &activeRead{}
		ar.fire = func() {
			if ar.returned {
				c.verifyRoW(ar)
			} else {
				c.completeRead(ar)
			}
		}
	} else {
		c.arFree = ar.next
	}
	*ar = activeRead{req: r, verifyAt: verifyAt, fire: ar.fire}
	return ar
}

// recycleRead returns a read's record to the pool at its last event.
func (c *Controller) recycleRead(ar *activeRead) {
	ar.req = nil
	ar.next = c.arFree
	c.arFree = ar
}

// NewController builds a controller for one channel.
func NewController(eng *sim.Engine, cfgAll *config.Config, channel int, amap *mem.AddrMap, rng *sim.RNG) *Controller {
	m := cfgAll.Memory
	v := cfgAll.Variant
	feat := v.Features()
	layout := dimm.Layout{RotateData: feat.RotateData, RotateECC: feat.RotateECC}
	c := &Controller{
		eng:       eng,
		cfg:       m,
		variant:   v,
		channel:   channel,
		feat:      feat,
		parts:     m.EffectivePartitions(feat),
		dcaRounds: m.DCARounds,
		rank:      dimm.NewRank(m.BanksPerChip, m.EffectivePartitions(feat), layout),
		amap:      amap,
		rdq:       mem.NewQueue(m.ReadQueueCap),
		wrq:       mem.NewQueue(m.WriteQueueCap),
		rng:       rng,
		Metrics:   mem.PooledMetrics(),
	}
	c.runTimer = eng.NewTimer(c.run)
	c.kickTimer = eng.NewTimer(c.kick)
	c.dataBus.Turnaround = m.Timing.TWTR.Time()
	if fc := (pcm.FaultConfig{EnduranceBudget: m.EnduranceBudget, DriftProb: m.DriftProb}); fc.Enabled() {
		// The fault model owns a private randomness stream derived from
		// the seed and channel only, so enabling injection never
		// perturbs the controller's own RNG (and disabling it keeps
		// fault-free runs bit-identical).
		c.rank.Store.Faults = pcm.NewFaultModel(fc,
			sim.NewRNG(cfgAll.Seed^0xfa017c3d9e3b55aa^(uint64(channel)+1)*0x9e3779b97f4a7c15))
	}
	if m.WearLevelPsi > 0 {
		sg, err := wear.NewStartGap(amap.LinesPerChannel(), m.WearLevelPsi)
		if err != nil {
			panic(err) // psi validated by config
		}
		c.sg = sg
	}
	return c
}

// Instrument attaches a tracer to the channel: a non-nil tr gets this
// channel's request-service spans, queue-depth samples, drain windows,
// bus transfers, and the rank's per-bank occupancy timelines. Call once
// before the first request.
func (c *Controller) Instrument(tr *obs.Tracer) {
	if tr == nil {
		return
	}
	c.trace = tr
	process := fmt.Sprintf("mem chan%d", c.channel)
	c.trkService = tr.Track(process, "service")
	c.trkRdq = tr.Track(process, "rdq")
	c.trkWrq = tr.Track(process, "wrq")
	c.nmRead = tr.Name("read")
	c.nmWrite = tr.Name("write")
	c.nmDepth = tr.Name("depth")
	c.nmDrain = tr.Name("drain")
	c.dataBus.Instrument(tr, process, "databus")
	c.cmdBus.Instrument(tr, process, "cmdbus")
	c.rank.Instrument(tr, c.channel)
}

// decode resolves an address to (possibly wear-level-remapped)
// physical coordinates, then follows any spare-pool remaps installed
// by the program-and-verify path. Enqueue stores the result on the
// request (r.Coord) and redecodeQueued refreshes it whenever the
// mapping changes, so the scheduling scans never decode.
func (c *Controller) decode(addr uint64) mem.Coord {
	coord := c.amap.Decode(addr)
	if c.sg != nil {
		if phys := c.sg.Map(coord.LineIdx); phys != coord.LineIdx {
			coord = c.amap.CoordFromLineIdx(c.channel, phys)
		}
	}
	if c.remap != nil {
		phys, moved := coord.LineIdx, false
		for {
			next, ok := c.remap[phys]
			if !ok {
				break
			}
			phys, moved = next, true
		}
		if moved {
			// Spare slots live past the channel's line range; the
			// coordinate fold (row modulo) places them physically while
			// the unique index keys the functional store.
			coord = c.amap.CoordFromLineIdx(c.channel, phys)
		}
	}
	return coord
}

// redecodeQueued refreshes every queued request's placement after the
// address mapping changed (a Start-Gap move or a spare-line remap).
func (c *Controller) redecodeQueued() {
	redecode := func(r *mem.Request) bool {
		r.Coord = c.decode(r.Addr)
		return true
	}
	c.rdq.Each(redecode)
	c.wrq.Each(redecode)
}

// wearTick advances the Start-Gap state on each serviced write,
// performing the occasional gap-move line copy: real content moves in
// the functional store, and the destination bank is charged a
// line-write's worth of chip time.
func (c *Controller) wearTick() {
	if c.sg == nil {
		return
	}
	from, to, moved := c.sg.OnWrite()
	if !moved {
		return
	}
	c.Metrics.WearMoves.Inc()
	c.redecodeQueued()
	var buf [64]byte
	c.rank.Store.ReadLine(from, &buf)
	c.rank.Store.WriteWords(to, 0xff, &buf)
	coord := c.amap.CoordFromLineIdx(c.channel, to%c.amap.LinesPerChannel())
	end := c.programChips(allChipsMask, coord, c.eng.Now(),
		c.cfg.Timing.WriteArrayRead.Time(), c.cfg.Timing.CellSET.Time())
	// The copy holds chips without a request completion behind it, so
	// wake the scheduler when the chips free up.
	c.kickTimer.At(end)
}

// Release returns the channel's line store, metrics block and IRLP
// heap to their pools for the next system's controllers. The controller
// must not be used afterwards: its rank's store and its Metrics are
// nil, so any later use panics instead of touching state another
// system now owns.
func (c *Controller) Release() {
	c.rank.Release()
	c.Metrics.Release()
	c.Metrics = nil
	c.irlpSweep.Release()
}

// Rank exposes the controller's rank (for tests and wear reporting).
func (c *Controller) Rank() *dimm.Rank { return c.rank }

// Variant returns the scheduling variant in force.
func (c *Controller) Variant() config.Variant { return c.variant }

// Enqueue presents a request to the controller. It reports false when
// the relevant queue is full; the caller should register interest via
// OnSpace and retry.
func (c *Controller) Enqueue(r *mem.Request) bool {
	r.Arrive = c.eng.Now()
	var ok bool
	if r.Kind == mem.Read {
		ok = c.rdq.Push(r)
		if !ok {
			c.Metrics.ReadQStalls.Inc()
		}
	} else {
		ok = c.wrq.Push(r)
		if !ok {
			c.Metrics.WriteQStalls.Inc()
		}
	}
	if ok {
		r.Coord = c.decode(r.Addr)
		c.Metrics.NoteArrival(r.Arrive)
		if c.trace != nil {
			if r.Kind == mem.Read {
				c.trace.Count(c.trkRdq, c.nmDepth, r.Arrive, int64(c.rdq.Len()))
			} else {
				c.trace.Count(c.trkWrq, c.nmDepth, r.Arrive, int64(c.wrq.Len()))
			}
		}
		c.kick()
	}
	return ok
}

// OnSpace registers a one-shot callback invoked when a queue slot of
// the given kind frees up.
func (c *Controller) OnSpace(kind mem.Kind, fn func()) {
	c.waiters(kind).Add(fn)
}

func (c *Controller) notifySpace(kind mem.Kind) { c.waiters(kind).Wake() }

func (c *Controller) waiters(kind mem.Kind) *sim.Waiters {
	if kind == mem.Read {
		return &c.readWaiters
	}
	return &c.writeWaiters
}

// kick schedules a scheduling pass at the current time, coalescing
// multiple triggers within one event timestamp.
func (c *Controller) kick() {
	if c.kicked {
		return
	}
	c.kicked = true
	c.runTimer.Schedule(0)
}

func (c *Controller) run() {
	c.kicked = false
	for {
		c.updateDrainMode()
		progress := false
		// Writes issue only inside drain windows (Section II-B: the bus
		// turns around and writes drain in bursts); the lone exception
		// is an idle system with nothing to read, where holding writes
		// back serves nobody.
		idleWrites := c.rdq.Len() == 0 && len(c.active) == 0 && c.wrq.Len() > 0
		if c.draining || idleWrites {
			if c.tryIssueWrite() {
				progress = true
			}
		}
		if c.canIssueReadsNow() {
			if c.tryIssueRead() {
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	c.maybeResumePaused()
	c.markDelayedReads()
}

// canIssueReadsNow encodes the bus-direction policy: outside drain mode
// reads always have priority; during a drain only RoW-capable variants
// keep serving reads (Section IV-D2).
func (c *Controller) canIssueReadsNow() bool {
	if c.rdq.Len() == 0 {
		return false
	}
	if !c.draining {
		return true
	}
	if c.paused != nil && !c.paused.inFlight {
		// Write-pausing comparator: the parked write opened a window
		// for reads even mid-drain.
		return true
	}
	return c.feat.RoW
}

func (c *Controller) updateDrainMode() {
	occ := c.wrq.Occupancy()
	if !c.draining && occ >= c.cfg.DrainHighPct {
		c.draining = true
		c.Metrics.DrainEntries.Inc()
		c.drainStart = c.eng.Now()
	} else if c.draining && occ <= c.cfg.DrainLowPct {
		c.draining = false
		c.trace.Span(c.trkWrq, c.nmDrain, c.drainStart, c.eng.Now()-c.drainStart)
	}
}

// markDelayedReads flags queued reads blocked by the write path (the
// Figure 1 numerator): reads held back by a drain window. Reads blocked
// by busy chips are flagged inside planRead.
func (c *Controller) markDelayedReads() {
	if !c.draining || c.canIssueReadsNow() || c.wrq.Len() == 0 {
		return
	}
	c.rdq.Each(func(r *mem.Request) bool {
		if !r.Started {
			r.DelayedByWrite = true
		}
		return true
	})
}

// activeWrites counts in-service writes that program at least one word
// (silent write-backs do not occupy the WoW scheduler's tracking).
func (c *Controller) activeWrites() int {
	n := 0
	for _, aw := range c.active {
		if aw.essCount > 0 {
			n++
		}
	}
	return n
}

func (c *Controller) removeActive(w *activeWrite) {
	for i, x := range c.active {
		if x == w {
			c.active = append(c.active[:i], c.active[i+1:]...)
			return
		}
	}
}

// partOf maps a decoded coordinate onto its bank partition: PALP splits
// a bank by row index, so consecutive rows land in different partitions
// (parts is a validated power of two; monolithic banks have one
// partition, 0).
func (c *Controller) partOf(coord mem.Coord) int {
	return int(uint64(coord.Row) & uint64(c.parts-1))
}

// programChips books one programming operation on every chip in mask,
// in coord's bank partition, and returns when the last one ends.
func (c *Controller) programChips(mask uint16, coord mem.Coord, earliest, act, prog sim.Time) sim.Time {
	part := c.partOf(coord)
	end := earliest
	for i := 0; i < dimm.Slots; i++ {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		if _, e := c.rank.Chips[i].ReserveProgram(coord.Bank, part, earliest, act, prog); e > end {
			end = e
		}
	}
	return end
}

// irlp returns the rank's IRLP tracker swept up to the engine's
// current instant. Every interval reported through it must start at or
// after that instant.
func (c *Controller) irlp() *stats.IRLP {
	c.irlpSweep.Advance(c.eng.Now(), c.cfg.DataChips)
	return &c.irlpSweep
}

// progTime converts a word's transition analysis into its programming
// time: the paper's two-level model (any SET bit costs CellSET, else
// any RESET bit costs CellRESET) or, for content-aware variants, the
// DCA model driven by the actual SET/RESET bit counts.
func (c *Controller) progTime(f pcm.FlipKind) sim.Time {
	if c.feat.ContentAware {
		return c.cfg.Timing.DCAWriteLatency(f.Sets, f.Resets, c.dcaRounds)
	}
	return c.cfg.Timing.WriteLatency(f.Sets > 0, f.Resets > 0)
}

// rowHitAll reports whether every chip in mask has row open in bank.
func (c *Controller) rowHitAll(mask uint16, bank int, row int64) bool {
	for i := 0; i < dimm.Slots; i++ {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		if !c.rank.Chips[i].RowHit(bank, row) {
			return false
		}
	}
	return true
}

func (c *Controller) openRowAll(mask uint16, bank int, row int64) {
	for i := 0; i < dimm.Slots; i++ {
		if mask&(1<<uint(i)) != 0 {
			c.rank.Chips[i].OpenRowIn(bank, row)
		}
	}
}

// allChipsMask is the chip mask covering the entire rank.
const allChipsMask uint16 = 1<<dimm.Slots - 1

// baselineChipsMask covers the nine chips of a conventional ECC DIMM
// (the baseline never touches the PCC chip).
const baselineChipsMask uint16 = 1<<9 - 1

// lineChips returns the chips holding the line's slots: data words,
// ECC, and (for PCMap variants) PCC.
func (c *Controller) lineChips(rotIdx uint64) uint16 {
	l := c.rank.Layout
	m := l.DataChips(rotIdx)
	m |= 1 << uint(l.ECCChip(rotIdx))
	if c.feat.FineGrained {
		m |= 1 << uint(l.PCCChip(rotIdx))
	}
	return m
}

// synthesizeWriteData builds new line content for a masked write when
// the producer did not supply real bytes: every essential word receives
// a fresh value guaranteed to differ from the stored one, so the
// differential-write machinery sees genuine SET/RESET transitions. The
// content lands in buf (the active write's inline buffer), keeping the
// synthesis allocation-free.
func (c *Controller) synthesizeWriteData(lineIdx uint64, mask uint8, buf *[ecc.LineBytes]byte) {
	c.rank.Store.ReadLine(lineIdx, buf)
	for w := 0; w < ecc.WordsPerLine; w++ {
		if mask&(1<<uint(w)) == 0 {
			continue
		}
		old := ecc.Word(buf, w)
		v := c.rng.Uint64()
		if v == old {
			v ^= 1
		}
		ecc.SetWord(buf, w, v)
	}
}

// statusPollCost charges the DIMM-register Status command on the
// command bus and returns the time scheduling may proceed.
func (c *Controller) statusPollCost(earliest sim.Time) sim.Time {
	c.Metrics.StatusPolls.Inc()
	_, end := c.cmdBus.Acquire(earliest, c.cfg.StatusPollCycles.Time(), false)
	return end
}

// commandCost charges n command slots on the command/address bus.
func (c *Controller) commandCost(earliest sim.Time, n int) sim.Time {
	_, end := c.cmdBus.Acquire(earliest, sim.MemCycle.Times(n), false)
	return end
}

func (c *Controller) String() string {
	return fmt.Sprintf("controller(ch=%d,%s)", c.channel, c.variant)
}
