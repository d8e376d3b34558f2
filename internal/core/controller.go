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
	paused     *pausedWrite   // baseline write-pausing comparator state

	rng     *sim.RNG
	Metrics *mem.Metrics

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
	readWaiters  []func()
	writeWaiters []func()

	// Scheduling-pass scratch state, pre-bound once so the hot issue
	// loop allocates nothing: plans is cleared (not reallocated) per
	// pass, and the two queue-scan predicates close over the controller
	// alone.
	plans         map[*mem.Request]readPlan
	serviceableFn func(*mem.Request) bool
	rowHitFn      func(*mem.Request) bool

	// Free lists recycling the per-request bookkeeping objects: active
	// writes (with their inline intended-content buffer) and the event
	// records that carry read/write/verify completions through the
	// engine. Each record pre-binds its fire closure once, so a request
	// costs no closure allocations in steady state.
	awFree       *activeWrite
	readEvFree   *readEv
	verifyEvFree *verifyEv
	writeEvFree  *writeEv

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

// activeWrite tracks a write in service for scheduling decisions and
// the Figure 1 delayed-read accounting. The verify fields carry the
// program-and-verify state when cfg.VerifyWrites is on; they stay zero
// otherwise.
type activeWrite struct {
	req      *mem.Request
	bank     int
	essCount int
	end      sim.Time

	coord    mem.Coord            // decoded target (post wear-level and remap)
	intended *[ecc.LineBytes]byte // content the write meant to store
	mask     uint8                // the write's word mask
	attempts int                  // re-program attempts so far
	progEnd  sim.Time             // when programming finished (verify overhead baseline)

	// intendedBuf backs intended when the producer supplied no real
	// bytes and the controller synthesized content; inlining it here
	// keeps the synthesis allocation-free across the pool.
	intendedBuf [ecc.LineBytes]byte
	next        *activeWrite // free-list link
}

// newActive pops a recycled activeWrite (or allocates the pool's next
// one) with every scheduling-visible field reset. intendedBuf is left
// dirty: applyWrite overwrites it before anything reads it.
func (c *Controller) newActive() *activeWrite {
	aw := c.awFree
	if aw == nil {
		return &activeWrite{}
	}
	c.awFree = aw.next
	aw.next = nil
	aw.req = nil
	aw.bank = 0
	aw.essCount = 0
	aw.end = 0
	aw.coord = mem.Coord{}
	aw.intended = nil
	aw.mask = 0
	aw.attempts = 0
	aw.progEnd = 0
	return aw
}

// recycleActive returns a completed write's record to the pool.
// completeWrite is the unique terminal of every write path (plain,
// verify-retry, remap, pausing), so the record is dead once it runs.
func (c *Controller) recycleActive(aw *activeWrite) {
	aw.req = nil
	aw.intended = nil
	aw.next = c.awFree
	c.awFree = aw
}

// readEv carries one read's completion through the engine. The fire
// closure is bound once per record; recycling re-arms it for the next
// read at zero allocations.
type readEv struct {
	r        *mem.Request
	verifyAt sim.Time
	fire     func()
	next     *readEv
}

func (c *Controller) newReadEv(r *mem.Request, verifyAt sim.Time) *readEv {
	ev := c.readEvFree
	if ev == nil {
		ev = &readEv{}
		ev.fire = func() {
			r, verifyAt := ev.r, ev.verifyAt
			ev.r = nil
			ev.next = c.readEvFree
			c.readEvFree = ev
			c.completeRead(r, verifyAt)
		}
	} else {
		c.readEvFree = ev.next
	}
	ev.r, ev.verifyAt = r, verifyAt
	return ev
}

// verifyEv carries a reconstructed read's deferred SECDED verification.
type verifyEv struct {
	r      *mem.Request
	faulty bool
	fire   func()
	next   *verifyEv
}

func (c *Controller) newVerifyEv(r *mem.Request, faulty bool) *verifyEv {
	ev := c.verifyEvFree
	if ev == nil {
		ev = &verifyEv{}
		ev.fire = func() {
			r, faulty := ev.r, ev.faulty
			ev.r = nil
			ev.next = c.verifyEvFree
			c.verifyEvFree = ev
			c.Metrics.RoWVerifies.Inc()
			if faulty {
				c.Metrics.RoWFaulty.Inc()
			}
			if r.OnVerify != nil {
				r.OnVerify(r, faulty)
			}
		}
	} else {
		c.verifyEvFree = ev.next
	}
	ev.r, ev.faulty = r, faulty
	return ev
}

// writeEv carries one write's end-of-programming event: releasing its
// power slots, then either completing a silent write directly or
// entering the (maybe-)verify path.
type writeEv struct {
	r      *mem.Request
	aw     *activeWrite
	power  int
	silent bool
	fire   func()
	next   *writeEv
}

func (c *Controller) newWriteEv(r *mem.Request, aw *activeWrite, power int, silent bool) *writeEv {
	ev := c.writeEvFree
	if ev == nil {
		ev = &writeEv{}
		ev.fire = func() {
			r, aw, power, silent := ev.r, ev.aw, ev.power, ev.silent
			ev.r, ev.aw = nil, nil
			ev.next = c.writeEvFree
			c.writeEvFree = ev
			c.powerInUse -= power
			if silent {
				c.completeWrite(r, aw)
			} else {
				c.maybeVerifyWrite(r, aw)
			}
		}
	} else {
		c.writeEvFree = ev.next
	}
	ev.r, ev.aw, ev.power, ev.silent = r, aw, power, silent
	return ev
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
		Metrics:   mem.NewMetrics(),
	}
	c.runTimer = eng.NewTimer(c.run)
	c.kickTimer = eng.NewTimer(c.kick)
	c.plans = make(map[*mem.Request]readPlan)
	c.serviceableFn = func(r *mem.Request) bool {
		if r.Started || r.Kind != mem.Read {
			return false
		}
		p, ok := c.planRead(r)
		if ok {
			c.plans[r] = p
		} else if p.blockedByWr {
			r.DelayedByWrite = true
		}
		return ok
	}
	c.rowHitFn = func(r *mem.Request) bool { return c.plans[r].rowHit }
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
// by the program-and-verify path. All controller paths must use this
// instead of the raw address map so remapping stays consistent.
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

// Rank exposes the controller's rank (for tests and wear reporting).
func (c *Controller) Rank() *dimm.Rank { return c.rank }

// Variant returns the scheduling variant in force.
func (c *Controller) Variant() config.Variant { return c.variant }

// QueueLens returns current read and write queue occupancy.
func (c *Controller) QueueLens() (reads, writes int) { return c.rdq.Len(), c.wrq.Len() }

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
	if kind == mem.Read {
		c.readWaiters = append(c.readWaiters, fn)
	} else {
		c.writeWaiters = append(c.writeWaiters, fn)
	}
}

func (c *Controller) notifySpace(kind mem.Kind) {
	var ws []func()
	if kind == mem.Read {
		ws, c.readWaiters = c.readWaiters, nil
	} else {
		ws, c.writeWaiters = c.writeWaiters, nil
	}
	for _, fn := range ws {
		fn()
	}
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
	x := c.Metrics.IRLP
	x.Advance(c.eng.Now(), c.cfg.DataChips)
	return x
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
