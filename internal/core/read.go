package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"pcmap/internal/ecc"
	"pcmap/internal/mem"
	"pcmap/internal/sim"
)

// readPlan captures how a queued read could be served right now.
type readPlan struct {
	coord       mem.Coord
	part        int  // the read's bank partition (0 with monolithic banks)
	busyChip    int  // chip whose word must be reconstructed; -1 if none
	missingWord int  // data word index held by busyChip
	eccFree     bool // ECC chip idle: SECDED check can run inline
	rowHit      bool
	partWin     bool // serviceable only because another partition holds the busy work
	blockedByWr bool // not serviceable, and the blocker is a write
}

// planRead determines whether r can be served at the current time and
// how. It returns (plan, ok).
func (c *Controller) planRead(r *mem.Request) (readPlan, bool) {
	p := readPlan{busyChip: -1, missingWord: -1}
	p.coord = r.Coord
	p.part = c.partOf(p.coord)
	l := c.rank.Layout
	if len(c.active) > 0 && !c.feat.RoW {
		// While a write is in service the baseline (and WoW-only)
		// controller holds reads back entirely — "the remaining chips
		// of that rank will be idle for the long duration of this
		// write" (Section I). The write-pausing comparator relaxes
		// this exactly while its write is parked between segments.
		parked := c.paused != nil && !c.paused.inFlight && len(c.active) == 1
		if !parked {
			p.blockedByWr = true
			return p, false
		}
	}
	// Chip-busy checks run at partition granularity: a chip whose bank
	// is occupied only in another partition counts free, which is PALP's
	// read-over-write generalization (a monolithic bank has one
	// partition). partWin records that partition state made the
	// difference for some involved chip.
	now := c.eng.Now()
	free := func(chip int) bool {
		ch := c.rank.Chips[chip]
		if !ch.FreeAt(p.coord.Bank, p.part, now) {
			return false
		}
		if c.parts > 1 && ch.BankBusyUntil(p.coord.Bank) > now {
			p.partWin = true
		}
		return true
	}
	busyCount := 0
	for w := 0; w < ecc.WordsPerLine; w++ {
		if chip := l.DataChip(p.coord.RotIdx, w); !free(chip) {
			busyCount++
			p.busyChip = chip
			p.missingWord = w
		}
	}
	p.eccFree = free(l.ECCChip(p.coord.RotIdx))
	switch {
	case busyCount == 0:
		p.busyChip, p.missingWord = -1, -1
		p.rowHit = c.rowHitAll(l.DataChips(p.coord.RotIdx), p.coord.Bank, p.coord.Row)
		return p, true
	case busyCount == 1 && c.feat.RoW && c.rowServiceAllowed() &&
		c.rank.Chips[l.PCCChip(p.coord.RotIdx)].FreeAt(p.coord.Bank, p.part, now):
		// Serve by reconstruction: read the seven free data words plus
		// the PCC word and XOR the missing word back (Section IV-B).
		mask := l.DataChips(p.coord.RotIdx) &^ (1 << uint(p.busyChip))
		mask |= 1 << uint(l.PCCChip(p.coord.RotIdx))
		p.rowHit = c.rowHitAll(mask, p.coord.Bank, p.coord.Row)
		return p, true
	default:
		p.blockedByWr = len(c.active) > 0
		return p, false
	}
}

// rowServiceAllowed reports whether reconstruction-based read service
// may run right now: the paper's scheduler performs RoW only while the
// ongoing (oldest) write updates at most one essential word (Section
// IV-D2, rule 1), keeping reconstruction sound with a single missing
// chip; the Section IV-B4 multi-word extension lifts the restriction.
// Reads with no busy-chip overlap are ordinary rank-subsetting
// parallelism and bypass this check entirely.
func (c *Controller) rowServiceAllowed() bool {
	if c.cfg.RoWMultiWord || len(c.active) == 0 {
		return true
	}
	return c.active[0].essCount <= 1
}

// classify is the scheduling pass's queue-scan classifier: whether r
// can be served now and whether it counts as a row hit. A read blocked
// by the write path is marked DelayedByWrite (the Figure 1 numerator).
// During a drain every serviceable read counts as a hit, so FR-FCFS
// selection degenerates to the oldest serviceable read (the paper's
// RoW scheduler picks the oldest read, Section IV-D2).
func (c *Controller) classify(r *mem.Request) (ready, rowHit bool) {
	if r.Started || r.Kind != mem.Read {
		return false, false
	}
	p, ok := c.planRead(r)
	if !ok && p.blockedByWr {
		r.DelayedByWrite = true
	}
	return ok, ok && (p.rowHit || c.draining)
}

// tryIssueRead attempts to start service of one queued read, honoring
// FR-FCFS in normal mode and oldest-first during a drain. planRead is a
// pure function of controller state, so re-planning the chosen read
// reproduces the plan its classification saw.
func (c *Controller) tryIssueRead() bool {
	r := c.rdq.SelectFRFCFS(c.classify)
	if r == nil {
		return false
	}
	p, _ := c.planRead(r)
	c.issueRead(r, p)
	return true
}

func (c *Controller) issueRead(r *mem.Request, p readPlan) {
	now := c.eng.Now()
	r.Started = true
	r.Issue = now
	timing := c.cfg.Timing
	l := c.rank.Layout
	overlap := len(c.active) > 0
	if overlap {
		c.Metrics.OverlapReads.Inc()
	}
	if p.partWin {
		// The read proceeds only because the conflicting work sits in a
		// different partition of its bank (PALP service).
		c.Metrics.PartOverlapReads.Inc()
	}

	start := now
	if p.busyChip >= 0 {
		// Scheduling around a busy chip needs the DIMM status flags.
		start = c.statusPollCost(now)
	}
	start = c.commandCost(start, 2)

	// The set of chips that stream this read (at most all ten slots).
	var involvedBuf [10]int
	involved := involvedBuf[:0]
	for w := 0; w < ecc.WordsPerLine; w++ {
		chip := l.DataChip(p.coord.RotIdx, w)
		if chip != p.busyChip {
			involved = append(involved, chip)
		}
	}
	if p.busyChip >= 0 {
		involved = append(involved, l.PCCChip(p.coord.RotIdx))
	}
	if p.eccFree {
		involved = append(involved, l.ECCChip(p.coord.RotIdx))
	}

	act := sim.Time(0)
	if !p.rowHit {
		act = timing.ArrayRead.Time()
	}
	ready := start + act + timing.TCL.Time()
	burst := timing.TBurst.Time()
	_, done := c.dataBus.Acquire(ready, burst, false)
	for _, chip := range involved {
		c.rank.Chips[chip].Reserve(p.coord.Bank, p.part, now, done-now)
		c.rank.Chips[chip].OpenRowIn(p.coord.Bank, p.coord.Row)
	}
	c.irlp().AddChipService(now, done, len(involved))

	// Functional data path. Drift is sampled at the instant the arrays
	// are sensed, so the same read that triggers a flip also observes it.
	c.rank.Store.InjectDrift(p.coord.LineIdx)
	c.rank.Store.ReadLine(p.coord.LineIdx, &r.ReadData)
	var verifyAt sim.Time
	if p.busyChip >= 0 {
		r.Reconstructed = true
		c.Metrics.RoWServed.Inc()
		got, match := c.rank.Store.ReconstructWord(p.coord.LineIdx, p.missingWord)
		if !match && c.AssertContent && c.cfg.BitErrorRate == 0 && c.rank.Store.Faults == nil {
			panic(fmt.Sprintf("core: PCC reconstruction mismatch line %#x word %d", p.coord.LineIdx, p.missingWord))
		}
		ecc.SetWord(&r.ReadData, p.missingWord, got)
		// Verification: once the busy chip frees, its word is read and
		// the full line SECDED-checked, off the critical path.
		chipFreeAt := c.rank.Chips[p.busyChip].BankBusyUntil(p.coord.Bank)
		verifyAt = done
		if chipFreeAt > verifyAt {
			verifyAt = chipFreeAt
		}
		verifyAt += (timing.TCL + timing.TBurst).Time()
	}
	c.decodeRead(r, p.coord.LineIdx)

	c.eng.At(done, c.newActiveRead(r, verifyAt).fire)
}

// decodeRead is the SECDED decode every serviced read passes through:
// each returned word is checked against its stored check byte,
// single-bit data errors are corrected in place, and double-bit words
// fall back to PCC reconstruction from the (already corrected) sibling
// words. A reconstruction is accepted only when it re-checks clean
// against the word's SECDED code; anything else is reported as a typed
// uncorrectable error on the request — never silently returned. On a
// fault-free store every word checks OK and the request is untouched.
func (c *Controller) decodeRead(r *mem.Request, lineIdx uint64) {
	l := c.rank.Store.Peek(lineIdx)
	var doubleMask uint8
	for w := 0; w < ecc.WordsPerLine; w++ {
		word := ecc.Word(&r.ReadData, w)
		fixed, st := ecc.Check64(word, l.ECC[w])
		switch st {
		case ecc.OK:
		case ecc.CorrectedData:
			ecc.SetWord(&r.ReadData, w, fixed)
			c.Metrics.SECDEDCorrected.Inc()
		case ecc.CorrectedCheck:
			c.Metrics.SECDEDCheckFixed.Inc()
		case ecc.DetectedDouble:
			doubleMask |= 1 << uint(w)
		}
	}
	if doubleMask == 0 {
		return
	}
	failMask := doubleMask
	if doubleMask&(doubleMask-1) == 0 {
		// PCC is a single-erasure code: reconstruction is sound only
		// when exactly one word is lost. With two or more double-error
		// words each rebuild would use another corrupt word, so those
		// lines go straight to the uncorrectable report.
		w := bits.TrailingZeros8(doubleMask)
		recon := ecc.ReconstructWord(&r.ReadData, w, l.PCC)
		if fixed, st := ecc.Check64(recon, l.ECC[w]); st == ecc.OK {
			ecc.SetWord(&r.ReadData, w, fixed)
			c.Metrics.PCCRecovered.Inc()
			failMask = 0
		}
	}
	if failMask != 0 {
		r.Err = &mem.UncorrectableError{Addr: r.Addr, LineIdx: lineIdx, WordMask: failMask}
		c.Metrics.UncorrectedReads.Inc()
		return
	}
	// Line-level parity audit: the XOR of the (corrected) data words
	// must equal the stored PCC word. SECDED silently miscorrects >=3-bit
	// errors (it aliases them onto a valid single-bit syndrome), and this
	// is the only check that catches those; a mismatch with no word left
	// in failMask is reported as a line-level detected-uncorrectable
	// (WordMask zero: the faulty word cannot be localized).
	var x uint64
	for w := 0; w < ecc.WordsPerLine; w++ {
		x ^= ecc.Word(&r.ReadData, w)
	}
	if x != binary.LittleEndian.Uint64(l.PCC[:]) {
		r.Err = &mem.UncorrectableError{Addr: r.Addr, LineIdx: lineIdx}
		c.Metrics.UncorrectedReads.Inc()
	}
}

// completeRead returns a read's data. A read served by reconstruction
// keeps its record until the deferred verification; any other read
// ends here.
func (c *Controller) completeRead(ar *activeRead) {
	r := ar.req
	r.Done = c.eng.Now()
	c.rdq.Remove(r)
	c.Metrics.Reads.Inc()
	c.Metrics.ReadLatency.Add(r.Latency())
	c.Metrics.NoteDone(r.Done)
	if c.trace != nil {
		c.trace.Span(c.trkService, c.nmRead, r.Arrive, r.Done-r.Arrive)
		c.trace.Count(c.trkRdq, c.nmDepth, r.Done, int64(c.rdq.Len()))
	}
	if r.DelayedByWrite {
		c.Metrics.ReadsDelayedByWrite.Inc()
	}

	ar.faulty = c.injectedFault()
	if !r.Reconstructed && ar.faulty {
		// SECDED runs inline (when the ECC chip streamed with the
		// data) or is postponed; either way a single-bit fault is
		// corrected before the CPU commits, without rollback.
		c.Metrics.ECCCorrected.Inc()
	}
	// Keep the engine's historical sequence assignment order — OnDone's
	// spawns, then (for a reconstructed read) the verify read-back, then
	// space notifications and the kick — so a future event that happens
	// to share the verify's timestamp keeps its relative order against
	// OnDone's descendants.
	if r.OnDone != nil {
		r.OnDone(r)
	}
	if r.Reconstructed {
		// The deferred SECDED verification runs once the busy chip has
		// freed and streamed the missing word.
		ar.returned = true
		c.eng.At(ar.verifyAt, ar.fire)
	} else {
		c.recycleRead(ar)
	}
	c.notifySpace(mem.Read)
	c.kick()
}

// verifyRoW is a reconstructed read's deferred SECDED verification, its
// last event.
func (c *Controller) verifyRoW(ar *activeRead) {
	c.Metrics.RoWVerifies.Inc()
	if ar.faulty {
		c.Metrics.RoWFaulty.Inc()
	}
	if r := ar.req; r.OnVerify != nil {
		r.OnVerify(r, ar.faulty)
	}
	c.recycleRead(ar)
}

// injectedFault samples the configured fault model: FaultMode overrides
// ("always"/"never"), otherwise each read suffers a correctable bit
// error with probability BitErrorRate.
func (c *Controller) injectedFault() bool {
	switch c.cfg.FaultMode {
	case "always":
		return true
	case "never":
		return false
	}
	if c.cfg.BitErrorRate <= 0 {
		return false
	}
	return c.rng.Bool(c.cfg.BitErrorRate)
}
