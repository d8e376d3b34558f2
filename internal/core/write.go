package core

import (
	"math/bits"

	"pcmap/internal/dimm"
	"pcmap/internal/ecc"
	"pcmap/internal/mem"
	"pcmap/internal/pcm"
	"pcmap/internal/sim"
)

// tryIssueWrite attempts to start service of one queued write. It
// returns true when a write was issued (the scheduling loop then runs
// again, which is how WoW consolidates several writes in one pass).
func (c *Controller) tryIssueWrite() bool {
	if c.wrq.Len() == 0 {
		return false
	}
	overlap := len(c.active) > 0
	if !c.feat.FineGrained {
		// Baseline: one coarse write at a time (it reserves the whole
		// rank power budget and occupies the full bank).
		if overlap || c.powerInUse > 0 {
			return false
		}
		r := c.wrq.Oldest(func(r *mem.Request) bool {
			return !r.Started && r.Kind == mem.Write && c.coarseWriteReady(r)
		})
		if r == nil {
			return false
		}
		c.issueCoarseWrite(r)
		return true
	}
	if overlap && !c.feat.WoW {
		// Fine-grained but non-consolidating variants serialize writes.
		return false
	}
	if c.feat.WoW && c.activeWrites() >= c.cfg.MaxConcurrentWrites {
		return false
	}
	r := c.wrq.Oldest(func(r *mem.Request) bool {
		return !r.Started && r.Kind == mem.Write && c.fineWriteReady(r)
	})
	if r == nil {
		return false
	}
	c.issueFineWrite(r, overlap)
	return true
}

// coarseWriteReady gates the baseline write: the coarse access needs
// the target bank idle across the DIMM's nine chips (the whole bank is
// busy until the write completes, Section III-A1).
func (c *Controller) coarseWriteReady(r *mem.Request) bool {
	bank, part, now := r.Coord.Bank, c.partOf(r.Coord), c.eng.Now()
	for i := 0; i < 9; i++ { // data chips + ECC chip
		if !c.rank.Chips[i].FreeAt(bank, part, now) {
			return false
		}
	}
	return true
}

func (c *Controller) fineWriteReady(r *mem.Request) bool {
	coord := &r.Coord
	ess := r.Mask
	need := bits.OnesCount8(ess)
	if need > 0 {
		need += 2 // ECC and PCC words are programmed too
	}
	// A write wider than the whole budget may still run alone.
	if c.powerInUse+need > c.cfg.PowerSlots && c.powerInUse > 0 {
		return false
	}
	// Essential data chips must be idle now — bank and programming
	// circuitry both (the paper's non-overlapping-chip-sets
	// condition); ECC/PCC updates may queue behind a busy code chip
	// (Figure 5(d) serializes them). The bank check runs at partition
	// granularity, so under PALP a write may start while a read holds
	// another partition of the same bank.
	now := c.eng.Now()
	part := c.partOf(r.Coord)
	l := c.rank.Layout
	for w := 0; w < ecc.WordsPerLine; w++ {
		if ess&(1<<uint(w)) == 0 {
			continue
		}
		chip := c.rank.Chips[l.DataChip(coord.RotIdx, w)]
		if !chip.FreeAt(coord.Bank, part, now) || !chip.ProgFreeAt(now) {
			return false
		}
	}
	return true
}

// applyWrite applies the request's content to the functional store and
// returns the essential-word mask (words whose bits actually flip) and
// the per-chip transition analysis. The intended line content (what the
// cells should hold afterwards — the verify read-back compares against
// it) lands in aw.intended: the caller's data when supplied, otherwise
// synthesized content in aw's inline buffer.
func (c *Controller) applyWrite(r *mem.Request, lineIdx uint64, aw *activeWrite) (uint8, pcm.WriteResult) {
	data := r.Data
	if data == nil {
		c.synthesizeWriteData(lineIdx, r.Mask, &aw.intendedBuf)
		data = &aw.intendedBuf
	}
	aw.intended = data
	if c.feat.ContentAware {
		// Content-aware variants observe the write's actual transition
		// counts (the stored-vs-intended XOR fold) — both for the DCA
		// latency model and for the SET/RESET distribution histograms.
		// Snapshot before WriteWords mutates the stored line.
		old := c.rank.Store.Peek(lineIdx)
		tot := pcm.AnalyzeLineWrite(&old.Data, data, r.Mask)
		c.Metrics.SetBits.Add(tot.Sets)
		c.Metrics.ResetBits.Add(tot.Resets)
	}
	res := c.rank.Store.WriteWords(lineIdx, r.Mask, data)
	var essMask uint8
	for w := 0; w < ecc.WordsPerLine; w++ {
		if res.PerWord[w].Any() {
			essMask |= 1 << uint(w)
		}
	}
	return essMask, res
}

// issueCoarseWrite starts a baseline write: the line's nine chips
// (data words and ECC) program in lock step for the longest word's
// time. Under the write-pausing comparator the same programming is
// booked in pausable segments (resumeSegment) instead of at once.
func (c *Controller) issueCoarseWrite(r *mem.Request) {
	now := c.eng.Now()
	r.Started = true
	r.Issue = now
	coord := r.Coord // the placement before this write's wear tick
	aw := c.newActive()
	essMask, res := c.applyWrite(r, coord.LineIdx, aw)
	essCount := bits.OnesCount8(essMask)
	c.Metrics.DirtyWords.Add(essCount)
	if essCount == 0 {
		c.Metrics.SilentWrites.Inc()
	}
	c.wearTick()

	t := c.commandCost(now, 2)
	wl := c.cfg.Timing.TWL.Time()
	burst := c.cfg.Timing.TBurst.Time()
	_, t0 := c.dataBus.Acquire(t, wl+burst, true)

	act := sim.Time(0)
	if !c.rowHitAll(baselineChipsMask, coord.Bank, coord.Row) {
		act = c.cfg.Timing.WriteArrayRead.Time()
	}
	// Longest transition among data words and the ECC word sets the
	// lock-step program time of the whole bank. Only the essential
	// words count as serving data (IRLP).
	prog := c.progTime(res.ECCFlips)
	for w := 0; w < ecc.WordsPerLine; w++ {
		d := c.progTime(res.PerWord[w])
		prog = max(prog, d)
		if essMask&(1<<uint(w)) != 0 {
			aw.wordProg[w] = d
		}
	}
	// Endurance accounting on the programming chips.
	for w := 0; w < ecc.WordsPerLine; w++ {
		if res.PerWord[w].Any() {
			c.rank.Chips[w].CountWrite(res.PerWord[w])
		}
	}
	if res.ECCFlips.Any() {
		c.rank.Chips[dimm.ECCSlot].CountWrite(res.ECCFlips)
	}

	c.powerInUse = c.cfg.PowerSlots
	aw.req, aw.essCount = r, essCount
	aw.coord, aw.mask = coord, r.Mask
	c.active = append(c.active, aw)

	if c.pausingEnabled() {
		aw.act, aw.prog, aw.remaining = act, prog, prog
		aw.segment = prog.DivCeil(writePauseSegments)
		c.paused = aw
		c.resumeSegment(t0)
		return
	}
	aw.end = c.bookCoarse(coord, t0, act, 0, prog, &aw.wordProg)
	c.at(aw.end, aw, stepProgrammed)
}

// bookCoarse books dur of a coarse write's programming, starting off
// into its total programming time, on the nine chips, and reports the
// booking to IRLP: the window covers it, and each essential word
// serves data for the part of its own programming time (wordProg) that
// falls in the booking, the words whose service ends together as one
// chip count. It returns when the booking ends.
func (c *Controller) bookCoarse(coord mem.Coord, earliest, act, off, dur sim.Time, wordProg *[ecc.WordsPerLine]sim.Time) sim.Time {
	end := c.programChips(baselineChipsMask, coord, earliest, act, dur)
	c.openRowAll(baselineChipsMask, coord.Bank, coord.Row)
	if off > 0 {
		// A resumed segment starts once the reads served during the
		// pause release the chips, not at the resume instant.
		earliest = end - dur
	}
	if dur > 0 {
		irlp := c.irlp()
		irlp.AddWriteWindow(earliest, end)
		var served [ecc.WordsPerLine]sim.Time
		for w, pd := range wordProg {
			// A word done before this booking gives pd <= 0: no service.
			served[w] = min(pd-off, dur)
		}
		for w := range served {
			pd := served[w] // zeroed once counted with an earlier word
			if pd <= 0 {
				continue
			}
			n := 1
			for v := w + 1; v < len(served); v++ {
				if served[v] == pd {
					n, served[v] = n+1, 0
				}
			}
			irlp.AddChipService(earliest+act, earliest+act+pd, n)
		}
	}
	return end
}

// fineJob describes one chip-word programming job of a fine write.
type fineJob struct {
	chip  int
	flips pcm.FlipKind
}

func (c *Controller) issueFineWrite(r *mem.Request, overlap bool) {
	now := c.eng.Now()
	r.Started = true
	r.Issue = now
	coord := r.Coord // the placement before this write's wear tick
	part := c.partOf(coord)
	if c.parts > 1 {
		// PALP accounting: this write starts while some essential chip's
		// bank is busy in another partition (a read or write it would
		// have waited behind under whole-bank scheduling).
		for w := 0; w < ecc.WordsPerLine; w++ {
			if r.Mask&(1<<uint(w)) == 0 {
				continue
			}
			chip := c.rank.Layout.DataChip(coord.RotIdx, w)
			if ch := c.rank.Chips[chip]; ch.BankBusyUntil(coord.Bank) > now && ch.FreeAt(coord.Bank, part, now) {
				c.Metrics.PartOverlapWrites.Inc()
				break
			}
		}
	}
	aw := c.newActive()
	essMask, res := c.applyWrite(r, coord.LineIdx, aw)
	essCount := bits.OnesCount8(essMask)
	c.Metrics.DirtyWords.Add(essCount)
	c.wearTick()
	if overlap {
		c.Metrics.WoWOverlapped.Inc()
	}

	l := c.rank.Layout
	start := now
	if overlap {
		// The controller polls the DIMM register before scheduling
		// around busy chips (Section IV-D1).
		start = c.statusPollCost(now)
	}

	if essCount == 0 {
		// Fully silent write-back: the chips' internal compare finds
		// nothing to program. Charge the compare on the line's data
		// chips only when the row is closed (row-buffer compare is
		// free), and finish.
		c.Metrics.SilentWrites.Inc()
		end := start
		if !c.rowHitAll(l.DataChips(coord.RotIdx), coord.Bank, coord.Row) {
			dur := c.cfg.Timing.WriteArrayRead.Time()
			for w := 0; w < ecc.WordsPerLine; w++ {
				chip := l.DataChip(coord.RotIdx, w)
				_, e := c.rank.Chips[chip].Reserve(coord.Bank, part, start, dur)
				c.rank.Chips[chip].OpenRowIn(coord.Bank, coord.Row)
				if e > end {
					end = e
				}
			}
		}
		// With essCount zero, maybeVerifyWrite completes the write.
		aw.req, aw.end = r, end
		c.active = append(c.active, aw)
		c.at(end, aw, stepProgrammed)
		return
	}

	// Build the job list: essential data words, then ECC, then PCC.
	var jobsBuf [ecc.WordsPerLine]fineJob
	jobs := jobsBuf[:0]
	for w := 0; w < ecc.WordsPerLine; w++ {
		if essMask&(1<<uint(w)) != 0 {
			jobs = append(jobs, fineJob{chip: l.DataChip(coord.RotIdx, w), flips: res.PerWord[w]})
		}
	}
	eccJob := fineJob{chip: l.ECCChip(coord.RotIdx), flips: res.ECCFlips}
	pccJob := fineJob{chip: l.PCCChip(coord.RotIdx), flips: res.PCCFlips}

	// The two-step RoW split staggers the PCC update after the
	// data+ECC step, so its peak concurrent programming is one word
	// lower than an unsplit write's.
	rowSplit := c.feat.RoW && (c.rdq.Len() > 0 || c.draining) &&
		(essCount == 1 || c.cfg.RoWMultiWord)
	power := essCount + 2
	if rowSplit {
		power = essCount + 1
	}
	c.powerInUse += power

	// Fine-grained command traffic: one RAS + one CAS per chip job.
	t := c.commandCost(start, 2*(len(jobs)+2))
	// Only the essential words cross the data bus (plus code words).
	wl := c.cfg.Timing.TWL.Time()
	burstCycles := c.cfg.Timing.TBurst.Times((essCount + 2 + 7) / 8)
	_, t0 := c.dataBus.Acquire(t, wl+burstCycles.Time(), true)

	timing := c.cfg.Timing
	reserveJob := func(j fineJob, earliest sim.Time) (sim.Time, sim.Time) {
		chip := c.rank.Chips[j.chip]
		act := sim.Time(0)
		if !chip.RowHit(coord.Bank, coord.Row) {
			act = timing.WriteArrayRead.Time()
		}
		prog := c.progTime(j.flips)
		s, e := chip.ReserveProgram(coord.Bank, part, earliest, act, prog)
		chip.OpenRowIn(coord.Bank, coord.Row)
		if j.flips.Any() {
			chip.CountWrite(j.flips)
			c.irlp().AddChipService(e-prog, e)
		}
		return s, e
	}

	var end sim.Time
	var dataEnd sim.Time
	if rowSplit && c.cfg.RoWMultiWord && essCount > 1 {
		// Section IV-B4 extension: serialize the word programs so at
		// most one data chip is busy at a time, keeping reads
		// reconstructable throughout.
		earliest := t0
		for _, j := range jobs {
			_, e := reserveJob(j, earliest)
			earliest = e
			if e > dataEnd {
				dataEnd = e
			}
		}
	} else {
		for _, j := range jobs {
			_, e := reserveJob(j, t0)
			if e > dataEnd {
				dataEnd = e
			}
		}
	}
	_, eccEnd := reserveJob(eccJob, t0)
	step1End := dataEnd
	if eccEnd > step1End {
		step1End = eccEnd
	}
	if rowSplit {
		// Step 2: the PCC update runs immediately after step 1 with no
		// interruption (Section IV-B1), freeing the PCC chip during
		// step 1 so reads can reconstruct against it.
		_, e := reserveJob(pccJob, step1End)
		end = e
	} else {
		_, e := reserveJob(pccJob, t0)
		end = e
		if step1End > end {
			end = step1End
		}
	}
	if step1End > end {
		end = step1End
	}

	c.irlp().AddWriteWindow(t0, end)

	aw.req, aw.essCount, aw.end, aw.power = r, essCount, end, power
	aw.coord, aw.mask = coord, r.Mask
	c.active = append(c.active, aw)
	c.at(end, aw, stepProgrammed)
}

// completeWrite is the terminal of every write path (plain,
// verify-retry, remap, pausing): it retires the request and recycles
// its record.
func (c *Controller) completeWrite(aw *activeWrite) {
	if !c.feat.FineGrained {
		c.powerInUse = 0
	}
	c.removeActive(aw)
	r := aw.req
	r.Done = c.eng.Now()
	c.wrq.Remove(r)
	c.Metrics.Writes.Inc()
	c.Metrics.WriteLatency.Add(r.Latency())
	c.Metrics.NoteDone(r.Done)
	if c.trace != nil {
		c.trace.Span(c.trkService, c.nmWrite, r.Arrive, r.Done-r.Arrive)
		c.trace.Count(c.trkWrq, c.nmDepth, r.Done, int64(c.wrq.Len()))
	}
	if r.OnDone != nil {
		r.OnDone(r)
	}
	c.notifySpace(mem.Write)
	c.kick()
	c.recycleActive(aw)
}
