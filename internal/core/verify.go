package core

import (
	"pcmap/internal/ecc"
	"pcmap/internal/pcm"
	"pcmap/internal/sim"
)

// maybeVerifyWrite is the completion hook of every non-silent write when
// program-and-verify is enabled: instead of finishing immediately, the
// controller reads the just-programmed words back, compares them against
// the intended content, and re-programs (bounded by WriteRetryLimit) or
// remaps the line to the spare pool when cells refuse to hold their
// value. With VerifyWrites off the write completes directly, so the
// baseline timing is untouched.
func (c *Controller) maybeVerifyWrite(aw *activeWrite) {
	if !c.cfg.VerifyWrites || aw.intended == nil || aw.mask == 0 || aw.essCount == 0 {
		c.completeWrite(aw)
		return
	}
	aw.progEnd = c.eng.Now()
	c.Metrics.WriteVerifies.Inc()
	c.scheduleVerifyRead(aw)
}

// scheduleVerifyRead charges one read-back of the write's masked words
// (plus the ECC word) on the chips that hold them and schedules the
// comparison at its completion.
func (c *Controller) scheduleVerifyRead(aw *activeWrite) {
	c.Metrics.VerifyReads.Inc()
	now := c.eng.Now()
	timing := c.cfg.Timing
	// The read-back senses the array and streams through the chip I/O;
	// rows were just opened by the write, but the array sense is charged
	// anyway (program pulses disturb the row buffer).
	dur := timing.ArrayRead.Time() + (timing.TCL + timing.TBurst).Time()
	l := c.rank.Layout
	part := c.partOf(aw.coord)
	end := now
	for w := 0; w < ecc.WordsPerLine; w++ {
		if aw.mask&(1<<uint(w)) == 0 {
			continue
		}
		chip := l.DataChip(aw.coord.RotIdx, w)
		_, e := c.rank.Chips[chip].Reserve(aw.coord.Bank, part, now, dur)
		if e > end {
			end = e
		}
	}
	if _, e := c.rank.Chips[l.ECCChip(aw.coord.RotIdx)].Reserve(aw.coord.Bank, part, now, dur); e > end {
		end = e
	}
	c.at(end, aw, stepReadBack)
}

// checkVerify compares the read-back against the intended content and
// decides: done, retry, or remap.
func (c *Controller) checkVerify(aw *activeWrite) {
	// The read-back senses the array like any read, so it can itself
	// observe (and, for masked words, catch) a drift flip.
	c.rank.Store.InjectDrift(aw.coord.LineIdx)
	bad := c.verifyMismatch(aw)
	if bad == 0 {
		c.verifiedWrite(aw)
		return
	}
	if aw.attempts >= c.cfg.WriteRetryLimit {
		c.remapLine(aw)
		return
	}
	aw.attempts++
	c.Metrics.WriteRetries.Inc()
	c.reprogram(aw, bad)
}

// verifiedWrite ends a verified write's lifecycle, recording the
// verify overhead since programming finished.
func (c *Controller) verifiedWrite(aw *activeWrite) {
	c.Metrics.VerifyLatency.Add(c.eng.Now() - aw.progEnd)
	c.completeWrite(aw)
}

// verifyMismatch reads the stored words of the write's mask back and
// returns the mask of words whose cells (data or ECC check byte)
// disagree with the intent.
func (c *Controller) verifyMismatch(aw *activeWrite) uint8 {
	l := c.rank.Store.Peek(aw.coord.LineIdx)
	var bad uint8
	for w := 0; w < ecc.WordsPerLine; w++ {
		if aw.mask&(1<<uint(w)) == 0 {
			continue
		}
		want := ecc.Word(aw.intended, w)
		if ecc.Word(&l.Data, w) != want || l.ECC[w] != ecc.Encode64(want) {
			bad |= 1 << uint(w)
		}
	}
	return bad
}

// reprogram re-applies the intended content to the words that failed
// verification, charging the differential write on their chips, and
// schedules another verify read-back.
func (c *Controller) reprogram(aw *activeWrite, bad uint8) {
	res := c.rank.Store.WriteWords(aw.coord.LineIdx, bad, aw.intended)
	now := c.eng.Now()
	timing := c.cfg.Timing
	l := c.rank.Layout
	part := c.partOf(aw.coord)
	end := now
	reserve := func(chip int, f pcm.FlipKind) {
		ch := c.rank.Chips[chip]
		act := sim.Time(0)
		if !ch.RowHit(aw.coord.Bank, aw.coord.Row) {
			act = timing.WriteArrayRead.Time()
		}
		prog := timing.WriteLatency(f.Sets > 0, f.Resets > 0)
		_, e := ch.ReserveProgram(aw.coord.Bank, part, now, act, prog)
		ch.OpenRowIn(aw.coord.Bank, aw.coord.Row)
		if f.Any() {
			ch.CountWrite(f)
		}
		if e > end {
			end = e
		}
	}
	for w := 0; w < ecc.WordsPerLine; w++ {
		if bad&(1<<uint(w)) != 0 {
			reserve(l.DataChip(aw.coord.RotIdx, w), res.PerWord[w])
		}
	}
	if res.ECCFlips.Any() {
		reserve(l.ECCChip(aw.coord.RotIdx), res.ECCFlips)
	}
	if res.PCCFlips.Any() {
		reserve(l.PCCChip(aw.coord.RotIdx), res.PCCFlips)
	}
	c.at(end, aw, stepReprogrammed)
}

// remapLine retires a line whose cells failed every re-program attempt:
// the best-known content (stored words SECDED-corrected where possible,
// overlaid with the write's intended words) moves to a fresh spare-pool
// line and all future decodes of the worn line follow the redirect. When
// the pool is exhausted the write completes with the corruption left in
// place — the read path's decode will report it rather than hide it.
func (c *Controller) remapLine(aw *activeWrite) {
	if c.spareNext >= c.cfg.SpareLines {
		c.Metrics.RemapFailures.Inc()
		c.verifiedWrite(aw)
		return
	}
	spare := c.amap.LinesPerChannel() + uint64(c.spareNext)
	c.spareNext++

	old := c.rank.Store.Peek(aw.coord.LineIdx)
	var buf [ecc.LineBytes]byte
	for w := 0; w < ecc.WordsPerLine; w++ {
		word := ecc.Word(&old.Data, w)
		if fixed, st := ecc.Check64(word, old.ECC[w]); st == ecc.CorrectedData {
			word = fixed
		}
		ecc.SetWord(&buf, w, word)
	}
	for w := 0; w < ecc.WordsPerLine; w++ {
		if aw.mask&(1<<uint(w)) != 0 {
			ecc.SetWord(&buf, w, ecc.Word(aw.intended, w))
		}
	}
	c.rank.Store.WriteWords(spare, 0xff, &buf)
	if c.remap == nil {
		c.remap = make(map[uint64]uint64)
	}
	c.remap[aw.coord.LineIdx] = spare
	c.redecodeQueued()
	c.Metrics.WriteRemaps.Inc()

	// The spare slot folds onto a physical row (see decode); charge a
	// full-line write there, mirroring the Start-Gap line copy.
	coord := c.amap.CoordFromLineIdx(c.channel, spare)
	end := c.programChips(allChipsMask, coord, c.eng.Now(),
		c.cfg.Timing.WriteArrayRead.Time(), c.cfg.Timing.CellSET.Time())
	c.at(end, aw, stepRemapped)
}
