package core

import (
	"math/bits"

	"pcmap/internal/mem"
	"pcmap/internal/sim"
)

// pausedWrite carries the state of a baseline write executing in
// interruptible segments (the write-pausing comparator of Qureshi et
// al., HPCA 2010 — Section VII of the paper). Between segments the
// chips are free and pending reads slip through; the write resumes
// once the read queue drains.
type pausedWrite struct {
	req       *mem.Request
	aw        *activeWrite
	coord     mem.Coord
	remaining sim.Time // programming time left
	segment   sim.Time // per-segment slice
	inFlight  bool     // a segment is currently reserved
}

// pausingEnabled reports whether this controller runs the comparator.
func (c *Controller) pausingEnabled() bool {
	return c.cfg.WritePausing && !c.feat.FineGrained && c.cfg.WritePauseSegments > 1
}

// issuePausingWrite starts a coarse write in segmented, pausable form.
// Content application and accounting mirror issueCoarseWrite; only the
// chip-time reservation differs.
func (c *Controller) issuePausingWrite(r *mem.Request) {
	now := c.eng.Now()
	r.Started = true
	r.Issue = now
	coord := c.decode(r.Addr)
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

	var prog sim.Time
	for w := 0; w < 8; w++ {
		if d := c.progTime(res.PerWord[w]); d > prog {
			prog = d
		}
	}
	if d := c.progTime(res.ECCFlips); d > prog {
		prog = d
	}
	for w := 0; w < 8; w++ {
		if res.PerWord[w].Any() {
			c.rank.Chips[w].CountWrite(res.PerWord[w])
		}
	}

	c.powerInUse = c.cfg.PowerSlots
	aw.req, aw.bank, aw.essCount = r, coord.Bank, essCount
	aw.coord, aw.mask = coord, r.Mask
	c.active = append(c.active, aw)

	pw := &pausedWrite{
		req:       r,
		aw:        aw,
		coord:     coord,
		remaining: prog,
		segment:   prog.DivCeil(c.cfg.WritePauseSegments),
	}
	c.paused = pw
	if prog > 0 {
		c.irlp().AddWriteWindow(t0, t0+prog) // best-case window; pauses extend it
	}
	c.resumeSegment(t0, true)
}

// resumeSegment reserves the next slice of the paused write. first
// charges the activation (internal read-before-write) once.
func (c *Controller) resumeSegment(earliest sim.Time, first bool) {
	pw := c.paused
	if pw == nil || pw.inFlight {
		return
	}
	act := sim.Time(0)
	if first && !c.rowHitAll(baselineChipsMask, pw.coord.Bank, pw.coord.Row) {
		act = c.cfg.Timing.WriteArrayRead.Time()
	}
	dur := pw.segment
	if dur > pw.remaining {
		dur = pw.remaining
	}
	if pw.remaining == 0 {
		dur = 0
	}
	var end sim.Time
	for i := 0; i < 9; i++ {
		_, e := c.rank.Chips[i].ReserveProgram(pw.coord.Bank, earliest, act, dur)
		c.rank.Chips[i].OpenRowIn(pw.coord.Bank, pw.coord.Row)
		if e > end {
			end = e
		}
	}
	irlp := c.irlp()
	for w := 0; w < 8; w++ {
		if pw.aw.essCount > 0 && pw.req.Mask&(1<<uint(w)) != 0 {
			irlp.AddChipService(end-dur, end)
		}
	}
	pw.remaining -= dur
	pw.inFlight = true
	pw.aw.end = end
	c.eng.At(end, func() { c.segmentDone(pw) })
}

// segmentDone finishes a slice: either the write completes, or it
// parks in the paused state so queued reads can run.
func (c *Controller) segmentDone(pw *pausedWrite) {
	pw.inFlight = false
	if pw.remaining <= 0 {
		c.paused = nil
		c.maybeVerifyWrite(pw.req, pw.aw)
		return
	}
	c.Metrics.WritePauses.Inc()
	c.kick() // reads get their window; run() resumes us when they dry up
}

// maybeResumePaused continues the parked write once no read can use
// the gap.
func (c *Controller) maybeResumePaused() {
	if c.paused == nil || c.paused.inFlight {
		return
	}
	if c.rdq.Oldest(func(r *mem.Request) bool { return !r.Started }) != nil {
		// Reads still pending; stay paused (they issue via the normal
		// read path now that the chips are idle).
		if c.readableNow() {
			return
		}
	}
	c.resumeSegment(c.eng.Now(), false)
}

// readableNow reports whether at least one queued read could issue at
// this instant (used to decide whether staying paused helps anyone).
func (c *Controller) readableNow() bool {
	ok := false
	c.rdq.Each(func(r *mem.Request) bool {
		if r.Started {
			return true
		}
		if _, can := c.planRead(r); can {
			ok = true
			return false
		}
		return true
	})
	return ok
}
