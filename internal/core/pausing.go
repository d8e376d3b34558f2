package core

import (
	"pcmap/internal/ecc"
	"pcmap/internal/mem"
	"pcmap/internal/sim"
)

// writePauseSegments is the number of interruptible segments a paused
// write's programming divides into.
const writePauseSegments = 4

// pausedWrite carries the state of a baseline write executing in
// interruptible segments (the write-pausing comparator of Qureshi et
// al., HPCA 2010 — Section VII of the paper). Between segments the
// chips are free and pending reads slip through; the write resumes
// once the read queue drains.
type pausedWrite struct {
	aw        *activeWrite
	act       sim.Time // activation still to charge (first segment only)
	prog      sim.Time // the write's whole programming time
	remaining sim.Time // programming time left
	segment   sim.Time // per-segment slice
	inFlight  bool     // a segment is currently reserved

	wordProg [ecc.WordsPerLine]sim.Time // essential words' programming times
}

// pausingEnabled reports whether this controller runs the comparator.
func (c *Controller) pausingEnabled() bool {
	return c.cfg.WritePausing && !c.feat.FineGrained
}

// resumeSegment books the next slice of the paused write no earlier
// than earliest.
func (c *Controller) resumeSegment(earliest sim.Time) {
	pw := c.paused
	if pw == nil || pw.inFlight {
		return
	}
	dur := min(pw.segment, pw.remaining)
	end := c.bookCoarse(pw.aw.coord, earliest, pw.act, pw.prog-pw.remaining, dur, &pw.wordProg)
	pw.act = 0
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
		c.maybeVerifyWrite(pw.aw.req, pw.aw)
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
	c.resumeSegment(c.eng.Now())
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
