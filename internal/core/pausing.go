package core

import (
	"pcmap/internal/mem"
	"pcmap/internal/sim"
)

// writePauseSegments is the number of interruptible segments a paused
// write's programming divides into.
const writePauseSegments = 4

// pausingEnabled reports whether this controller runs the
// write-pausing comparator (Qureshi et al., HPCA 2010 — Section VII of
// the paper): a baseline write programs in interruptible segments;
// between segments the chips are free and pending reads slip through,
// and the write resumes once the read queue drains.
func (c *Controller) pausingEnabled() bool {
	return c.cfg.WritePausing && !c.feat.FineGrained
}

// resumeSegment books the next slice of the paused write no earlier
// than earliest.
func (c *Controller) resumeSegment(earliest sim.Time) {
	aw := c.paused
	if aw == nil || aw.inFlight {
		return
	}
	dur := min(aw.segment, aw.remaining)
	aw.end = c.bookCoarse(aw.coord, earliest, aw.act, aw.prog-aw.remaining, dur, &aw.wordProg)
	aw.act = 0
	aw.remaining -= dur
	aw.inFlight = true
	c.at(aw.end, aw, stepSegment)
}

// segmentDone finishes a slice: either the write completes, or it
// parks in the paused state so queued reads can run.
func (c *Controller) segmentDone(aw *activeWrite) {
	aw.inFlight = false
	if aw.remaining <= 0 {
		c.paused = nil
		c.maybeVerifyWrite(aw)
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
