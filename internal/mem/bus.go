package mem

import (
	"pcmap/internal/obs"
	"pcmap/internal/sim"
)

// Bus models a shared, serialized channel resource (the 80-bit data bus
// or the command/address bus). The data bus additionally charges a
// turnaround delay whenever the transfer direction flips (the write
// turnaround of Section II-B).
type Bus struct {
	freeAt     sim.Time
	lastWrite  bool
	any        bool
	Turnaround sim.Time // applied on direction change (0 for command bus)

	// Busy accumulates total occupied time for utilization reporting.
	Busy sim.Time

	// Timeline instrumentation (nil when tracing is off): every Acquire
	// becomes an occupancy span on the bus's track.
	trace           *obs.Tracer
	track           obs.TrackID
	nmRead, nmWrite obs.NameID
}

// Instrument attaches the bus to a timeline track. A nil tracer leaves
// the bus untraced; the hot path then costs a single nil check.
func (b *Bus) Instrument(tr *obs.Tracer, process, name string) {
	if tr == nil {
		return
	}
	b.trace = tr
	b.track = tr.Track(process, name)
	b.nmRead = tr.Name("xfer.read")
	b.nmWrite = tr.Name("xfer.write")
}

// Acquire books the bus for dur starting no earlier than earliest,
// honoring previous occupancy and direction turnaround. It returns the
// transfer's [start, end).
func (b *Bus) Acquire(earliest, dur sim.Time, write bool) (start, end sim.Time) {
	start = earliest
	if b.freeAt > start {
		start = b.freeAt
	}
	if b.any && b.lastWrite != write {
		start += b.Turnaround
	}
	end = start + dur
	b.freeAt = end
	b.lastWrite = write
	b.any = true
	b.Busy += dur
	if b.trace != nil {
		nm := b.nmRead
		if write {
			nm = b.nmWrite
		}
		b.trace.Span(b.track, nm, start, dur)
	}
	return start, end
}

// FreeAt returns the time the bus next becomes free.
func (b *Bus) FreeAt() sim.Time { return b.freeAt }
