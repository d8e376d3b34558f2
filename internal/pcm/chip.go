package pcm

import (
	"fmt"

	"pcmap/internal/obs"
	"pcmap/internal/sim"
)

// NoRow marks a closed row buffer.
const NoRow int64 = -1

// Chip is one x8 PCM device of a rank. With rank subsetting each
// chip-bank is an independently schedulable resource: it serializes its
// own operations but overlaps freely with other banks of the same chip
// and with the same bank of other chips. PALP (partition-level access
// parallelism) refines the resource one step further: every bank splits
// into parts >= 1 partitions that serialize only their own operations.
// A monolithic bank is a bank with one partition, so every reservation
// names a (bank, partition) pair.
type Chip struct {
	ID int

	// busy[bank*parts+p] is the busy-until time of the bank's
	// partition p. The whole bank's busy time is the latest of its
	// partitions' (BankBusyUntil); it is not stored.
	parts   int
	busy    []sim.Time
	openRow []int64 // per bank; NoRow when closed

	// ProgBusyUntil serializes cell programming across the chip's
	// banks and partitions: a PCM die's write-power delivery programs
	// one bank at a time, so concurrent writes queue at the chip even
	// when they target different banks. (Array reads remain per
	// partition.) This is why an un-rotated ECC chip serializes every
	// write of the rank — the contention PCMap's ECC/PCC rotation
	// removes — and why PALP overlaps a read's array access with a
	// write's programming, never two programmings.
	ProgBusyUntil sim.Time

	// Endurance / activity counters.
	WordWrites uint64 // word-granularity programming operations
	BitsSet    uint64 // cells programmed 0->1
	BitsReset  uint64 // cells programmed 1->0

	// Timeline instrumentation (nil when tracing is off). Every
	// reservation becomes one occupancy span on the chip-bank's track,
	// which is exactly the per-bank busy timeline the paper's
	// access-parallelism argument is about.
	trace      *obs.Tracer
	bankTracks []obs.TrackID
	nmArray    obs.NameID // array read / non-programming occupancy
	nmProgram  obs.NameID // programming operation (act + cell program)
}

// NewChip returns a chip with its banks closed and idle, each bank
// split into parts >= 1 partitions.
func NewChip(id, banks, parts int) *Chip {
	c := &Chip{ID: id, parts: parts, busy: make([]sim.Time, banks*parts), openRow: make([]int64, banks)}
	for i := range c.openRow {
		c.openRow[i] = NoRow
	}
	return c
}

// Instrument attaches the chip's banks to timeline tracks under the
// given process group ("pcm chan0", ...). Call once at construction
// time; a nil tracer leaves the chip untraced.
func (c *Chip) Instrument(tr *obs.Tracer, process string) {
	if tr == nil {
		return
	}
	c.trace = tr
	c.nmArray = tr.Name("array")
	c.nmProgram = tr.Name("program")
	c.bankTracks = c.bankTracks[:0]
	for b := range c.openRow {
		c.bankTracks = append(c.bankTracks, tr.Track(process, fmt.Sprintf("chip%d.bank%d", c.ID, b)))
	}
}

// FreeAt reports whether partition part of the given bank is idle at
// time t.
func (c *Chip) FreeAt(bank, part int, t sim.Time) bool {
	return c.busy[bank*c.parts+part] <= t
}

// BankBusyUntil returns when the whole bank frees: the latest
// busy-until time over its partitions.
func (c *Chip) BankBusyUntil(bank int) sim.Time {
	var m sim.Time
	for _, b := range c.busy[bank*c.parts : (bank+1)*c.parts] {
		if b > m {
			m = b
		}
	}
	return m
}

// Reserve books one partition of a chip-bank for a service interval
// starting no earlier than earliest and no earlier than the
// partition's current busy-until time, lasting dur. It returns the
// actual [start, end) and records the occupancy.
func (c *Chip) Reserve(bank, part int, earliest, dur sim.Time) (start, end sim.Time) {
	return c.book(bank, part, earliest, dur, 0, c.nmArray)
}

// ReserveProgram books a programming operation on one partition of a
// chip-bank: the array read (act) occupies the partition only, while
// the cell-programming phase (prog) serializes with every other
// programming operation on this chip. It returns the operation's
// [start, end).
func (c *Chip) ReserveProgram(bank, part int, earliest, act, prog sim.Time) (start, end sim.Time) {
	return c.book(bank, part, earliest, act, prog, c.nmProgram)
}

// book reserves [start, end) on one partition; a programming phase
// (prog > 0) also waits for and then holds the chip's ProgBusyUntil.
func (c *Chip) book(bank, part int, earliest, act, prog sim.Time, name obs.NameID) (start, end sim.Time) {
	b := &c.busy[bank*c.parts+part]
	start = max(earliest, *b)
	progStart := start + act
	if prog > 0 {
		progStart = max(progStart, c.ProgBusyUntil)
	}
	end = progStart + prog
	*b = end
	if prog > 0 {
		c.ProgBusyUntil = end
	}
	c.trace.Span(c.trackFor(bank), name, start, end-start)
	return start, end
}

// trackFor returns the bank's timeline track; only valid to emit with
// when c.trace is non-nil (Instrument populated the tracks).
func (c *Chip) trackFor(bank int) obs.TrackID {
	if c.trace == nil {
		return 0
	}
	return c.bankTracks[bank]
}

// ProgFreeAt reports whether the chip's programming circuitry is idle
// at time t.
func (c *Chip) ProgFreeAt(t sim.Time) bool { return c.ProgBusyUntil <= t }

// RowHit reports whether row is open in the chip's bank.
func (c *Chip) RowHit(bank int, row int64) bool { return c.openRow[bank] == row }

// OpenRowIn records that the bank's row buffer now holds row.
func (c *Chip) OpenRowIn(bank int, row int64) { c.openRow[bank] = row }

// CountWrite accumulates endurance counters for a word write.
func (c *Chip) CountWrite(f FlipKind) {
	c.WordWrites++
	c.BitsSet += uint64(f.Sets)
	c.BitsReset += uint64(f.Resets)
}
