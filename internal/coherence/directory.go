// Package coherence implements the MOESI directory protocol of Table I
// for the private L1 caches above the shared L2. The directory lives
// alongside the L2 tags; it answers, for every L1 miss or store, which
// remote caches must be invalidated and whether a remote owner must
// forward dirty data, so the hierarchy can charge the corresponding NoC
// traffic.
package coherence

import (
	"fmt"

	"pcmap/internal/flat"
)

// State is a MOESI stability state as seen by the directory.
type State uint8

const (
	// Invalid: no L1 holds the line.
	Invalid State = iota
	// Shared: one or more L1s hold clean copies.
	Shared
	// Exclusive: exactly one L1 holds a clean copy.
	Exclusive
	// Owned: one L1 owns a dirty copy, others may share it.
	Owned
	// Modified: exactly one L1 holds a dirty copy.
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Owned:
		return "O"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// line is the directory state of one cache line.
type line struct {
	state   State
	owner   int8
	sharers uint16
}

// Action tells the requesting side what coherence work its access
// triggered: which L1s must be invalidated and whether a remote owner
// forwards the data (otherwise the L2/memory supplies it).
type Action struct {
	// Invalidate is a bitmask of cores whose L1 copies must be
	// invalidated before the access completes.
	Invalidate uint16
	// ForwardFrom is the core that must forward its dirty copy, or -1
	// when the L2 supplies the data.
	ForwardFrom int
	// WriteBack reports that dirty data was pushed down to the L2 as
	// part of this transition (owner eviction or ownership transfer on
	// a store).
	WriteBack bool
}

// Directory tracks the L1-coherence state of every line cached above
// the L2. Every address it takes is a 64-byte-aligned line address.
// Lines live by value in a flat table keyed by line number (see key),
// 8 bytes a line, so tracking a line allocates nothing beyond the
// table's doublings. Release returns the table to a pool for the next
// directory, so a sweep grows it once, not once per system.
type Directory struct {
	table *flat.Table[line]

	Invalidations uint64
	Forwards      uint64
	WriteBacks    uint64
}

// key is the table key of the line at addr.
func key(addr uint64) uint32 { return flat.Key(addr >> 6) }

// tablePool recycles directories' tables across systems.
var tablePool flat.Pool[line]

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{table: tablePool.Get()}
}

// Release returns the directory's table to the pool. The directory
// must not be used afterwards.
func (d *Directory) Release() {
	tablePool.Put(d.table)
	d.table = nil
}

// Entries returns the number of tracked (non-invalid) lines.
func (d *Directory) Entries() int { return d.table.Len() }

// StateOf reports the directory state of a line (Invalid if untracked).
func (d *Directory) StateOf(addr uint64) State {
	if l := d.table.Get(key(addr)); l != nil {
		return l.state
	}
	return Invalid
}

// Sharers returns the sharer bitmask of a line.
func (d *Directory) Sharers(addr uint64) uint16 {
	if l := d.table.Get(key(addr)); l != nil {
		return l.sharers
	}
	return 0
}

// get returns addr's entry, inserting an Invalid one if the line is
// untracked. The pointer is valid until the next insertion.
func (d *Directory) get(addr uint64) *line {
	l, ok := d.table.Put(key(addr))
	if !ok {
		*l = line{state: Invalid, owner: -1}
	}
	return l
}

// Load records core's read of a line and returns the required actions.
func (d *Directory) Load(addr uint64, core int) Action {
	a := Action{ForwardFrom: -1}
	l := d.get(addr)
	bit := uint16(1) << uint(core)
	switch l.state {
	case Invalid:
		l.state = Exclusive
		l.owner = int8(core)
		l.sharers = bit
	case Exclusive:
		if l.sharers&bit == 0 {
			// Another core reads: the owner forwards, line degrades to S.
			a.ForwardFrom = int(l.owner)
			d.Forwards++
			l.state = Shared
			l.sharers |= bit
		}
	case Modified:
		if l.sharers&bit == 0 {
			// Dirty owner forwards and retains ownership: M -> O.
			a.ForwardFrom = int(l.owner)
			d.Forwards++
			l.state = Owned
			l.sharers |= bit
		}
	case Owned:
		if l.sharers&bit == 0 {
			a.ForwardFrom = int(l.owner)
			d.Forwards++
			l.sharers |= bit
		}
	case Shared:
		l.sharers |= bit
	}
	return a
}

// Store records core's write of a line and returns the required
// actions (invalidating every other sharer, forwarding from a dirty
// remote owner).
func (d *Directory) Store(addr uint64, core int) Action {
	a := Action{ForwardFrom: -1}
	l := d.get(addr)
	bit := uint16(1) << uint(core)
	others := l.sharers &^ bit
	if others != 0 {
		a.Invalidate = others
		d.Invalidations += uint64(popcount(others))
	}
	if (l.state == Modified || l.state == Owned) && int(l.owner) != core {
		a.ForwardFrom = int(l.owner)
		d.Forwards++
	}
	l.state = Modified
	l.owner = int8(core)
	l.sharers = bit
	return a
}

// Evict records that core dropped its L1 copy. If the evicting core
// owned dirty data the eviction writes back to the L2.
func (d *Directory) Evict(addr uint64, core int) Action {
	a := Action{ForwardFrom: -1}
	slot, l := d.table.Lookup(key(addr))
	if l == nil {
		return a
	}
	bit := uint16(1) << uint(core)
	l.sharers &^= bit
	if int(l.owner) == core {
		if l.state == Modified || l.state == Owned {
			a.WriteBack = true
			d.WriteBacks++
		}
		l.owner = -1
		// Surviving sharers keep clean copies.
		if l.sharers != 0 {
			l.state = Shared
		}
	}
	if l.sharers == 0 {
		d.table.DeleteSlot(slot)
	}
	return a
}

func popcount(x uint16) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
