// Package coherence implements the MOESI directory protocol of Table I
// for the private L1 caches above the shared L2. The directory lives
// alongside the L2 tags; it answers, for every L1 miss or store, which
// remote caches must be invalidated and whether a remote owner must
// forward dirty data, so the hierarchy can charge the corresponding NoC
// traffic.
package coherence

import "fmt"

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

// entry is one slot of the directory table: the line address with bit
// 0 set (so the zero key marks an empty slot; line addresses are
// 64-byte aligned, which leaves bit 0 free) and the line's state.
type entry struct {
	key uint64
	line
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
// the L2. Entries live by value in a flat open-addressing table (linear
// probing, multiplicative hash, power-of-two size, at most 3/4 full,
// backward-shift deletion), so tracking a line allocates nothing beyond
// the table's doublings and a lookup is one probe sequence over
// adjacent slots.
type Directory struct {
	table []entry
	n     int   // occupied slots
	shift uint8 // 64 - log2(len(table)): home keeps the hash's top bits

	Invalidations uint64
	Forwards      uint64
	WriteBacks    uint64
}

// initialBits sizes a new directory's table (256 slots, 4 KB), small
// enough that building a system does not notice it; the table doubles
// as lines arrive.
const initialBits = 8

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{table: make([]entry, 1<<initialBits), shift: 64 - initialBits}
}

// Entries returns the number of tracked (non-invalid) lines.
func (d *Directory) Entries() int { return d.n }

// StateOf reports the directory state of a line (Invalid if untracked).
func (d *Directory) StateOf(addr uint64) State {
	if i, ok := d.find(addr); ok {
		return d.table[i].state
	}
	return Invalid
}

// Sharers returns the sharer bitmask of a line.
func (d *Directory) Sharers(addr uint64) uint16 {
	if i, ok := d.find(addr); ok {
		return d.table[i].sharers
	}
	return 0
}

// home is the slot a key hashes to (Fibonacci hashing: the top bits of
// the key times 2^64/phi).
func (d *Directory) home(key uint64) int {
	return int((key * 0x9e3779b97f4a7c15) >> d.shift)
}

// find returns the slot holding addr, or the empty slot ending its
// probe sequence and false.
func (d *Directory) find(addr uint64) (int, bool) {
	key := addr | 1
	mask := len(d.table) - 1
	for i := d.home(key); ; i = (i + 1) & mask {
		switch d.table[i].key {
		case key:
			return i, true
		case 0:
			return i, false
		}
	}
}

// get returns addr's entry, inserting an Invalid one if the line is
// untracked. The pointer is valid until the next insertion.
func (d *Directory) get(addr uint64) *line {
	i, ok := d.find(addr)
	if !ok {
		if 4*(d.n+1) > 3*len(d.table) {
			d.grow()
			i, _ = d.find(addr)
		}
		d.table[i] = entry{key: addr | 1, line: line{state: Invalid, owner: -1}}
		d.n++
	}
	return &d.table[i].line
}

// grow doubles the table and reinserts every entry.
func (d *Directory) grow() {
	old := d.table
	d.table = make([]entry, 2*len(old))
	d.shift--
	mask := len(d.table) - 1
	for _, e := range old {
		if e.key == 0 {
			continue
		}
		i := d.home(e.key)
		for d.table[i].key != 0 {
			i = (i + 1) & mask
		}
		d.table[i] = e
	}
}

// remove empties slot i, shifting later entries of its probe run back
// so every remaining key stays reachable from its home slot without
// tombstones.
func (d *Directory) remove(i int) {
	mask := len(d.table) - 1
	for j := (i + 1) & mask; d.table[j].key != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i only if i lies on its
		// probe path, i.e. no further from j than its home slot is.
		if (j-d.home(d.table[j].key))&mask >= (j-i)&mask {
			d.table[i] = d.table[j]
			i = j
		}
	}
	d.table[i] = entry{}
	d.n--
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
	i, ok := d.find(addr)
	if !ok {
		return a
	}
	l := &d.table[i].line
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
		d.remove(i)
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
