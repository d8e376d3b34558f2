package coherence

import (
	"testing"
	"testing/quick"

	"pcmap/internal/sim"
)

func TestFirstLoadGetsExclusive(t *testing.T) {
	d := NewDirectory()
	a := d.Load(0x40, 2)
	if a.ForwardFrom != -1 || a.Invalidate != 0 {
		t.Fatalf("cold load needs no coherence work: %+v", a)
	}
	if d.StateOf(0x40) != Exclusive {
		t.Fatalf("state %v, want E", d.StateOf(0x40))
	}
	if d.Sharers(0x40) != 1<<2 {
		t.Fatalf("sharers %b", d.Sharers(0x40))
	}
}

func TestSecondLoadDegradesToShared(t *testing.T) {
	d := NewDirectory()
	d.Load(0x40, 0)
	a := d.Load(0x40, 1)
	if a.ForwardFrom != 0 {
		t.Fatalf("owner should forward, got %+v", a)
	}
	if d.StateOf(0x40) != Shared {
		t.Fatalf("state %v, want S", d.StateOf(0x40))
	}
	if d.Sharers(0x40) != 0b11 {
		t.Fatalf("sharers %b", d.Sharers(0x40))
	}
}

func TestStoreInvalidatesSharers(t *testing.T) {
	d := NewDirectory()
	for core := 0; core < 4; core++ {
		d.Load(0x80, core)
	}
	a := d.Store(0x80, 2)
	if a.Invalidate != 0b1011 {
		t.Fatalf("invalidate mask %b, want cores 0,1,3", a.Invalidate)
	}
	if d.StateOf(0x80) != Modified || d.Sharers(0x80) != 1<<2 {
		t.Fatalf("post-store state %v sharers %b", d.StateOf(0x80), d.Sharers(0x80))
	}
	if d.Invalidations != 3 {
		t.Fatalf("invalidation count %d", d.Invalidations)
	}
}

func TestLoadAfterModifiedMakesOwned(t *testing.T) {
	d := NewDirectory()
	d.Store(0xc0, 1)
	a := d.Load(0xc0, 3)
	if a.ForwardFrom != 1 {
		t.Fatalf("dirty owner must forward, got %+v", a)
	}
	if d.StateOf(0xc0) != Owned {
		t.Fatalf("state %v, want O (MOESI keeps dirty ownership)", d.StateOf(0xc0))
	}
}

func TestStoreStealsDirtyOwnership(t *testing.T) {
	d := NewDirectory()
	d.Store(0x100, 0)
	a := d.Store(0x100, 1)
	if a.ForwardFrom != 0 || a.Invalidate != 1 {
		t.Fatalf("store to remote-M should forward+invalidate: %+v", a)
	}
	if d.StateOf(0x100) != Modified || d.Sharers(0x100) != 1<<1 {
		t.Fatal("ownership did not transfer")
	}
}

func TestEvictOwnerWritesBack(t *testing.T) {
	d := NewDirectory()
	d.Store(0x140, 5)
	a := d.Evict(0x140, 5)
	if !a.WriteBack {
		t.Fatal("evicting the M owner must write back")
	}
	if d.StateOf(0x140) != Invalid || d.Entries() != 0 {
		t.Fatal("line should be untracked after last eviction")
	}
}

func TestEvictSharerKeepsLine(t *testing.T) {
	d := NewDirectory()
	d.Load(0x180, 0)
	d.Load(0x180, 1)
	a := d.Evict(0x180, 1)
	if a.WriteBack {
		t.Fatal("clean sharer eviction must not write back")
	}
	if d.Sharers(0x180) != 1 {
		t.Fatalf("sharers %b", d.Sharers(0x180))
	}
}

func TestOwnedEvictionWithSharers(t *testing.T) {
	d := NewDirectory()
	d.Store(0x1c0, 0)
	d.Load(0x1c0, 1) // M -> O
	a := d.Evict(0x1c0, 0)
	if !a.WriteBack {
		t.Fatal("O owner eviction must write back")
	}
	if d.StateOf(0x1c0) != Shared {
		t.Fatalf("state %v, want S for surviving sharer", d.StateOf(0x1c0))
	}
}

func TestRepeatedAccessIdempotent(t *testing.T) {
	d := NewDirectory()
	d.Load(0x200, 0)
	a := d.Load(0x200, 0)
	if a.ForwardFrom != -1 || a.Invalidate != 0 {
		t.Fatal("owner re-reading its own line needs no work")
	}
	d.Store(0x200, 0)
	a = d.Store(0x200, 0)
	if a.ForwardFrom != -1 || a.Invalidate != 0 {
		t.Fatal("owner re-writing its own line needs no work")
	}
}

// TestProtocolInvariants drives random traffic and checks the MOESI
// directory invariants after every step.
func TestProtocolInvariants(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		d := NewDirectory()
		addrs := []uint64{0x40, 0x80, 0xc0}
		for i := 0; i < 300; i++ {
			addr := addrs[rng.Intn(len(addrs))]
			core := rng.Intn(8)
			switch rng.Intn(3) {
			case 0:
				d.Load(addr, core)
			case 1:
				d.Store(addr, core)
			default:
				d.Evict(addr, core)
			}
			for _, a := range addrs {
				st := d.StateOf(a)
				sh := d.Sharers(a)
				switch st {
				case Invalid:
					if sh != 0 {
						return false
					}
				case Exclusive, Modified:
					if popcount(sh) != 1 {
						return false
					}
				case Shared, Owned:
					if sh == 0 {
						return false
					}
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// refDirectory is the map-based directory the table replaced, kept as
// the reference for the differential tests.
type refDirectory struct {
	lines map[uint64]*line

	Invalidations, Forwards, WriteBacks uint64
}

func newRefDirectory() *refDirectory { return &refDirectory{lines: make(map[uint64]*line)} }

func (d *refDirectory) get(addr uint64) *line {
	l, ok := d.lines[addr]
	if !ok {
		l = &line{state: Invalid, owner: -1}
		d.lines[addr] = l
	}
	return l
}

func (d *refDirectory) Load(addr uint64, core int) Action {
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
			a.ForwardFrom = int(l.owner)
			d.Forwards++
			l.state = Shared
			l.sharers |= bit
		}
	case Modified:
		if l.sharers&bit == 0 {
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

func (d *refDirectory) Store(addr uint64, core int) Action {
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

func (d *refDirectory) Evict(addr uint64, core int) Action {
	a := Action{ForwardFrom: -1}
	l, ok := d.lines[addr]
	if !ok {
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
		if l.sharers != 0 {
			l.state = Shared
		}
	}
	if l.sharers == 0 {
		delete(d.lines, addr)
	}
	return a
}

// diffTrace drives n random Load/Store/Evict operations over addrs
// through the table and the reference, comparing the action, the
// touched line's state and sharers, the entry count and the counters
// after every operation. Every fullEvery operations (and at the end)
// it also compares every address, which catches entries a delete left
// unreachable. It returns the peak entry count.
func diffTrace(t *testing.T, rng *sim.RNG, addrs []uint64, n, fullEvery int) int {
	t.Helper()
	d, ref := NewDirectory(), newRefDirectory()
	check := func(op int, a uint64) {
		want, sharers := Invalid, uint16(0)
		if l, ok := ref.lines[a]; ok {
			want, sharers = l.state, l.sharers
		}
		if d.StateOf(a) != want || d.Sharers(a) != sharers {
			t.Fatalf("op %d: line %#x: state %v sharers %b, reference %v %b",
				op, a, d.StateOf(a), d.Sharers(a), want, sharers)
		}
	}
	full := func(op int) {
		for _, a := range addrs {
			check(op, a)
		}
	}
	peak := 0
	for op := 0; op < n; op++ {
		addr := addrs[rng.Intn(len(addrs))]
		core := rng.Intn(8)
		var got, want Action
		switch r := rng.Intn(10); {
		case r < 4:
			got, want = d.Load(addr, core), ref.Load(addr, core)
		case r < 7:
			got, want = d.Store(addr, core), ref.Store(addr, core)
		default:
			got, want = d.Evict(addr, core), ref.Evict(addr, core)
		}
		if got != want {
			t.Fatalf("op %d on %#x core %d: action %+v, reference %+v", op, addr, core, got, want)
		}
		check(op, addr)
		if d.Entries() != len(ref.lines) {
			t.Fatalf("op %d: %d entries, reference %d", op, d.Entries(), len(ref.lines))
		}
		if d.Invalidations != ref.Invalidations || d.Forwards != ref.Forwards || d.WriteBacks != ref.WriteBacks {
			t.Fatalf("op %d: counters inv/fwd/wb %d/%d/%d, reference %d/%d/%d", op,
				d.Invalidations, d.Forwards, d.WriteBacks, ref.Invalidations, ref.Forwards, ref.WriteBacks)
		}
		if d.Entries() > peak {
			peak = d.Entries()
		}
		if op%fullEvery == fullEvery-1 {
			full(op)
		}
	}
	full(n)
	return peak
}

// TestDirectoryMatchesMapGrowth spreads traffic over 300K distinct
// lines (address 0 among them), so the table doubles many times while
// entries come and go.
func TestDirectoryMatchesMapGrowth(t *testing.T) {
	const lines = 300_000
	addrs := make([]uint64, lines)
	for i := range addrs {
		addrs[i] = uint64(i) * 64
	}
	rng := sim.NewRNG(41)
	if peak := diffTrace(t, rng, addrs, 1_500_000, 250_000); peak < 200_000 {
		t.Fatalf("peak %d entries: the trace did not grow the table past 200K lines", peak)
	}
}

// TestDirectoryWarmAllocFree pins warm Load/Store/Evict at zero
// allocations: entries live by value in the table, so tracking a line
// once the table has grown allocates nothing.
func TestDirectoryWarmAllocFree(t *testing.T) {
	d := NewDirectory()
	const lines = 4096
	for i := uint64(0); i < lines; i++ {
		d.Load(i*64, 0)
	}
	var i uint64
	if n := testing.AllocsPerRun(1000, func() {
		a := (i % lines) * 64
		d.Load(a, int(i%8))
		d.Store(a, int(i%8))
		d.Evict(a, int(i%8))
		i++
	}); n != 0 {
		t.Fatalf("warm Load/Store/Evict allocated %.1f/op, want 0", n)
	}
}
