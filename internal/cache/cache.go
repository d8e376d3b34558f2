// Package cache implements the three-level hierarchy of Table I:
// write-through L1 data caches (instruction fetch is not modelled), a
// shared write-back L2 with a MOESI directory, and a 256 MB DRAM LLC
// (NUCA, 8 banks), all in front of the PCM main memory. Caches track
// tags plus per-8B-word dirty masks — the masks are the paper's central
// measured quantity: they flow from the cores' stores through L2 and
// LLC write-backs into the PCM controller's essential-word machinery.
package cache

import (
	"fmt"
	"math/bits"
	"sync"

	"pcmap/internal/config"
)

// Victim describes a line evicted by an insertion.
type Victim struct {
	Addr    uint64
	Dirty   bool
	EssMask uint8
}

// Cache is a set-associative, true-LRU cache. State is struct-of-arrays
// over set×way slots instead of a slice of per-set entry slices. A slot
// costs 4 bytes: a 16-bit tag word (the tag's low 14 bits plus the
// valid and dirty bits), the essential-word mask and the slot's
// recency position; each set adds a fill count. Tag bits 14 and up get
// a per-slot array only once the cache stores a tag that needs them:
// the default machine's L2 and LLC never do, so the LLC's 4.2M slots
// cost 17.3 MB. The arrays come from a geometry-keyed slab pool
// (Release returns them), and the hot Insert/Lookup paths never
// allocate.
//
// LRU is kept as an explicit per-set recency list instead of per-entry
// clock stamps: order[set*ways+i] holds the way id at recency position
// i, position 0 being least recently used. Every touch moves a way to
// the back of its set's list, which reproduces exactly the ordering a
// global monotonic touch clock induces (each touch gets a unique
// stamp, so min-stamp == front of the list). Invalidate clears only
// the valid bit and leaves the slot's position, dirty bit, and mask in
// place — matching the previous representation, where an invalidated
// entry kept competing for eviction with its stale stamp.
type Cache struct {
	name      string
	lo        []uint16 // per slot: tag bits 0-13 | loValid | loDirty
	hi        []uint32 // per slot: tag bits 14 and up; nil until a tag needs them
	ess       []uint8  // per slot: essential-word mask
	order     []uint8  // per set: way ids in recency order, LRU first
	fill      []uint8  // per set: slots filled so far (append order)
	ways      int
	numSets   int
	lineBytes int
	lineShift uint
	setShift  uint // log2(number of sets)
	setMask   uint64

	Hits, Misses uint64
}

const (
	loTagBits = 14
	loTagMask = 1<<loTagBits - 1
	loValid   = 1 << loTagBits
	loDirty   = loValid << 1

	// maxTagBits is the widest tag a slot stores: 14 bits in lo and 32
	// in hi.
	maxTagBits = loTagBits + 32
)

// slab is one cache's worth of state arrays, recyclable across
// simulations of the same geometry.
type slab struct {
	lo    []uint16
	hi    []uint32
	ess   []uint8
	order []uint8
	fill  []uint8
}

type slabKey struct{ sets, ways int }

// slabPool recycles state arrays between systems (the experiment
// runner tears a machine down after every run and immediately builds
// the next). Guarded by a mutex because sweeps construct systems from
// a worker pool. Bounded per geometry so a wide parallel sweep cannot
// pin an unbounded number of retired LLCs.
var (
	slabMu   sync.Mutex
	slabPool = map[slabKey][]*slab{}
)

const slabPoolCap = 16

// acquireSlab returns zeroed-for-reuse state arrays for the geometry,
// recycling a released slab when one is available. Only fill must be
// cleared: every other array is written before first read (lo, ess,
// order, and hi when present are all set when a slot is filled, and
// scans are bounded by fill), so reuse is deterministic. A recycled
// slab keeps the hi array its last owner grew.
func acquireSlab(sets, ways int) *slab {
	key := slabKey{sets, ways}
	slabMu.Lock()
	if free := slabPool[key]; len(free) > 0 {
		s := free[len(free)-1]
		slabPool[key] = free[:len(free)-1]
		slabMu.Unlock()
		clear(s.fill)
		return s
	}
	slabMu.Unlock()
	slots := sets * ways
	return &slab{
		lo:    make([]uint16, slots),
		ess:   make([]uint8, slots),
		order: make([]uint8, slots),
		fill:  make([]uint8, sets),
	}
}

func releaseSlab(s *slab, sets, ways int) {
	key := slabKey{sets, ways}
	slabMu.Lock()
	if len(slabPool[key]) < slabPoolCap {
		slabPool[key] = append(slabPool[key], s)
	}
	slabMu.Unlock()
}

// New builds a cache from its configured geometry.
func New(name string, lvl config.CacheLevel) *Cache {
	numSets := int(lvl.SizeBytes / int64(lvl.Ways*lvl.LineBytes))
	if lvl.Ways < 1 || lvl.Ways > 255 {
		panic(fmt.Sprintf("cache: %s: %d ways out of range (order list stores way ids as bytes)", name, lvl.Ways))
	}
	s := acquireSlab(numSets, lvl.Ways)
	return &Cache{
		name:      name,
		lo:        s.lo,
		hi:        s.hi,
		ess:       s.ess,
		order:     s.order,
		fill:      s.fill,
		ways:      lvl.Ways,
		numSets:   numSets,
		lineBytes: lvl.LineBytes,
		lineShift: uint(bits.TrailingZeros(uint(lvl.LineBytes))),
		setShift:  uint(bits.TrailingZeros64(uint64(numSets))),
		setMask:   uint64(numSets - 1),
	}
}

// Release returns the cache's state arrays to the slab pool. The cache
// must not be used afterwards.
func (c *Cache) Release() {
	if c.lo == nil {
		return
	}
	releaseSlab(&slab{lo: c.lo, hi: c.hi, ess: c.ess, order: c.order, fill: c.fill},
		c.numSets, c.ways)
	c.lo, c.hi, c.ess, c.order, c.fill = nil, nil, nil, nil, nil
}

// LineBytes returns the cache's line size.
func (c *Cache) LineBytes() int { return c.lineBytes }

// Align returns addr rounded down to this cache's line size.
func (c *Cache) Align(addr uint64) uint64 { return addr &^ uint64(c.lineBytes-1) }

// locate splits addr into the set's slot base and the stored tag.
func (c *Cache) locate(addr uint64) (base int, tag, idx uint64) {
	line := addr >> c.lineShift
	idx = line & c.setMask
	tag = line >> c.setShift
	if tag>>maxTagBits != 0 {
		panic(fmt.Sprintf("cache: %s: address %#x tag overflows %d bits", c.name, addr, maxTagBits))
	}
	return int(idx) * c.ways, tag, idx
}

// find scans addr's set for a valid matching slot, returning the way
// index or -1. Scan order is fill (append) order, like the previous
// entry-slice scan. Until the cache has stored a tag with high bits,
// no slot holds one, so such a tag misses without a scan.
func (c *Cache) find(addr uint64) (base, way int, tag, idx uint64) {
	base, tag, idx = c.locate(addr)
	if c.hi == nil && tag > loTagMask {
		return base, -1, tag, idx
	}
	want := uint16(tag&loTagMask) | loValid
	hi := uint32(tag >> loTagBits)
	lo := c.lo[base : base+int(c.fill[idx])]
	for w, x := range lo {
		if x&^loDirty == want && (c.hi == nil || c.hi[base+w] == hi) {
			return base, w, tag, idx
		}
	}
	return base, -1, tag, idx
}

// setTag fills slot with a valid, clean tag, growing the hi array the
// first time a tag needs it. A fresh hi array is zero, which is every
// already-filled slot's high tag bits.
func (c *Cache) setTag(slot int, tag uint64) {
	c.lo[slot] = uint16(tag&loTagMask) | loValid
	if c.hi == nil && tag > loTagMask {
		c.hi = make([]uint32, len(c.lo))
	}
	if c.hi != nil {
		c.hi[slot] = uint32(tag >> loTagBits)
	}
}

// tagOf returns the tag stored in slot.
func (c *Cache) tagOf(slot int) uint64 {
	tag := uint64(c.lo[slot] & loTagMask)
	if c.hi != nil {
		tag |= uint64(c.hi[slot]) << loTagBits
	}
	return tag
}

// touch moves way to the most-recently-used end of its set's recency
// list.
func (c *Cache) touch(idx uint64, base, way int) {
	n := int(c.fill[idx])
	ord := c.order[base : base+n]
	w := uint8(way)
	p := 0
	for ord[p] != w {
		p++
	}
	copy(ord[p:], ord[p+1:])
	ord[n-1] = w
}

// Lookup probes for addr's line, updating LRU on hit.
func (c *Cache) Lookup(addr uint64) bool {
	base, way, _, idx := c.find(addr)
	if way < 0 {
		c.Misses++
		return false
	}
	c.touch(idx, base, way)
	c.Hits++
	return true
}

// Touch refreshes addr's line like a hit when it is present and
// reports whether it was. An absent line counts nothing: a
// write-through store that does not allocate is not a miss.
func (c *Cache) Touch(addr uint64) bool {
	base, way, _, idx := c.find(addr)
	if way < 0 {
		return false
	}
	c.touch(idx, base, way)
	c.Hits++
	return true
}

// Present probes without touching LRU or hit/miss counters.
func (c *Cache) Present(addr uint64) bool {
	_, way, _, _ := c.find(addr)
	return way >= 0
}

// Insert fills addr's line, returning the evicted victim, if any. The
// line starts clean. Inserting an already-present line refreshes it.
func (c *Cache) Insert(addr uint64) (Victim, bool) {
	_, v, had := c.insert(addr)
	return v, had
}

// insert is Insert that also returns the line's slot, so a caller can
// dirty the line it just filled without probing for it again.
func (c *Cache) insert(addr uint64) (slot int, v Victim, had bool) {
	base, way, tag, idx := c.find(addr)
	if way >= 0 {
		c.touch(idx, base, way)
		return base + way, Victim{}, false
	}
	if n := c.fill[idx]; int(n) < c.ways {
		// Free slot: fill in append order (invalid slots are not
		// reclaimed early — they age out through LRU, as before).
		w := int(n)
		c.setTag(base+w, tag)
		c.ess[base+w] = 0
		c.order[base+w] = n
		c.fill[idx] = n + 1
		return base + w, Victim{}, false
	}
	// Evict the true-LRU way: the front of the recency list.
	vi := int(c.order[base])
	v = Victim{
		Addr:    c.addrOf(c.tagOf(base+vi), idx),
		Dirty:   c.lo[base+vi]&loDirty != 0,
		EssMask: c.ess[base+vi],
	}
	c.setTag(base+vi, tag)
	c.ess[base+vi] = 0
	c.touch(idx, base, vi)
	return base + vi, v, true
}

func (c *Cache) addrOf(tag, idx uint64) uint64 {
	return (tag<<c.setShift | idx) << c.lineShift
}

// MarkDirty records a write to addr's line: the line becomes dirty and
// essMask accumulates the changed words. It reports whether the line
// was present.
func (c *Cache) MarkDirty(addr uint64, essMask uint8) bool {
	base, way, _, idx := c.find(addr)
	if way < 0 {
		return false
	}
	c.touch(idx, base, way)
	c.dirty(base+way, essMask)
	return true
}

// dirty marks the line in slot dirty and adds essMask to its
// essential words.
func (c *Cache) dirty(slot int, essMask uint8) {
	c.lo[slot] |= loDirty
	c.ess[slot] |= essMask
}

// DirtyInfo returns the line's dirty state and essential mask.
func (c *Cache) DirtyInfo(addr uint64) (present, dirty bool, essMask uint8) {
	base, way, _, _ := c.find(addr)
	if way < 0 {
		return false, false, 0
	}
	return true, c.lo[base+way]&loDirty != 0, c.ess[base+way]
}

// Invalidate drops addr's line, returning its dirty state for the
// caller to write back. Only the valid bit is cleared: the slot keeps
// its recency position, tag, dirty bit, and mask until LRU replaces it
// (the historical semantics; L1s — the only level invalidated — are
// write-through and never dirty, so the stale state is inert).
func (c *Cache) Invalidate(addr uint64) (wasPresent, wasDirty bool, essMask uint8) {
	base, way, _, _ := c.find(addr)
	if way < 0 {
		return
	}
	wasPresent = true
	wasDirty = c.lo[base+way]&loDirty != 0
	essMask = c.ess[base+way]
	c.lo[base+way] &^= loValid
	return
}

// MissRatio reports misses / accesses.
func (c *Cache) MissRatio() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Misses) / float64(total)
}

func (c *Cache) String() string {
	return fmt.Sprintf("%s(%d sets x %d ways x %dB)", c.name, c.numSets, c.ways, c.lineBytes)
}
