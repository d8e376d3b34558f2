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

// Cache is a set-associative, true-LRU cache whose state follows its
// occupancy. Each set has an 8-byte header holding its first way inline
// and its fill count; the set's further ways live in a block borrowed
// from a per-cache pool once the set holds a second line. A way is one
// 4-byte slot word: a 16-bit tag word (the tag's low 14 bits plus the
// valid and dirty bits), the essential-word mask and the way's recency
// rank. Tag bits 14 and up get a per-slot array only once the cache
// stores a tag that needs them: the default machine's L2 and LLC never
// do. The headers, the pool and that array come from a geometry-keyed
// slab pool (Release returns them), and Lookup never allocates.
//
// Blocks come in power-of-two classes of 1, 2, 4, ... slots, the last
// class capped at ways-1. A set that outgrows its block moves to a
// block of the next class, and the old block goes on its class's free
// list for the next set that grows into it. The pool grows by doubling
// when no freed block fits. Sets never shrink, so a cache's pool holds
// at most one live block per set.
//
// LRU is kept as a per-way recency rank within its set, 0 being least
// recently used. A touch makes a way the most recently used and moves
// every more recent way one rank down, which reproduces exactly the
// ordering a global monotonic touch clock induces. Ways fill in append
// order (way 0 inline, way w at block slot w-1), and a full set evicts
// its rank-0 way in place. Invalidate clears only the valid bit and
// leaves the way's rank, dirty bit and mask in place: an invalidated
// line keeps competing for eviction with its stale rank.
type Cache struct {
	name      string
	sets      []set
	pool      []uint32 // blocks of further ways, as slot words
	used      int      // pool slots carved so far
	free      [maxClasses]uint32
	hi        []uint32 // per slot: tag bits 14 and up; nil until a tag needs them
	ways      int
	numSets   int
	lineBytes int
	lineShift uint
	setShift  uint // log2(number of sets)
	setMask   uint64

	Hits, Misses uint64
}

// set is one set's header: its first way's slot word and a meta word
// packing the number of ways filled (bits 0-7) with the pool offset of
// its block of further ways (bits 8-31).
type set struct {
	way0 uint32
	meta uint32
}

func (s *set) n() int       { return int(uint8(s.meta)) }
func (s *set) off() int     { return int(s.meta >> metaOffShift) }
func (s *set) setOff(o int) { s.meta = uint32(o)<<metaOffShift | uint32(uint8(s.meta)) }

// block returns the slot words of s's further ways, in fill order.
func (c *Cache) block(s *set) []uint32 {
	n := s.n()
	if n < 2 {
		return nil
	}
	o := s.off()
	return c.pool[o : o+n-1]
}

// Slot word layout.
const (
	tagBits   = 14
	tagMask   = 1<<tagBits - 1
	slotValid = 1 << tagBits
	slotDirty = slotValid << 1
	essShift  = 16
	rankShift = 24
	rankOne   = 1 << rankShift
	// matchMask is what a probe compares: the tag word less its dirty
	// bit.
	matchMask = tagMask | slotValid

	// maxTagBits is the widest tag a slot stores: 14 bits in the slot
	// word and 32 in hi.
	maxTagBits = tagBits + 32

	metaOffShift = 8
	// maxPoolSlots bounds a pool offset to the meta word's 24 bits.
	maxPoolSlots = 1 << (32 - metaOffShift)

	// maxClasses block classes hold the at most 254 further ways of a
	// 255-way set: 1, 2, ..., 128 slots, then the capped class.
	maxClasses = 9
)

// classOf returns the block class that holds m further ways (m >= 1).
func classOf(m int) int { return bits.Len(uint(m - 1)) }

// classSlots returns the size of class k's blocks.
func (c *Cache) classSlots(k int) int { return min(1<<k, c.ways-1) }

// poolBound returns the most pool slots a cache of the geometry can
// carve: each set passes through each class at most once, and a freed
// block is reused before a new one is carved.
func poolBound(sets, ways int) int {
	per := 0
	for k := 0; ways > 1; k++ {
		per += min(1<<k, ways-1)
		if 1<<k >= ways-1 {
			break
		}
	}
	return sets * per
}

// slab is one cache's worth of state, recyclable across simulations of
// the same geometry.
type slab struct {
	sets []set
	pool []uint32
	hi   []uint32
}

type slabKey struct{ sets, ways int }

// slabPool recycles cache state between systems (the experiment runner
// tears a machine down after every run and immediately builds the
// next). Guarded by a mutex because sweeps construct systems from a
// worker pool. Bounded per geometry so a wide parallel sweep cannot pin
// an unbounded number of retired LLCs.
var (
	slabMu   sync.Mutex
	slabPool = map[slabKey][]slab{}
)

const slabPoolCap = 16

// acquireSlab returns state for the geometry, recycling a released slab
// when one is available. Only the headers must be cleared: a pool slot
// is written when its block is carved or its way filled before any read
// (scans are bounded by the fill count), and a hi entry whenever its
// slot is filled. A recycled slab keeps the pool capacity and the hi
// array its last owner grew.
func acquireSlab(sets, ways int) slab {
	key := slabKey{sets, ways}
	slabMu.Lock()
	if free := slabPool[key]; len(free) > 0 {
		s := free[len(free)-1]
		slabPool[key] = free[:len(free)-1]
		slabMu.Unlock()
		clear(s.sets)
		return s
	}
	slabMu.Unlock()
	return slab{sets: make([]set, sets)}
}

func releaseSlab(s slab, sets, ways int) {
	key := slabKey{sets, ways}
	slabMu.Lock()
	if len(slabPool[key]) < slabPoolCap {
		slabPool[key] = append(slabPool[key], s)
	}
	slabMu.Unlock()
}

// New builds a cache from its configured geometry. It is small enough
// to inline, so a cache that does not outlive its caller costs no
// allocation beyond its state.
func New(name string, lvl config.CacheLevel) *Cache {
	c := new(Cache)
	c.init(name, lvl)
	return c
}

func (c *Cache) init(name string, lvl config.CacheLevel) {
	numSets := int(lvl.SizeBytes / int64(lvl.Ways*lvl.LineBytes))
	if lvl.Ways < 1 || lvl.Ways > 255 {
		panic(fmt.Sprintf("cache: %s: %d ways out of range (a slot stores its recency rank in a byte)", name, lvl.Ways))
	}
	if poolBound(numSets, lvl.Ways) > maxPoolSlots {
		panic(fmt.Sprintf("cache: %s: %d sets of %d ways overflow the 24-bit pool offset", name, numSets, lvl.Ways))
	}
	s := acquireSlab(numSets, lvl.Ways)
	*c = Cache{
		name:      name,
		sets:      s.sets,
		pool:      s.pool,
		hi:        s.hi,
		ways:      lvl.Ways,
		numSets:   numSets,
		lineBytes: lvl.LineBytes,
		lineShift: uint(bits.TrailingZeros(uint(lvl.LineBytes))),
		setShift:  uint(bits.TrailingZeros64(uint64(numSets))),
		setMask:   uint64(numSets - 1),
	}
}

// Release returns the cache's state to the slab pool. The cache must
// not be used afterwards.
func (c *Cache) Release() {
	if c.sets == nil {
		return
	}
	releaseSlab(slab{sets: c.sets, pool: c.pool, hi: c.hi}, c.numSets, c.ways)
	c.sets, c.pool, c.hi = nil, nil, nil
}

// LineBytes returns the cache's line size.
func (c *Cache) LineBytes() int { return c.lineBytes }

// Align returns addr rounded down to this cache's line size.
func (c *Cache) Align(addr uint64) uint64 { return addr &^ uint64(c.lineBytes-1) }

// find probes addr's set for a valid matching way, returning the set,
// the way's slot word (nil on a miss), the tag and the set index. Way 0
// is checked first, then the block in fill order. Until the cache has
// stored a tag with high bits, no slot holds one, so such a tag misses
// without a scan. An unfilled way 0 is zero and never matches, since a
// probe wants the valid bit.
func (c *Cache) find(addr uint64) (s *set, p *uint32, tag, idx uint64) {
	line := addr >> c.lineShift
	idx = line & c.setMask
	tag = line >> c.setShift
	if tag>>maxTagBits != 0 {
		panic(fmt.Sprintf("cache: %s: address %#x tag overflows %d bits", c.name, addr, maxTagBits))
	}
	s = &c.sets[idx]
	if c.hi == nil && tag > tagMask {
		return s, nil, tag, idx
	}
	want, hi := uint32(tag&tagMask)|slotValid, uint32(tag>>tagBits)
	if s.way0&matchMask == want && (c.hi == nil || c.hi[idx] == hi) {
		return s, &s.way0, tag, idx
	}
	blk := c.block(s)
	for i := range blk {
		if blk[i]&matchMask == want && (c.hi == nil || c.hi[c.numSets+s.off()+i] == hi) {
			return s, &blk[i], tag, idx
		}
	}
	return s, nil, tag, idx
}

// touch makes the way whose slot word is p the most recently used of
// its set.
func (c *Cache) touch(s *set, p *uint32) {
	top := uint32(s.n() - 1)
	r := *p >> rankShift
	if r == top {
		return
	}
	// Every way ranked above r moves one rank down.
	above := r<<rankShift | (rankOne - 1)
	s.way0 -= demote(s.way0, above)
	blk := c.block(s)
	for i := range blk {
		blk[i] -= demote(blk[i], above)
	}
	*p = *p&(rankOne-1) | top<<rankShift
}

// demote returns rankOne when slot word w ranks above the word above,
// else 0, without a branch: which ways a touch demotes follows the
// access stream, so a branch on it mispredicts.
func demote(w, above uint32) uint32 {
	return uint32((uint64(above)-uint64(w))>>63) << rankShift
}

// setHi records slot i's high tag bits (i < numSets is way 0 of set i;
// numSets+j is pool slot j), growing the hi array the first time a tag
// needs it. A fresh hi array is zero, which is every already-filled
// slot's high tag bits.
func (c *Cache) setHi(i int, tag uint64) {
	if c.hi == nil {
		if tag <= tagMask {
			return
		}
		c.hi = make([]uint32, c.numSets+len(c.pool))
	}
	c.hi[i] = uint32(tag >> tagBits)
}

// carve returns the offset of a free block of class k: a freed one when
// the class has one, else fresh pool slots, doubling the pool (and hi,
// when present) if they have run out. A freed block's first slot links
// to the next freed block of its class, as offset+1.
func (c *Cache) carve(k int) int {
	if head := c.free[k]; head != 0 {
		off := int(head - 1)
		c.free[k] = c.pool[off]
		return off
	}
	off, size := c.used, c.classSlots(k)
	if off+size > len(c.pool) {
		pool := make([]uint32, max(2*len(c.pool), off+size, 64))
		copy(pool, c.pool[:off])
		c.pool = pool
		if c.hi != nil {
			hi := make([]uint32, c.numSets+len(pool))
			copy(hi, c.hi[:c.numSets+off])
			c.hi = hi
		}
	}
	c.used = off + size
	return off
}

// grow moves a set's m-1 further ways into a block that holds m, when
// its current block is full, and frees the old block.
func (c *Cache) grow(s *set, m int) {
	if m > 1 && (m-1)&(m-2) != 0 {
		return // the block's class still has room: m-1 is not a class size
	}
	off := c.carve(classOf(m))
	if m > 1 {
		old := s.off()
		copy(c.pool[off:off+m-1], c.pool[old:old+m-1])
		if c.hi != nil {
			copy(c.hi[c.numSets+off:][:m-1], c.hi[c.numSets+old:][:m-1])
		}
		k := classOf(m - 1)
		c.pool[old] = c.free[k]
		c.free[k] = uint32(old + 1)
	}
	s.setOff(off)
}

// Lookup probes for addr's line, updating LRU on hit.
func (c *Cache) Lookup(addr uint64) bool {
	s, p, _, _ := c.find(addr)
	if p == nil {
		c.Misses++
		return false
	}
	c.touch(s, p)
	c.Hits++
	return true
}

// Touch refreshes addr's line like a hit when it is present and
// reports whether it was. An absent line counts nothing: a
// write-through store that does not allocate is not a miss.
func (c *Cache) Touch(addr uint64) bool {
	s, p, _, _ := c.find(addr)
	if p == nil {
		return false
	}
	c.touch(s, p)
	c.Hits++
	return true
}

// Present probes without touching LRU or hit/miss counters.
func (c *Cache) Present(addr uint64) bool {
	_, p, _, _ := c.find(addr)
	return p != nil
}

// Insert fills addr's line, returning the evicted victim, if any. The
// line starts clean. Inserting an already-present line refreshes it.
func (c *Cache) Insert(addr uint64) (Victim, bool) {
	return c.insert(addr, false, 0)
}

// insert is Insert that, when dirty, also marks the line dirty with
// essMask, as MarkDirty would after the insert: the L2 fill paths
// write-allocate a store's line with one probe.
func (c *Cache) insert(addr uint64, dirty bool, essMask uint8) (v Victim, had bool) {
	s, p, tag, idx := c.find(addr)
	var dirt uint32
	if dirty {
		dirt = slotDirty | uint32(essMask)<<essShift
	}
	if p != nil {
		c.touch(s, p)
		*p |= dirt
		return Victim{}, false
	}
	word := uint32(tag&tagMask) | slotValid | dirt
	if n := s.n(); n < c.ways {
		// Free way: fill in append order (invalid ways are not
		// reclaimed early — they age out through LRU).
		word |= uint32(n) << rankShift
		if n == 0 {
			s.way0 = word
			c.setHi(int(idx), tag)
		} else {
			c.grow(s, n)
			slot := s.off() + n - 1
			c.pool[slot] = word
			c.setHi(c.numSets+slot, tag)
		}
		s.meta++
		return Victim{}, false
	}
	// Evict the true-LRU (rank 0) way in place; every other way moves
	// one rank down and the new line takes the top rank.
	word |= uint32(c.ways-1) << rankShift
	vi, vp := int(idx), &s.way0
	if s.way0 < rankOne {
		v = c.victim(s.way0, vi, idx)
	} else {
		s.way0 -= rankOne
	}
	blk := c.block(s)
	for i := range blk {
		if blk[i] < rankOne {
			vi, vp = c.numSets+s.off()+i, &blk[i]
			v = c.victim(blk[i], vi, idx)
		} else {
			blk[i] -= rankOne
		}
	}
	*vp = word
	c.setHi(vi, tag)
	return v, true
}

// victim describes the line in slot i (word w) of set idx.
func (c *Cache) victim(w uint32, i int, idx uint64) Victim {
	tag := uint64(w & tagMask)
	if c.hi != nil {
		tag |= uint64(c.hi[i]) << tagBits
	}
	return Victim{
		Addr:    (tag<<c.setShift | idx) << c.lineShift,
		Dirty:   w&slotDirty != 0,
		EssMask: uint8(w >> essShift),
	}
}

// MarkDirty records a write to addr's line: the line becomes dirty and
// essMask accumulates the changed words. It reports whether the line
// was present.
func (c *Cache) MarkDirty(addr uint64, essMask uint8) bool {
	s, p, _, _ := c.find(addr)
	if p == nil {
		return false
	}
	c.touch(s, p)
	*p |= slotDirty | uint32(essMask)<<essShift
	return true
}

// DirtyInfo returns the line's dirty state and essential mask.
func (c *Cache) DirtyInfo(addr uint64) (present, dirty bool, essMask uint8) {
	_, p, _, _ := c.find(addr)
	if p == nil {
		return false, false, 0
	}
	return true, *p&slotDirty != 0, uint8(*p >> essShift)
}

// Invalidate drops addr's line, returning its dirty state for the
// caller to write back. Only the valid bit is cleared: the way keeps
// its recency rank, tag, dirty bit, and mask until LRU replaces it
// (the historical semantics; L1s — the only level invalidated — are
// write-through and never dirty, so the stale state is inert).
func (c *Cache) Invalidate(addr uint64) (wasPresent, wasDirty bool, essMask uint8) {
	_, p, _, _ := c.find(addr)
	if p == nil {
		return
	}
	w := *p
	*p = w &^ slotValid
	return true, w&slotDirty != 0, uint8(w >> essShift)
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
