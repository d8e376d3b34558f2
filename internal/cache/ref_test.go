package cache

import (
	"math/bits"
	"testing"

	"pcmap/internal/config"
	"pcmap/internal/sim"
)

// refCache is the reference the differential tests and FuzzCacheOps
// hold Cache to: an earlier struct-of-arrays representation, with a
// full 32-bit tag and a separate valid/dirty byte per slot, and no slab
// pool. Every public Cache method has a refCache twin with the same
// semantics: true-LRU order, fill (append) order, and Invalidate
// clearing only the valid bit.
type refCache struct {
	tags      []uint32
	meta      []uint8
	ess       []uint8
	order     []uint8
	fill      []uint8
	ways      int
	lineShift uint
	setShift  uint
	setMask   uint64

	Hits, Misses uint64
}

const (
	refValid = 1 << 0
	refDirty = 1 << 1
)

func newRefCache(sets, ways, lineShift int) *refCache {
	return &refCache{
		tags:      make([]uint32, sets*ways),
		meta:      make([]uint8, sets*ways),
		ess:       make([]uint8, sets*ways),
		order:     make([]uint8, sets*ways),
		fill:      make([]uint8, sets),
		ways:      ways,
		lineShift: uint(lineShift),
		setShift:  uint(bits.TrailingZeros(uint(sets))),
		setMask:   uint64(sets - 1),
	}
}

func (c *refCache) find(addr uint64) (base, way int, tag uint32, idx uint64) {
	line := addr >> c.lineShift
	idx = line & c.setMask
	tag = uint32(line >> c.setShift)
	base = int(idx) * c.ways
	for w := 0; w < int(c.fill[idx]); w++ {
		if c.meta[base+w]&refValid != 0 && c.tags[base+w] == tag {
			return base, w, tag, idx
		}
	}
	return base, -1, tag, idx
}

func (c *refCache) touch(idx uint64, base, way int) {
	n := int(c.fill[idx])
	ord := c.order[base : base+n]
	p := 0
	for ord[p] != uint8(way) {
		p++
	}
	copy(ord[p:], ord[p+1:])
	ord[n-1] = uint8(way)
}

func (c *refCache) Lookup(addr uint64) bool {
	base, way, _, idx := c.find(addr)
	if way < 0 {
		c.Misses++
		return false
	}
	c.touch(idx, base, way)
	c.Hits++
	return true
}

func (c *refCache) Touch(addr uint64) bool {
	base, way, _, idx := c.find(addr)
	if way < 0 {
		return false
	}
	c.touch(idx, base, way)
	c.Hits++
	return true
}

func (c *refCache) Present(addr uint64) bool {
	_, way, _, _ := c.find(addr)
	return way >= 0
}

func (c *refCache) Insert(addr uint64) (Victim, bool) {
	base, way, tag, idx := c.find(addr)
	if way >= 0 {
		c.touch(idx, base, way)
		return Victim{}, false
	}
	if n := c.fill[idx]; int(n) < c.ways {
		w := int(n)
		c.tags[base+w], c.meta[base+w], c.ess[base+w] = tag, refValid, 0
		c.order[base+w] = n
		c.fill[idx] = n + 1
		return Victim{}, false
	}
	vi := int(c.order[base])
	v := Victim{
		Addr:    (uint64(c.tags[base+vi])<<c.setShift | idx) << c.lineShift,
		Dirty:   c.meta[base+vi]&refDirty != 0,
		EssMask: c.ess[base+vi],
	}
	c.tags[base+vi], c.meta[base+vi], c.ess[base+vi] = tag, refValid, 0
	c.touch(idx, base, vi)
	return v, true
}

func (c *refCache) MarkDirty(addr uint64, essMask uint8) bool {
	base, way, _, idx := c.find(addr)
	if way < 0 {
		return false
	}
	c.touch(idx, base, way)
	c.meta[base+way] |= refDirty
	c.ess[base+way] |= essMask
	return true
}

func (c *refCache) DirtyInfo(addr uint64) (present, dirty bool, essMask uint8) {
	base, way, _, _ := c.find(addr)
	if way < 0 {
		return false, false, 0
	}
	return true, c.meta[base+way]&refDirty != 0, c.ess[base+way]
}

func (c *refCache) Invalidate(addr uint64) (wasPresent, wasDirty bool, essMask uint8) {
	base, way, _, _ := c.find(addr)
	if way < 0 {
		return
	}
	c.meta[base+way] &^= refValid
	return true, c.meta[base+way]&refDirty != 0, c.ess[base+way]
}

// diffGeometries are the shapes the differential tests run: 2-way
// 32 B, 8-way 64 B and 16-way 64 B caches over a few sets each, a
// single 255-way set, and 3-way and 6-way caches. A set that fills
// crosses every block class of its geometry: the 3-way cache's last
// class is a whole power of two (2 slots), the 6-way cache's is capped
// at 5 slots instead of 8.
var diffGeometries = []config.CacheLevel{
	{SizeBytes: 64 * 2 * 32, Ways: 2, LineBytes: 32},
	{SizeBytes: 16 * 8 * 64, Ways: 8, LineBytes: 64},
	{SizeBytes: 4 * 16 * 64, Ways: 16, LineBytes: 64},
	{SizeBytes: 255 * 64, Ways: 255, LineBytes: 64},
	{SizeBytes: 16 * 3 * 64, Ways: 3, LineBytes: 64},
	{SizeBytes: 8 * 6 * 32, Ways: 6, LineBytes: 32},
}

// diffSpanBits are the address spans the differential tests draw from,
// as bit widths. At 2^37 every geometry's tags outgrow the 14-bit tag
// word, so the hi array is grown partway through a run.
var diffSpanBits = []uint{16, 24, 37}

// diffOps is an encoded op sequence: a geometry byte, a span byte,
// then 4 bytes an op (see checkOps). The first half of the ops stays in
// region 0, the span's low lines; the second half also reaches regions
// at the top of the span, and opens with probes that fill nothing, so
// high tags are looked up before any is stored.
func diffOps(geometry, span int, n int, rng *sim.RNG) []byte {
	data := []byte{byte(geometry), byte(span)}
	regions := [4]byte{0, 1, 7, 255}
	probes := [6]byte{0, 1, 2, 5, 6, 7}
	for i := 0; i < n; i++ {
		r := rng.Uint64()
		kind, region := byte(r), byte(0)
		if i >= n/2 {
			region = regions[r>>8%4]
		}
		if i >= n/2 && i < n/2+n/16 {
			kind = probes[r%6]
		}
		data = append(data, kind, byte(r>>16), region, byte(r>>24))
	}
	return data
}

// checkOps decodes data (see diffOps), applies every op to a Cache and
// to a fresh refCache of the decoded geometry, and fails t on the first
// result or counter that differs. An op is [kind, line, region, mask]:
// its address is line lines above region·2^(span-8), offset into the
// line by the mask's low bits. It returns the cache, which the caller
// releases, and whether the cache had a hi array before its first op
// outside region 0 (or at the end, when every op is in region 0).
func checkOps(t *testing.T, data []byte) (c *Cache, hiBeforeRegions bool) {
	t.Helper()
	if len(data) < 2 {
		return nil, false
	}
	lvl := diffGeometries[int(data[0])%len(diffGeometries)]
	span := diffSpanBits[int(data[1])%len(diffSpanBits)]
	sets := int(lvl.SizeBytes) / (lvl.Ways * lvl.LineBytes)
	c = New("diff", lvl)
	ref := newRefCache(sets, lvl.Ways, bits.TrailingZeros(uint(lvl.LineBytes)))
	line := uint64(lvl.LineBytes)
	hiBeforeRegions = c.hi != nil
	regionSeen := false
	for i, op := 0, data[2:]; len(op) >= 4; i, op = i+1, op[4:] {
		kind, mask := op[0]%8, op[3]
		addr := uint64(op[1])*line + uint64(op[2])<<(span-8) + uint64(mask)&(line-1)
		if op[2] != 0 && !regionSeen {
			regionSeen, hiBeforeRegions = true, c.hi != nil
		}
		var got, want any
		switch kind {
		case 0:
			got, want = c.Lookup(addr), ref.Lookup(addr)
		case 1:
			got, want = c.Touch(addr), ref.Touch(addr)
		case 2:
			got, want = c.Present(addr), ref.Present(addr)
		case 3, 4:
			gv, gh := c.Insert(addr)
			wv, wh := ref.Insert(addr)
			got, want = [2]any{gv, gh}, [2]any{wv, wh}
		case 5:
			got, want = c.MarkDirty(addr, mask), ref.MarkDirty(addr, mask)
		case 6:
			gp, gd, gm := c.DirtyInfo(addr)
			wp, wd, wm := ref.DirtyInfo(addr)
			got, want = [3]any{gp, gd, gm}, [3]any{wp, wd, wm}
		case 7:
			gp, gd, gm := c.Invalidate(addr)
			wp, wd, wm := ref.Invalidate(addr)
			got, want = [3]any{gp, gd, gm}, [3]any{wp, wd, wm}
		}
		if got != want || c.Hits != ref.Hits || c.Misses != ref.Misses {
			t.Fatalf("%s span 2^%d op %d (kind %d, addr %#x): got %v (hits %d, misses %d), reference %v (hits %d, misses %d)",
				c, span, i, kind, addr, got, c.Hits, c.Misses, want, ref.Hits, ref.Misses)
		}
	}
	if !regionSeen {
		hiBeforeRegions = c.hi != nil
	}
	return c, hiBeforeRegions
}

// dropPooledSlabs empties the slab pool of lvl's geometry, so the next
// New of it starts from fresh arrays.
func dropPooledSlabs(lvl config.CacheLevel) {
	slabMu.Lock()
	delete(slabPool, slabKey{int(lvl.SizeBytes) / (lvl.Ways * lvl.LineBytes), lvl.Ways})
	slabMu.Unlock()
}

// TestCacheMatchesReference holds every public Cache method and the
// hit/miss counters to the reference on each geometry and span. A
// fresh cache has no hi array until a tag needs one: it stays nil over
// the first half of each run, and the 2^37 span grows it in the second
// half. A last run on a recycled slab that carries a hi array must
// match a fresh reference too. Every run fills at least one set, so
// block growth crosses every class, the capped last one included.
func TestCacheMatchesReference(t *testing.T) {
	rng := sim.NewRNG(29)
	for g, lvl := range diffGeometries {
		for s, span := range diffSpanBits {
			dropPooledSlabs(lvl)
			c, hiEarly := checkOps(t, diffOps(g, s, 20_000, rng))
			if hiEarly {
				t.Errorf("%s span 2^%d: hi array grown while every tag fit the tag word", c, span)
			}
			if span == 37 && c.hi == nil {
				t.Errorf("%s span 2^%d: tags above 2^14 stored without a hi array", c, span)
			}
			if !filledASet(c) {
				t.Errorf("%s span 2^%d: no set filled, so no block reached the last class", c, span)
			}
			c.Release()
		}
		c, hiEarly := checkOps(t, diffOps(g, 0, 20_000, rng))
		if !hiEarly {
			t.Errorf("%s: the recycled slab lost its hi array", c)
		}
		if !filledASet(c) {
			t.Errorf("%s: no set of the recycled slab filled", c)
		}
		c.Release()
	}
}

// TestPoolGrowsAfterHi: a cache that grows its hi array while its
// pool is small grows hi again with every pool doubling. The first op
// stores a tag too wide for the tag word; 256 lines over the 8-way
// geometry's 16 sets then fill every set, which doubles the pool
// twice, and probes of every line and the wide tag follow.
func TestPoolGrowsAfterHi(t *testing.T) {
	dropPooledSlabs(diffGeometries[1])
	c, _ := checkOps(t, poolAfterHiOps())
	if c.hi == nil || len(c.hi) != c.numSets+len(c.pool) || len(c.pool) < 256 {
		t.Errorf("hi %d entries for %d sets and a %d-slot pool", len(c.hi), c.numSets, len(c.pool))
	}
	c.Release()
}

// poolAfterHiOps encodes TestPoolGrowsAfterHi's ops for checkOps: the
// 8-way geometry and the 2^37 span.
func poolAfterHiOps() []byte {
	data := []byte{1, 2, 3, 0, 255, 0}
	for _, kind := range []byte{3, 0} {
		for line := 0; line < 256; line++ {
			data = append(data, kind, byte(line), 0, byte(line))
		}
	}
	return append(data, 0, 0, 255, 0)
}

// filledASet reports whether some set of c holds all its ways, so its
// block grew through every class of the geometry.
func filledASet(c *Cache) bool {
	for i := range c.sets {
		if c.sets[i].n() == c.ways {
			return true
		}
	}
	return false
}

// FuzzCacheOps holds Cache to the reference on any op sequence (see
// checkOps), seeded with short runs of every geometry and span.
func FuzzCacheOps(f *testing.F) {
	rng := sim.NewRNG(29)
	for g := range diffGeometries {
		for s := range diffSpanBits {
			f.Add(diffOps(g, s, 400, rng))
		}
	}
	f.Add(poolAfterHiOps())
	f.Fuzz(func(t *testing.T, data []byte) {
		if c, _ := checkOps(t, data); c != nil {
			c.Release()
		}
	})
}
