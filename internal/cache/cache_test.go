package cache

import (
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"pcmap/internal/config"
)

func tiny() *Cache {
	// 4 sets x 2 ways x 64B = 512B.
	return New("t", config.CacheLevel{SizeBytes: 512, Ways: 2, LineBytes: 64})
}

func TestLookupMissThenHit(t *testing.T) {
	c := tiny()
	if c.Lookup(0x1000) {
		t.Fatal("cold cache should miss")
	}
	c.Insert(0x1000)
	if !c.Lookup(0x1000) {
		t.Fatal("inserted line should hit")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestLRUEviction(t *testing.T) {
	c := tiny()
	// Three lines in the same set (set stride = 4*64 = 256B).
	a, b, d := uint64(0), uint64(1024), uint64(2048)
	c.Insert(a)
	c.Insert(b)
	c.Lookup(a) // a becomes MRU
	v, had := c.Insert(d)
	if !had || v.Addr != b {
		t.Fatalf("should evict LRU line b, got %+v (had=%v)", v, had)
	}
	if !c.Present(a) || c.Present(b) || !c.Present(d) {
		t.Fatal("wrong residency after eviction")
	}
}

func TestDirtyMaskAccumulates(t *testing.T) {
	c := tiny()
	c.Insert(0x40)
	if !c.MarkDirty(0x40, 0b0001) || !c.MarkDirty(0x40, 0b1000) {
		t.Fatal("MarkDirty on present line failed")
	}
	_, dirty, mask := c.DirtyInfo(0x40)
	if !dirty || mask != 0b1001 {
		t.Fatalf("dirty=%v mask=%b", dirty, mask)
	}
}

func TestSilentStoreDirtiesWithEmptyMask(t *testing.T) {
	c := tiny()
	c.Insert(0x80)
	c.MarkDirty(0x80, 0)
	_, dirty, mask := c.DirtyInfo(0x80)
	if !dirty || mask != 0 {
		t.Fatalf("silent store: dirty=%v mask=%b, want dirty with empty mask", dirty, mask)
	}
}

func TestEvictionCarriesMask(t *testing.T) {
	c := tiny()
	c.Insert(0)
	c.MarkDirty(0, 0b0110)
	c.Insert(1024)
	v, had := c.Insert(2048) // evicts line 0 (LRU)
	if !had || !v.Dirty || v.EssMask != 0b0110 {
		t.Fatalf("victim %+v", v)
	}
	if v.Addr != 0 {
		t.Fatalf("victim addr %#x", v.Addr)
	}
}

func TestInvalidate(t *testing.T) {
	c := tiny()
	c.Insert(0x40)
	c.MarkDirty(0x40, 0xf)
	p, d, m := c.Invalidate(0x40)
	if !p || !d || m != 0xf {
		t.Fatalf("invalidate returned %v %v %b", p, d, m)
	}
	if c.Present(0x40) {
		t.Fatal("line still present after invalidate")
	}
	p, _, _ = c.Invalidate(0x40)
	if p {
		t.Fatal("double invalidate should report absent")
	}
}

func TestMarkDirtyMissReturnsFalse(t *testing.T) {
	c := tiny()
	if c.MarkDirty(0x999000, 1) {
		t.Fatal("MarkDirty on absent line must fail")
	}
}

func TestInsertRefreshesExisting(t *testing.T) {
	c := tiny()
	c.Insert(0)
	c.MarkDirty(0, 0xff)
	if _, had := c.Insert(0); had {
		t.Fatal("re-inserting a present line must not evict")
	}
	_, dirty, mask := c.DirtyInfo(0)
	if !dirty || mask != 0xff {
		t.Fatal("re-insert must keep dirty state")
	}
}

func TestSetIsolation(t *testing.T) {
	// Property: inserting lines never evicts a line from another set.
	if err := quick.Check(func(a, b uint32) bool {
		c := tiny()
		addrA, addrB := uint64(a)&^63, uint64(b)&^63
		c.Insert(addrA)
		v, had := c.Insert(addrB)
		if had && (v.Addr>>6)&3 != (addrB>>6)&3 {
			return false
		}
		return true
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAlign(t *testing.T) {
	c := New("x", config.CacheLevel{SizeBytes: 1024, Ways: 2, LineBytes: 32})
	if c.Align(0x47) != 0x40 {
		t.Fatalf("align %#x", c.Align(0x47))
	}
}

func TestMissRatio(t *testing.T) {
	c := tiny()
	c.Lookup(0)
	c.Insert(0)
	c.Lookup(0)
	if got := c.MissRatio(); got != 0.5 {
		t.Fatalf("miss ratio %v", got)
	}
}

func TestLargeCacheFootprintBounded(t *testing.T) {
	// The 256MB LLC's SoA state must cost a small fixed fraction of
	// the cached capacity: 4 bytes per way slot plus 1 per set
	// (tag word 2 + ess 1 + order 1, fill 1/set) — 17.3 MB for 4.2M
	// slots, versus the 256 MB it indexes. Its tags fit the tag word,
	// so it has no hi array.
	lvl := config.Default().DRAMLLC
	sets := int(lvl.SizeBytes / int64(lvl.Ways*lvl.LineBytes))
	slots := sets * lvl.Ways
	c := New("llc", lvl)
	defer c.Release()
	got := len(c.lo)*2 + len(c.hi)*4 + len(c.ess) + len(c.order) + len(c.fill)
	want := slots*4 + sets
	if got != want {
		t.Fatalf("SoA footprint %d bytes, want exactly %d", got, want)
	}
	if int64(got) > lvl.SizeBytes/8 {
		t.Fatalf("SoA state %d bytes exceeds 1/8 of the %d bytes cached", got, lvl.SizeBytes)
	}
}

func TestReleaseRecyclesSlabs(t *testing.T) {
	lvl := config.CacheLevel{SizeBytes: 1 << 20, Ways: 4, LineBytes: 64}
	a := New("a", lvl)
	a.Insert(0x40)
	a.MarkDirty(0x40, 0xff)
	lo := &a.lo[0]
	a.Release()
	if a.lo != nil {
		t.Fatal("Release must detach the arrays")
	}
	b := New("b", lvl)
	defer b.Release()
	if &b.lo[0] != lo {
		t.Fatal("same-geometry New after Release must reuse the slab")
	}
	// The recycled cache must be indistinguishable from a fresh one.
	if b.Present(0x40) {
		t.Fatal("recycled slab leaked residency")
	}
	if _, dirty, mask := b.DirtyInfo(0x40); dirty || mask != 0 {
		t.Fatal("recycled slab leaked dirty state")
	}

	// A sweep builds and releases systems on several workers at once,
	// so the pool is shared: under -race, an access to it without
	// slabMu is reported.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				New("c", lvl).Release()
			}
		}()
	}
	wg.Wait()
}

func TestInsertLookupAllocFree(t *testing.T) {
	c := New("a", config.CacheLevel{SizeBytes: 1 << 20, Ways: 8, LineBytes: 64})
	defer c.Release()
	var addr uint64
	if n := testing.AllocsPerRun(1000, func() {
		c.Insert(addr)
		c.Lookup(addr)
		c.MarkDirty(addr, 1)
		addr += 64
	}); n != 0 {
		t.Fatalf("Insert/Lookup/MarkDirty allocated %.1f/op, want 0", n)
	}
}

// TestDirtyInsertMatchesInsertThenMarkDirty: the one-probe dirty insert
// the L2 fill paths use (insert, then dirty the returned slot) leaves a cache in exactly the state, with the
// same victims and counters, as Insert followed by MarkDirty, across
// hits, free-slot fills and evictions mixed with clean traffic.
func TestDirtyInsertMatchesInsertThenMarkDirty(t *testing.T) {
	two, one := tiny(), tiny()
	rng := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 20_000; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		addr := (rng >> 8) % 32 * 64 // 32 lines over 4 sets of 2 ways
		mask := uint8(rng >> 48)
		var v2, v1 Victim
		var had2, had1 bool
		switch rng % 4 {
		case 0:
			v2, had2 = two.Insert(addr)
			two.MarkDirty(addr, mask)
			var slot int
			slot, v1, had1 = one.insert(addr)
			one.dirty(slot, mask)
		case 1:
			v2, had2 = two.Insert(addr)
			v1, had1 = one.Insert(addr)
		case 2:
			two.Lookup(addr)
			one.Lookup(addr)
		case 3:
			two.Invalidate(addr)
			one.Invalidate(addr)
		}
		if v2 != v1 || had2 != had1 {
			t.Fatalf("op %d: victims differ: %+v/%v vs %+v/%v", i, v2, had2, v1, had1)
		}
	}
	if !reflect.DeepEqual(two, one) {
		t.Fatalf("caches diverged:\n%+v\n%+v", two, one)
	}
}

// TestTouchCountsOnlyHits: Touch refreshes a present line like a
// Lookup hit and leaves an absent one uncounted.
func TestTouchCountsOnlyHits(t *testing.T) {
	c := tiny()
	a, b, d := uint64(0), uint64(1024), uint64(2048) // one set
	if c.Touch(a) {
		t.Fatal("Touch of an absent line reported present")
	}
	if c.Hits != 0 || c.Misses != 0 {
		t.Fatalf("Touch of an absent line counted: hits=%d misses=%d", c.Hits, c.Misses)
	}
	c.Insert(a)
	c.Insert(b)
	if !c.Touch(a) || c.Hits != 1 {
		t.Fatalf("Touch of a present line: hits=%d", c.Hits)
	}
	// a is now most recently used, so d evicts b.
	if v, _ := c.Insert(d); v.Addr != b {
		t.Fatalf("Touch did not refresh LRU: evicted %#x", v.Addr)
	}
}

// TestTagWidthBound: a slot stores tags of up to 46 bits (14 in the tag
// word, 32 in hi), so every address with a narrower tag round-trips
// through the cache, victims included, and a wider one panics instead
// of aliasing onto another line.
func TestTagWidthBound(t *testing.T) {
	c := tiny() // 4 sets of 64 B lines: tag = addr >> 8
	widest := uint64(1)<<46 - 1
	a, b, d := widest<<8, (widest-1)<<8, (widest-2)<<8 // one set
	c.Insert(a)
	c.Insert(b)
	if v, had := c.Insert(d); !had || v.Addr != a {
		t.Fatalf("victim %+v (had=%v), want %#x", v, had, a)
	}
	if !c.Present(b) || !c.Present(d) || c.Present(a) {
		t.Fatal("wrong residency for 46-bit tags")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a 47-bit tag did not panic")
		}
	}()
	c.Present(uint64(1) << 54)
}
