package cache

import (
	"testing"

	"pcmap/internal/config"
	"pcmap/internal/core"
	"pcmap/internal/sim"
)

func newHierarchy(t *testing.T) (*sim.Engine, *Hierarchy) {
	t.Helper()
	cfg := config.Default().WithVariant(config.RWoWRDE)
	eng := sim.NewEngine()
	m, err := core.NewMemory(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, NewHierarchy(eng, cfg, m)
}

func TestLoadMissGoesToMemoryThenHitsL1(t *testing.T) {
	eng, h := newHierarchy(t)
	done := false
	h.SetFillHandler(0, func(uint64) { done = true })
	res, _ := h.Load(0, 0x100040, false, 0)
	if res != GoesToMemory {
		t.Fatalf("cold load result %v", res)
	}
	eng.Run()
	if !done {
		t.Fatal("fill callback never ran")
	}
	res, lat := h.Load(0, 0x100040, false, 1)
	if res != HitL1 {
		t.Fatalf("second load result %v, want L1 hit", res)
	}
	if lat != sim.CPUCycle {
		t.Fatalf("L1 hit latency %v", lat)
	}
}

func TestLoadHitsL2AfterOtherHalfFetched(t *testing.T) {
	eng, h := newHierarchy(t)
	h.Load(0, 0x200000, false, 0)
	eng.Run()
	// Same 64B line, other 32B half: misses L1 (32B lines), hits L2.
	res, lat := h.Load(0, 0x200020, false, 1)
	if res != HitL2 {
		t.Fatalf("result %v, want L2 hit", res)
	}
	if lat <= sim.CPUCycle {
		t.Fatalf("L2 hit latency %v too small", lat)
	}
}

func TestCoalescedMisses(t *testing.T) {
	eng, h := newHierarchy(t)
	count := 0
	h.SetFillHandler(0, func(uint64) { count++ })
	h.SetFillHandler(1, func(uint64) { count++ })
	h.Load(0, 0x300000, false, 0)
	h.Load(1, 0x300000, false, 0)
	if h.CoalescedMisses != 1 {
		t.Fatalf("coalesced %d, want 1", h.CoalescedMisses)
	}
	eng.Run()
	if count != 2 {
		t.Fatalf("%d callbacks, want 2", count)
	}
	if h.MemFetches != 1 {
		t.Fatalf("%d fetches, want 1 (coalesced)", h.MemFetches)
	}
}

func TestStoreDirtiesLineAndWritesBack(t *testing.T) {
	eng, h := newHierarchy(t)
	// Store misses everywhere: write-allocate fetch, then dirty.
	res := h.Store(0, 0x400000, 0b0011, false)
	if res != GoesToMemory {
		t.Fatalf("store result %v", res)
	}
	eng.Run()
	_, dirty, mask := h.L2.DirtyInfo(0x400000)
	if !dirty || mask != 0b0011 {
		t.Fatalf("L2 line dirty=%v mask=%b", dirty, mask)
	}
}

func TestStoreHitL2(t *testing.T) {
	eng, h := newHierarchy(t)
	h.Load(0, 0x500000, false, 0)
	eng.Run()
	if res := h.Store(0, 0x500000, 0b100, false); res != HitL2 {
		t.Fatalf("store to resident line: %v", res)
	}
}

func TestSilentStoreProducesZeroMaskWriteback(t *testing.T) {
	eng, h := newHierarchy(t)
	res := h.Store(0, 0x600000, 0, false) // silent store
	if res != GoesToMemory {
		t.Fatalf("res %v", res)
	}
	eng.Run()
	_, dirty, mask := h.L2.DirtyInfo(0x600000)
	if !dirty || mask != 0 {
		t.Fatalf("silent store: dirty=%v mask=%b", dirty, mask)
	}
}

func TestCoherenceInvalidationOnRemoteStore(t *testing.T) {
	eng, h := newHierarchy(t)
	h.Load(0, 0x700000, false, 0)
	eng.Run()
	if !h.L1[0].Present(0x700000) {
		t.Fatal("core 0 should cache the line")
	}
	h.Store(1, 0x700000, 1, false)
	eng.Run()
	if h.L1[0].Present(0x700000) {
		t.Fatal("remote store must invalidate core 0's L1 copy")
	}
	if h.InvalidationsSent == 0 {
		t.Fatal("no invalidations recorded")
	}
}

// TestLLCBankCountChangesContention pins the LLCBanks wiring:
// NewHierarchy used to hardcode 8 banks regardless of configuration.
// Two back-to-back LLC hits on adjacent lines land in different banks
// with 8 banks (no queueing) but in the same bank with 1 bank, where
// the second access must wait out the first's occupancy window.
func TestLLCBankCountChangesContention(t *testing.T) {
	lat := func(banks int) sim.Time {
		t.Helper()
		cfg := config.Default().WithVariant(config.Baseline)
		cfg.LLCBanks = banks
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		eng := sim.NewEngine()
		m, err := core.NewMemory(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := NewHierarchy(eng, cfg, m)
		h.PrewarmLLC(0)
		h.PrewarmLLC(64)
		if res, _ := h.Load(0, 0, false, 0); res != HitLLC {
			t.Fatalf("first load result %v, want LLC hit", res)
		}
		res, l := h.Load(0, 64, false, 1)
		if res != HitLLC {
			t.Fatalf("second load result %v, want LLC hit", res)
		}
		return l
	}
	if l1, l8 := lat(1), lat(8); l1 <= l8 {
		t.Fatalf("single-bank latency %v not above 8-bank latency %v", l1, l8)
	}
}

// TestLoadHitAllocFree pins the warm load fast path: an L1 hit costs
// zero heap allocations.
func TestLoadHitAllocFree(t *testing.T) {
	eng, h := newHierarchy(t)
	addr := uint64(0x880000)
	h.Load(0, addr, false, 0)
	eng.Run()
	var seq uint64
	if n := testing.AllocsPerRun(1000, func() {
		seq++
		if res, _ := h.Load(0, addr, false, seq); res != HitL1 {
			t.Fatalf("load result %v, want L1 hit", res)
		}
	}); n != 0 {
		t.Fatalf("L1-hit load allocated %.2f/op, want 0", n)
	}
}

// TestStartFetchCoalesceAllocFree pins the miss-coalescing path: once
// the pooled fetch's waiter slices have grown, joining an in-flight
// fetch allocates nothing.
func TestStartFetchCoalesceAllocFree(t *testing.T) {
	eng, h := newHierarchy(t)
	addr := uint64(0x900000)
	// Warm: grow the pooled fetch's waiter/core capacity past the
	// measurement count, then complete it so the fetch recycles with
	// capacity retained.
	h.Load(0, addr, false, 0)
	for i := 0; i < 1200; i++ {
		h.Load(1, addr, false, uint64(i))
	}
	eng.Run()
	// Measure: a fresh miss pops the recycled fetch; every further load
	// coalesces within the retained capacity.
	addr += 1 << 20
	h.Load(0, addr, false, 0)
	var seq uint64
	if n := testing.AllocsPerRun(1000, func() {
		seq++
		if res, _ := h.Load(1, addr, false, seq); res != GoesToMemory {
			t.Fatalf("load result %v, want coalesced miss", res)
		}
	}); n != 0 {
		t.Fatalf("coalescing load allocated %.2f/op, want 0", n)
	}
	eng.Run()
}

func TestWritebackReachesPCMWithMask(t *testing.T) {
	cfg := config.Default().WithVariant(config.Baseline)
	// Shrink L2 and LLC so evictions happen quickly.
	cfg.L2.SizeBytes = 8 << 10
	cfg.DRAMLLC.SizeBytes = 32 << 10
	eng := sim.NewEngine()
	m, err := core.NewMemory(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHierarchy(eng, cfg, m)
	// Dirty many distinct lines to force eviction chains to PCM.
	for i := uint64(0); i < 4096; i++ {
		h.Store(0, i*64*4, 0b1, false)
		eng.Run()
	}
	met := m.Metrics()
	if met.Writes.Value() == 0 {
		t.Fatal("no PCM write-backs observed")
	}
	if met.DirtyWords.Total() == 0 || met.DirtyWords.Fraction(1) < 0.9 {
		t.Fatalf("write-back masks lost: %v", met.DirtyWords.Buckets())
	}
}

func TestHierarchyFiltersMemoryTraffic(t *testing.T) {
	eng, h := newHierarchy(t)
	// Re-touch a small working set: after warmup, no PCM traffic.
	for round := 0; round < 3; round++ {
		for i := uint64(0); i < 64; i++ {
			h.Load(0, i*64, false, i)
			eng.Run()
		}
	}
	if h.MemFetches != 64 {
		t.Fatalf("fetches %d, want 64 (one per distinct line)", h.MemFetches)
	}
	if h.L1Hits == 0 {
		t.Fatal("warm loads should hit L1")
	}
}

// TestUnstallCycleAllocFree pins the stall→unstall cycle at zero
// allocations: cores register on OnUnstall, a landing fill wakes them,
// and a core whose retry stalls again registers anew — the waiter list
// reuses its backing arrays instead of growing a fresh one per episode.
func TestUnstallCycleAllocFree(t *testing.T) {
	_, h := newHierarchy(t)
	stallAgain := true
	var retry func()
	retry = func() {
		if stallAgain {
			h.OnUnstall(retry)
		}
	}
	cycle := func() {
		for i := 0; i < 4; i++ {
			h.OnUnstall(func() {})
		}
		h.OnUnstall(retry)
		h.unstall.Wake()
		stallAgain = !stallAgain
	}
	cycle()
	cycle()
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Fatalf("stall→unstall cycle allocated %.2f/op, want 0", n)
	}
}
