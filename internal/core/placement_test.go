package core

import (
	"testing"

	"pcmap/internal/config"
	"pcmap/internal/mem"
	"pcmap/internal/sim"
)

// placementRun drives bursts of requests to the lines hot(i) names,
// keeping both queues of the single channel occupied, and after every
// engine event checks that each queued request's stored placement
// equals a fresh decode of its address. It returns how many times an
// event moved the placement of a request that stayed queued across it,
// so a caller can tell that the check saw the mapping change under a
// queued request.
func placementRun(t *testing.T, cfg *config.Config, hot func(c *Controller, i int) uint64, n int) (moved int) {
	t.Helper()
	eng := sim.NewEngine()
	m, err := NewMemory(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := m.Ctrls[0]
	before := map[*mem.Request]mem.Coord{}
	step := func() bool {
		clear(before)
		snapshot := func(r *mem.Request) bool {
			before[r] = c.decode(r.Addr)
			return true
		}
		c.rdq.Each(snapshot)
		c.wrq.Each(snapshot)
		if !eng.Step() {
			return false
		}
		check := func(r *mem.Request) bool {
			want := c.decode(r.Addr)
			if r.Coord != want {
				t.Fatalf("queued %v %#x placed at %+v, decodes to %+v", r.Kind, r.Addr, r.Coord, want)
			}
			if old, ok := before[r]; ok && old != want {
				moved++
			}
			return true
		}
		c.rdq.Each(check)
		c.wrq.Each(check)
		return true
	}
	rng := sim.NewRNG(5)
	for i := 0; i < n; i++ {
		r := &mem.Request{Kind: mem.Write, Addr: hot(c, rng.Intn(256)), Core: -1,
			Mask: uint8(1) << uint(rng.Intn(8))}
		if i%3 == 0 {
			r.Kind, r.Mask = mem.Read, 0
		}
		for !m.Submit(r) {
			if !step() {
				t.Fatal("queue full with no pending events")
			}
		}
		if i%8 == 7 {
			step()
		}
	}
	for step() {
	}
	return moved
}

// TestQueuedPlacementFollowsGapMoves: with Start-Gap moving the gap
// every third write, a queued request's placement is re-decoded at
// every move. The gap starts above the channel's top line and walks
// down, so the hot lines are the top 256.
func TestQueuedPlacementFollowsGapMoves(t *testing.T) {
	cfg := config.Default().WithVariant(config.RWoWRDE)
	cfg.Memory.Channels = 1
	cfg.Memory.CapacityBytes = 1 << 30
	cfg.Memory.WearLevelPsi = 3
	top := func(c *Controller, i int) uint64 {
		return c.amap.Encode(c.amap.CoordFromLineIdx(0, c.amap.LinesPerChannel()-1-uint64(i)))
	}
	if moved := placementRun(t, cfg, top, 4000); moved == 0 {
		t.Fatal("no gap move changed the placement of a queued request")
	}
}

// TestQueuedPlacementFollowsRemaps: with verify on and cells that wear
// out after a dozen writes, lines move to the spare pool, and every
// queued request to a remapped line follows the redirect.
func TestQueuedPlacementFollowsRemaps(t *testing.T) {
	cfg := config.Default().WithVariant(config.RWoWRDE)
	cfg.Memory.Channels = 1
	cfg.Memory.CapacityBytes = 2 << 30
	cfg.Memory.EnduranceBudget = 12
	cfg.Memory.VerifyWrites = true
	few := func(_ *Controller, i int) uint64 { return lineAddr(uint64(i % 16)) }
	if moved := placementRun(t, cfg, few, 4000); moved == 0 {
		t.Fatal("no spare remap changed the placement of a queued request")
	}
}
