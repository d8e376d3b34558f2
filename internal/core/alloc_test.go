package core

import (
	"testing"

	"pcmap/internal/config"
	"pcmap/internal/mem"
	"pcmap/internal/sim"
)

// requestLoop drives a Memory with a fixed pool of requests, each
// reused once its last event (completion, or a reconstructed read's
// verification) has fired, so the loop itself allocates nothing.
type requestLoop struct {
	eng   *sim.Engine
	m     *Memory
	rng   *sim.RNG
	lines int
	free  []*mem.Request
	n     int
}

func newRequestLoop(eng *sim.Engine, m *Memory, inflight, lines int) *requestLoop {
	d := &requestLoop{eng: eng, m: m, rng: sim.NewRNG(11), lines: lines}
	d.free = make([]*mem.Request, 0, inflight)
	for i := 0; i < inflight; i++ {
		r := &mem.Request{}
		r.OnDone = func(r *mem.Request) {
			if !r.Reconstructed {
				d.recycle(r)
			}
		}
		r.OnVerify = func(r *mem.Request, _ bool) { d.recycle(r) }
		d.free = append(d.free, r)
	}
	return d
}

func (d *requestLoop) recycle(r *mem.Request) {
	r.Data, r.Err = nil, nil
	r.Arrive, r.Issue, r.Done = 0, 0, 0
	r.Started, r.Reconstructed, r.DelayedByWrite = false, false, false
	d.free = append(d.free, r)
}

// drive submits n requests (one read per three, the rest masked
// writes) over the bounded line set, stepping the engine whenever the
// pool or the target queue is exhausted.
func (d *requestLoop) drive(t testing.TB, n int) {
	for i := 0; i < n; i++ {
		for len(d.free) == 0 {
			if !d.eng.Step() {
				t.Fatal("requests outstanding with no pending events")
			}
		}
		r := d.free[len(d.free)-1]
		d.free = d.free[:len(d.free)-1]
		d.n++
		r.Kind, r.Addr, r.Mask, r.Core = mem.Read, lineAddr(uint64(d.rng.Intn(d.lines))), 0, -1
		if d.n%3 != 0 {
			r.Kind, r.Mask = mem.Write, uint8(1)<<uint(d.n&7)|uint8(d.rng.Intn(4))
		}
		for !d.m.Submit(r) {
			if !d.eng.Step() {
				t.Fatal("queue full with no pending events")
			}
		}
		d.eng.Step()
	}
}

// TestSteadyStateAllocFree pins the controller's request lifecycle at
// zero allocations once the pools, queues and event arena have grown
// to the working set: every read, write, verify read-back, re-program
// and pause segment rides a pooled record with pre-bound callbacks.
func TestSteadyStateAllocFree(t *testing.T) {
	cases := []struct {
		name string
		cfg  func(*config.Config)
		seen func(*mem.Metrics) uint64
	}{
		{"RWoW-DCA verify", func(c *config.Config) {
			c.Variant = config.RWoWDCA
			c.Memory.VerifyWrites = true
		}, func(m *mem.Metrics) uint64 { return m.VerifyReads.Value() }},
		{"Baseline pausing", func(c *config.Config) {
			c.Memory.WritePausing = true
		}, func(m *mem.Metrics) uint64 { return m.WritePauses.Value() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := config.Default()
			cfg.Memory.Channels = 1
			cfg.Memory.CapacityBytes = 1 << 30
			tc.cfg(cfg)
			eng := sim.NewEngine()
			m, err := NewMemory(eng, cfg)
			if err != nil {
				t.Fatal(err)
			}
			d := newRequestLoop(eng, m, 64, 256)
			d.drive(t, 20000) // warmup: grow pools, queues and the line store
			before := tc.seen(m.Ctrls[0].Metrics)
			allocs := testing.AllocsPerRun(5, func() { d.drive(t, 2000) })
			if tc.seen(m.Ctrls[0].Metrics) == before {
				t.Fatal("the measured window never exercised the path under test")
			}
			if allocs != 0 {
				t.Fatalf("%v allocs per 2000 requests in steady state, want 0", allocs)
			}
		})
	}
}

// TestSpaceWaitCycleAllocFree pins the queue-full wait at zero
// allocations: requests register on OnSpace and a freed slot wakes
// them, reusing the waiter list's backing arrays across episodes.
func TestSpaceWaitCycleAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	m, err := NewMemory(eng, config.Default())
	if err != nil {
		t.Fatal(err)
	}
	c := m.Ctrls[0]
	retry := func() {}
	cycle := func() {
		for _, kind := range []mem.Kind{mem.Read, mem.Write} {
			for i := 0; i < 4; i++ {
				c.OnSpace(kind, retry)
			}
			c.notifySpace(kind)
		}
	}
	cycle()
	cycle()
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Fatalf("OnSpace→notifySpace cycle allocated %.2f/op, want 0", n)
	}
}
