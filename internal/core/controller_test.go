package core

import (
	"testing"

	"pcmap/internal/config"
	"pcmap/internal/mem"
	"pcmap/internal/sim"
)

// driver feeds a fixed request pattern to a Memory and tracks
// completions, retrying on queue-full through OnSpace.
type driver struct {
	eng       *sim.Engine
	m         *Memory
	completed int
	issued    int
	verifies  int
	faulty    int
}

func (d *driver) submit(r *mem.Request) {
	prev := r.OnDone
	r.OnDone = func(rr *mem.Request) {
		d.completed++
		if prev != nil {
			prev(rr)
		}
	}
	r.OnVerify = func(rr *mem.Request, f bool) {
		d.verifies++
		if f {
			d.faulty++
		}
	}
	var try func()
	try = func() {
		if !d.m.Submit(r) {
			d.m.OnSpace(r.Kind, r.Addr, try)
		}
	}
	d.issued++
	try()
}

func newTestMemory(t *testing.T, v config.Variant) (*sim.Engine, *Memory) {
	t.Helper()
	cfg := config.Default().WithVariant(v)
	cfg.Memory.Channels = 1 // single channel focuses contention
	cfg.Memory.CapacityBytes = 2 << 30
	eng := sim.NewEngine()
	m, err := NewMemory(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range m.Ctrls {
		c.AssertContent = true
	}
	return eng, m
}

// TestMemoryChannelMatchesDecode: the facade routes every address, in
// capacity or not, to the controller its decoded coordinates name.
func TestMemoryChannelMatchesDecode(t *testing.T) {
	m, err := NewMemory(sim.NewEngine(), config.Default())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	rng := sim.NewRNG(35)
	for i := 0; i < 10_000; i++ {
		addr := rng.Uint64()
		if got, want := m.Channel(addr), m.Ctrls[m.AMap.Decode(addr).Channel]; got != want {
			t.Fatalf("Channel(%#x) is controller %d, Decode names %d", addr, got.channel, want.channel)
		}
	}
}

// channelAddr builds an address on channel 0 with the given
// channel-local line number (our mapping interleaves lines across 4
// channels; with 1 channel every line-aligned address is channel 0).
func lineAddr(n uint64) uint64 { return n * 64 }

func TestAllRequestsCompleteEveryVariant(t *testing.T) {
	for _, v := range config.Variants {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			eng, m := newTestMemory(t, v)
			d := &driver{eng: eng, m: m}
			rng := sim.NewRNG(42)
			// Interleave writes (varied dirty masks) and reads over a
			// small hot region to force queue pressure and overlap.
			n := 0
			var gen func()
			gen = func() {
				if n >= 400 {
					return
				}
				n++
				addr := lineAddr(uint64(rng.Intn(512)))
				if n%3 == 0 {
					d.submit(&mem.Request{Kind: mem.Read, Addr: addr, Core: 0})
				} else {
					mask := uint8(rng.Uint64())
					d.submit(&mem.Request{Kind: mem.Write, Addr: addr, Mask: mask, Core: 0})
				}
				eng.Schedule(sim.NS(20), gen)
			}
			eng.Schedule(0, gen)
			eng.Run()
			if d.completed != d.issued {
				t.Fatalf("%s: %d/%d requests completed", v, d.completed, d.issued)
			}
			if eng.Pending() != 0 {
				t.Fatalf("%s: %d events still pending", v, eng.Pending())
			}
			met := m.Metrics()
			if met.Reads.Value()+met.Writes.Value() != uint64(d.issued) {
				t.Fatalf("%s: metrics count %d+%d != %d", v,
					met.Reads.Value(), met.Writes.Value(), d.issued)
			}
		})
	}
}

func TestWriteContentIsStored(t *testing.T) {
	eng, m := newTestMemory(t, config.RWoWRDE)
	var data [64]byte
	for i := range data {
		data[i] = byte(i + 1)
	}
	done := false
	m.Submit(&mem.Request{Kind: mem.Write, Addr: lineAddr(10), Mask: 0xff, Data: &data,
		OnDone: func(*mem.Request) { done = true }})
	eng.Run()
	if !done {
		t.Fatal("write never completed")
	}
	var rd *mem.Request
	m.Submit(&mem.Request{Kind: mem.Read, Addr: lineAddr(10),
		OnDone: func(r *mem.Request) { rd = r }})
	eng.Run()
	if rd == nil {
		t.Fatal("read never completed")
	}
	if rd.ReadData != data {
		t.Fatalf("read back %x, want %x", rd.ReadData[:8], data[:8])
	}
}

func TestMaskedWriteLeavesOtherWordsIntact(t *testing.T) {
	eng, m := newTestMemory(t, config.Baseline)
	var d1 [64]byte
	for i := range d1 {
		d1[i] = 0xAA
	}
	m.Submit(&mem.Request{Kind: mem.Write, Addr: lineAddr(5), Mask: 0xff, Data: &d1})
	eng.Run()
	d2 := d1
	for i := 0; i < 8; i++ {
		d2[i] = 0xBB // word 0 changes
	}
	m.Submit(&mem.Request{Kind: mem.Write, Addr: lineAddr(5), Mask: 0x01, Data: &d2})
	eng.Run()
	var rd *mem.Request
	m.Submit(&mem.Request{Kind: mem.Read, Addr: lineAddr(5), OnDone: func(r *mem.Request) { rd = r }})
	eng.Run()
	for i := 0; i < 8; i++ {
		if rd.ReadData[i] != 0xBB {
			t.Fatalf("word 0 byte %d = %#x, want 0xBB", i, rd.ReadData[i])
		}
	}
	for i := 8; i < 64; i++ {
		if rd.ReadData[i] != 0xAA {
			t.Fatalf("byte %d = %#x, want 0xAA untouched", i, rd.ReadData[i])
		}
	}
}

func TestReadLatencyBaselineVsSymmetric(t *testing.T) {
	// Figure 1's premise: with writes in the mix, asymmetric write
	// latency inflates effective read latency vs a symmetric device.
	run := func(symmetric bool) float64 {
		cfg := config.Default().WithVariant(config.Baseline)
		cfg.Memory.Channels = 1
		cfg.Memory.CapacityBytes = 2 << 30
		if symmetric {
			cfg.Memory.Timing.CellSET = cfg.Memory.Timing.ArrayRead
			cfg.Memory.Timing.CellRESET = cfg.Memory.Timing.ArrayRead
		}
		eng := sim.NewEngine()
		m, _ := NewMemory(eng, cfg)
		d := &driver{eng: eng, m: m}
		rng := sim.NewRNG(7)
		n := 0
		var gen func()
		gen = func() {
			if n >= 600 {
				return
			}
			n++
			addr := lineAddr(uint64(rng.Intn(256)))
			if n%2 == 0 {
				d.submit(&mem.Request{Kind: mem.Read, Addr: addr})
			} else {
				d.submit(&mem.Request{Kind: mem.Write, Addr: addr, Mask: 0x0f})
			}
			eng.Schedule(sim.NS(30), gen)
		}
		eng.Schedule(0, gen)
		eng.Run()
		return m.Metrics().ReadLatency.MeanNS()
	}
	asym := run(false)
	symm := run(true)
	if asym <= symm {
		t.Fatalf("asymmetric read latency %.1f should exceed symmetric %.1f", asym, symm)
	}
}

func TestRoWServesReadsDuringWrites(t *testing.T) {
	eng, m := newTestMemory(t, config.RWoWRDE)
	d := &driver{eng: eng, m: m}
	rng := sim.NewRNG(3)
	// Write-heavy single-word traffic to trigger drains, with reads
	// arriving during them.
	n := 0
	var gen func()
	gen = func() {
		if n >= 1000 {
			return
		}
		n++
		addr := lineAddr(uint64(rng.Intn(1024)))
		if n%4 == 0 {
			d.submit(&mem.Request{Kind: mem.Read, Addr: addr})
		} else {
			d.submit(&mem.Request{Kind: mem.Write, Addr: addr, Mask: 1 << uint(rng.Intn(8))})
		}
		eng.Schedule(sim.NS(15), gen)
	}
	eng.Schedule(0, gen)
	eng.Run()
	met := m.Metrics()
	if met.RoWServed.Value() == 0 {
		t.Fatal("expected some reads to be served by reconstruction")
	}
	if met.RoWVerifies.Value() != met.RoWServed.Value() {
		t.Fatalf("every RoW read must be verified: %d served, %d verified",
			met.RoWServed.Value(), met.RoWVerifies.Value())
	}
	if met.RoWFaulty.Value() != 0 {
		t.Fatalf("no faults injected but %d verifications failed", met.RoWFaulty.Value())
	}
	if d.completed != d.issued {
		t.Fatalf("%d/%d completed", d.completed, d.issued)
	}
}

func TestWoWOverlapsWrites(t *testing.T) {
	eng, m := newTestMemory(t, config.WoWNR)
	d := &driver{eng: eng, m: m}
	rng := sim.NewRNG(5)
	n := 0
	var gen func()
	gen = func() {
		if n >= 800 {
			return
		}
		n++
		// Single-word writes at rotating offsets to different lines:
		// disjoint chip sets, prime WoW fodder.
		d.submit(&mem.Request{
			Kind: mem.Write,
			Addr: lineAddr(uint64(rng.Intn(4096))),
			Mask: 1 << uint(n%8),
		})
		eng.Schedule(sim.NS(10), gen)
	}
	eng.Schedule(0, gen)
	eng.Run()
	if d.completed != d.issued {
		t.Fatalf("%d/%d completed", d.completed, d.issued)
	}
	if m.Metrics().WoWOverlapped.Value() == 0 {
		t.Fatal("expected write-over-write consolidation")
	}
}

func TestBaselineNeverOverlapsWrites(t *testing.T) {
	eng, m := newTestMemory(t, config.Baseline)
	d := &driver{eng: eng, m: m}
	for i := 0; i < 200; i++ {
		d.submit(&mem.Request{Kind: mem.Write, Addr: lineAddr(uint64(i)), Mask: 0x01})
	}
	eng.Run()
	met := m.Metrics()
	if met.WoWOverlapped.Value() != 0 || met.RoWServed.Value() != 0 {
		t.Fatal("baseline must not use PCMap mechanisms")
	}
	if d.completed != d.issued {
		t.Fatalf("%d/%d completed", d.completed, d.issued)
	}
}

func TestVariantIRLPOrdering(t *testing.T) {
	// The paper's headline: IRLP(Baseline) < IRLP(RWoW-RDE).
	irlp := func(v config.Variant) float64 {
		eng, m := newTestMemory(t, v)
		d := &driver{eng: eng, m: m}
		rng := sim.NewRNG(11)
		n := 0
		var gen func()
		gen = func() {
			if n >= 1500 {
				return
			}
			n++
			addr := lineAddr(uint64(rng.Intn(8192)))
			if n%4 == 0 {
				d.submit(&mem.Request{Kind: mem.Read, Addr: addr})
			} else {
				// 1-2 dirty words, the paper's common case.
				mask := uint8(1) << uint(rng.Intn(8))
				if rng.Bool(0.4) {
					mask |= 1 << uint(rng.Intn(8))
				}
				d.submit(&mem.Request{Kind: mem.Write, Addr: addr, Mask: mask})
			}
			eng.Schedule(sim.NS(12), gen)
		}
		eng.Schedule(0, gen)
		eng.Run()
		if d.completed != d.issued {
			t.Fatalf("%s: %d/%d completed", v, d.completed, d.issued)
		}
		avg, _ := m.IRLP()
		return avg
	}
	base := irlp(config.Baseline)
	full := irlp(config.RWoWRDE)
	if full <= base {
		t.Fatalf("IRLP did not improve: baseline %.2f, RWoW-RDE %.2f", base, full)
	}
}

func TestFaultInjectionAlways(t *testing.T) {
	cfg := config.Default().WithVariant(config.RWoWRDE)
	cfg.Memory.Channels = 1
	cfg.Memory.FaultMode = "always"
	eng := sim.NewEngine()
	m, err := NewMemory(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := &driver{eng: eng, m: m}
	rng := sim.NewRNG(13)
	n := 0
	var gen func()
	gen = func() {
		if n >= 600 {
			return
		}
		n++
		addr := lineAddr(uint64(rng.Intn(512)))
		if n%4 == 0 {
			d.submit(&mem.Request{Kind: mem.Read, Addr: addr})
		} else {
			d.submit(&mem.Request{Kind: mem.Write, Addr: addr, Mask: 1})
		}
		eng.Schedule(sim.NS(15), gen)
	}
	eng.Schedule(0, gen)
	eng.Run()
	met := m.Metrics()
	if met.RoWServed.Value() == 0 {
		t.Skip("no RoW reads in this pattern")
	}
	if d.faulty != int(met.RoWServed.Value()) {
		t.Fatalf("FaultMode=always: %d faulty of %d RoW reads", d.faulty, met.RoWServed.Value())
	}
}

func TestRotationBalancesWear(t *testing.T) {
	wear := func(v config.Variant) float64 {
		eng, m := newTestMemory(t, v)
		d := &driver{eng: eng, m: m}
		// Writes always dirty word 0: without rotation chip 0, ECC and
		// PCC chips absorb everything.
		for i := 0; i < 300; i++ {
			d.submit(&mem.Request{Kind: mem.Write, Addr: lineAddr(uint64(i * 4)), Mask: 0x01})
		}
		eng.Run()
		return m.WearImbalance()
	}
	fixed := wear(config.RWoWNR)
	rotated := wear(config.RWoWRDE)
	if rotated >= fixed {
		t.Fatalf("rotation should balance wear: fixed CV %.2f, rotated CV %.2f", fixed, rotated)
	}
}
