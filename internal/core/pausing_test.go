package core

import (
	"testing"

	"pcmap/internal/config"
	"pcmap/internal/dimm"
	"pcmap/internal/mem"
	"pcmap/internal/sim"
)

func pausingMemory(t *testing.T, pausing bool) (*sim.Engine, *Memory, *driver) {
	t.Helper()
	cfg := config.Default() // baseline variant
	cfg.Memory.Channels = 1
	cfg.Memory.CapacityBytes = 1 << 30
	cfg.Memory.WritePausing = pausing
	eng := sim.NewEngine()
	m, err := NewMemory(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, m, &driver{eng: eng, m: m}
}

func pausingTraffic(eng *sim.Engine, d *driver, rng *sim.RNG) {
	n := 0
	var gen func()
	gen = func() {
		if n >= 900 {
			return
		}
		n++
		addr := lineAddr(uint64(rng.Intn(2048)))
		if n%4 == 0 {
			d.submit(&mem.Request{Kind: mem.Read, Addr: addr})
		} else {
			d.submit(&mem.Request{Kind: mem.Write, Addr: addr, Mask: 0x0f})
		}
		eng.Schedule(sim.NS(16), gen)
	}
	eng.Schedule(0, gen)
	eng.Run()
}

func TestWritePausingCutsReadLatency(t *testing.T) {
	engA, mA, dA := pausingMemory(t, false)
	pausingTraffic(engA, dA, sim.NewRNG(4))
	plain := mA.Metrics().ReadLatency.MeanNS()
	if dA.completed != dA.issued {
		t.Fatalf("plain: %d/%d completed", dA.completed, dA.issued)
	}

	engB, mB, dB := pausingMemory(t, true)
	pausingTraffic(engB, dB, sim.NewRNG(4))
	paused := mB.Metrics().ReadLatency.MeanNS()
	if dB.completed != dB.issued {
		t.Fatalf("paused: %d/%d completed", dB.completed, dB.issued)
	}
	if mB.Metrics().WritePauses.Value() == 0 {
		t.Fatal("no pauses recorded under read pressure")
	}
	// A paused write programs the ECC chip like any coarse write.
	if mB.Ctrls[0].Rank().Chips[dimm.ECCSlot].WordWrites == 0 {
		t.Fatal("paused writes never counted a write on the ECC chip")
	}
	if paused >= plain {
		t.Fatalf("write pausing should cut read latency: %.1fns vs %.1fns", paused, plain)
	}
}

func TestWritePausingPreservesWriteCompletion(t *testing.T) {
	eng, m, d := pausingMemory(t, true)
	var data [64]byte
	for i := range data {
		data[i] = 0x5a
	}
	d.submit(&mem.Request{Kind: mem.Write, Addr: lineAddr(3), Mask: 0xff, Data: &data})
	// Interleave reads so the write actually pauses.
	for i := 0; i < 4; i++ {
		d.submit(&mem.Request{Kind: mem.Read, Addr: lineAddr(uint64(100 + i))})
	}
	eng.Run()
	var rd *mem.Request
	m.Submit(&mem.Request{Kind: mem.Read, Addr: lineAddr(3), OnDone: func(r *mem.Request) { rd = r }})
	eng.Run()
	if rd == nil || rd.ReadData != data {
		t.Fatal("paused write lost content")
	}
}

func TestPausingOffByDefault(t *testing.T) {
	eng, m, d := pausingMemory(t, false)
	pausingTraffic(eng, d, sim.NewRNG(6))
	if m.Metrics().WritePauses.Value() != 0 {
		t.Fatal("pauses recorded with the feature disabled")
	}
}

func TestPausingIgnoredByPCMapVariants(t *testing.T) {
	cfg := config.Default().WithVariant(config.RWoWRDE)
	cfg.Memory.Channels = 1
	cfg.Memory.WritePausing = true
	eng := sim.NewEngine()
	m, err := NewMemory(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := &driver{eng: eng, m: m}
	pausingTraffic(eng, d, sim.NewRNG(8))
	if d.completed != d.issued {
		t.Fatalf("%d/%d completed", d.completed, d.issued)
	}
	if m.Metrics().WritePauses.Value() != 0 {
		t.Fatal("fine-grained variants must not use the pausing path")
	}
}

// TestPausingWithoutReadsMatchesCoarse checks the pausing path's
// accounting against the plain coarse write: with no read to pause
// for, the segments run back to back, so the run books the same chip
// time, wears the same chips and reports the same IRLP.
func TestPausingWithoutReadsMatchesCoarse(t *testing.T) {
	type outcome struct {
		irlp   float64
		max    int
		chips  [dimm.Slots]uint64
		done   int
		pauses uint64
	}
	run := func(pausing bool) outcome {
		eng, m, d := pausingMemory(t, pausing)
		rng := sim.NewRNG(9)
		for i := 0; i < 200; i++ {
			mask := uint8(rng.Uint64()) | 1
			d.submit(&mem.Request{Kind: mem.Write, Addr: lineAddr(uint64(rng.Intn(512))), Mask: mask})
		}
		eng.Run()
		var o outcome
		o.irlp, o.max = m.IRLP()
		for i, ch := range m.Ctrls[0].Rank().Chips {
			o.chips[i] = ch.WordWrites
		}
		o.done = d.completed
		o.pauses = m.Metrics().WritePauses.Value()
		return o
	}
	plain, paused := run(false), run(true)
	if plain.done != 200 || paused.done != 200 {
		t.Fatalf("completed %d plain, %d paused writes, want 200", plain.done, paused.done)
	}
	if paused.pauses == 0 || plain.irlp == 0 {
		t.Fatalf("%d segment boundaries, plain IRLP %.4f: the comparison is empty", paused.pauses, plain.irlp)
	}
	if paused.irlp != plain.irlp || paused.max != plain.max {
		t.Fatalf("IRLP %.4f/%d paused, %.4f/%d plain", paused.irlp, paused.max, plain.irlp, plain.max)
	}
	if paused.chips != plain.chips {
		t.Fatalf("per-chip word writes %v paused, %v plain", paused.chips, plain.chips)
	}
}
