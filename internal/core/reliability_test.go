package core

import (
	"testing"

	"pcmap/internal/config"
	"pcmap/internal/ecc"
	"pcmap/internal/mem"
	"pcmap/internal/sim"
)

// reliabilityRun drives a hot set of lines with explicit data through a
// Memory configured with the given fault knobs, keeping a golden shadow
// copy, and reports what the fault path did. Requests are chained
// back-to-back so each read observes the preceding write in program
// order.
type reliabilityRun struct {
	silent        int // reads that returned wrong data with no error
	flagged       int // reads that returned an error
	reads, writes int
	met           *mem.Metrics
	stuck, drift  uint64
	remapped      uint64
}

func runReliability(t *testing.T, endurance uint64, drift float64, verify bool, ops int) reliabilityRun {
	t.Helper()
	cfg := config.Default().WithVariant(config.RWoWRDE)
	cfg.Memory.Channels = 1
	cfg.Memory.CapacityBytes = 2 << 30
	cfg.Memory.EnduranceBudget = endurance
	cfg.Memory.DriftProb = drift
	cfg.Memory.VerifyWrites = verify
	eng := sim.NewEngine()
	m, err := NewMemory(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}

	const hotLines = 32
	rng := sim.NewRNG(7)
	shadow := make(map[uint64]*[ecc.LineBytes]byte)
	var out reliabilityRun

	var step func(i int)
	step = func(i int) {
		if i >= ops {
			return
		}
		addr := uint64(rng.Intn(hotLines)) * 64
		r := &mem.Request{Addr: addr, Core: -1}
		if sh, ok := shadow[addr]; ok && i%4 == 3 {
			r.Kind = mem.Read
			want := *sh
			out.reads++
			r.OnDone = func(r *mem.Request) {
				if r.Err != nil {
					out.flagged++
				} else if r.ReadData != want {
					out.silent++
					t.Errorf("op %d: read %#x returned corrupt data with no error", i, addr)
				}
				eng.Schedule(sim.NS(40), func() { step(i + 1) })
			}
		} else {
			data := new([ecc.LineBytes]byte)
			for w := 0; w < ecc.WordsPerLine; w++ {
				ecc.SetWord(data, w, rng.Uint64())
			}
			r.Kind = mem.Write
			r.Mask = 0xff
			r.Data = data
			shadow[addr] = data
			out.writes++
			r.OnDone = func(r *mem.Request) {
				eng.Schedule(sim.NS(40), func() { step(i + 1) })
			}
		}
		if !m.Submit(r) {
			t.Fatal("queue full despite serialized requests")
		}
	}
	step(0)
	eng.Run()

	out.met = m.Metrics()
	out.stuck, out.drift = m.FaultCounts()
	out.remapped = out.met.WriteRemaps.Value()
	return out
}

// TestNoSilentCorruptionWithVerify is the PR's end-to-end acceptance
// check: under severe wear (cells stick far past the code's design
// strength) plus drift, with program-and-verify and remapping enabled,
// every read either returns the exact written data or carries a typed
// error — never corrupt data silently. It also cross-checks that the
// injected faults were actually seen and handled by the machinery, so a
// silently disconnected fault model cannot fake a pass.
func TestNoSilentCorruptionWithVerify(t *testing.T) {
	o := runReliability(t, 12, 2e-3, true, 3000)

	if o.silent != 0 {
		t.Fatalf("%d silent corruptions (must be 0 with verify enabled)", o.silent)
	}
	if o.stuck == 0 {
		t.Fatal("no stuck-at faults injected: the test exercised nothing")
	}
	if o.drift == 0 {
		t.Fatal("no drift faults injected: the test exercised nothing")
	}
	handled := o.met.SECDEDCorrected.Value() + o.met.SECDEDCheckFixed.Value() +
		o.met.PCCRecovered.Value() + o.met.UncorrectedReads.Value() +
		o.met.WriteRetries.Value() + o.met.WriteRemaps.Value()
	if handled == 0 {
		t.Fatalf("%d faults injected but none handled: fault path is disconnected", o.stuck+o.drift)
	}
	if o.met.WriteVerifies.Value() == 0 || o.met.VerifyReads.Value() == 0 {
		t.Fatal("verify enabled but no write was verified")
	}
	if o.met.VerifyReads.Value() < o.met.WriteVerifies.Value() {
		t.Fatalf("fewer verify read-backs (%d) than verified writes (%d)",
			o.met.VerifyReads.Value(), o.met.WriteVerifies.Value())
	}
	if o.met.WriteRetries.Value() == 0 {
		t.Fatal("severe wear with verify should trigger reprogram retries")
	}
	if o.remapped == 0 {
		t.Fatal("severe wear with verify should remap worn lines to spares")
	}
	if spares := uint64(config.Default().Memory.SpareLines); o.remapped > o.met.RemapFailures.Value()+spares {
		t.Fatalf("%d remaps exceed the %d-line spare pool", o.remapped, spares)
	}
}

// TestModerateWearECCOnly checks the read path alone: with wear kept
// inside SECDED+PCC design strength and no verify, corrupted reads are
// corrected (or flagged) rather than returned silently, and the
// correction counters prove SECDED actually ran.
func TestModerateWearECCOnly(t *testing.T) {
	o := runReliability(t, 64, 2e-3, false, 3000)

	if o.silent != 0 {
		t.Fatalf("%d silent corruptions under moderate wear", o.silent)
	}
	if o.stuck == 0 {
		t.Fatal("no stuck-at faults injected")
	}
	if o.met.SECDEDCorrected.Value() == 0 {
		t.Fatal("faults injected but SECDED corrected nothing: decode path disconnected")
	}
	if v := o.met.WriteVerifies.Value(); v != 0 {
		t.Fatalf("verify disabled but %d writes verified", v)
	}
}

// TestFaultFreeRunsUnperturbed pins the zero-perturbation invariant:
// with all fault knobs at their defaults the reliability machinery must
// be completely inert — no faults, no corrections, no verify activity,
// no errors — so every seed experiment stays bit-identical.
func TestFaultFreeRunsUnperturbed(t *testing.T) {
	o := runReliability(t, 0, 0, false, 2000)

	if o.silent != 0 || o.flagged != 0 {
		t.Fatalf("fault-free run produced %d silent, %d flagged reads", o.silent, o.flagged)
	}
	if o.stuck != 0 || o.drift != 0 {
		t.Fatalf("fault-free run injected %d stuck, %d drift faults", o.stuck, o.drift)
	}
	zero := []struct {
		name string
		v    uint64
	}{
		{"SECDEDCorrected", o.met.SECDEDCorrected.Value()},
		{"SECDEDCheckFixed", o.met.SECDEDCheckFixed.Value()},
		{"PCCRecovered", o.met.PCCRecovered.Value()},
		{"UncorrectedReads", o.met.UncorrectedReads.Value()},
		{"WriteVerifies", o.met.WriteVerifies.Value()},
		{"VerifyReads", o.met.VerifyReads.Value()},
		{"WriteRetries", o.met.WriteRetries.Value()},
		{"WriteRemaps", o.met.WriteRemaps.Value()},
		{"RemapFailures", o.met.RemapFailures.Value()},
	}
	for _, z := range zero {
		if z.v != 0 {
			t.Errorf("fault-free run: %s = %d, want 0", z.name, z.v)
		}
	}
}

// TestVerifyWithoutFaultsCompletes covers the verify path on perfect
// cells: every read-back matches on the first try, so writes are
// verified with zero retries, remaps, or errors.
func TestVerifyWithoutFaultsCompletes(t *testing.T) {
	o := runReliability(t, 0, 0, true, 1000)

	if o.silent != 0 || o.flagged != 0 {
		t.Fatalf("perfect cells produced %d silent, %d flagged reads", o.silent, o.flagged)
	}
	if o.met.WriteVerifies.Value() == 0 {
		t.Fatal("verify enabled but nothing verified")
	}
	if r := o.met.WriteRetries.Value(); r != 0 {
		t.Fatalf("perfect cells needed %d retries", r)
	}
	if r := o.met.WriteRemaps.Value(); r != 0 {
		t.Fatalf("perfect cells remapped %d lines", r)
	}
}

// TestPALPReadWaitsForVerifyReadBack checks that a verify read-back
// books the written line's partition: under PALP, a read of the same
// line that arrives while the read-back senses its chips waits for the
// read-back instead of starting in the busy partition at once.
func TestPALPReadWaitsForVerifyReadBack(t *testing.T) {
	cfg := config.Default().WithVariant(config.PALP)
	cfg.Memory.Channels = 1
	cfg.Memory.CapacityBytes = 2 << 30
	cfg.Memory.VerifyWrites = true
	eng := sim.NewEngine()
	m, err := NewMemory(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := m.Ctrls[0]
	m.Submit(&mem.Request{Kind: mem.Write, Addr: lineAddr(5), Mask: 0xff})
	eng.RunUntil(0)
	if len(c.active) != 1 {
		t.Fatalf("write not issued: %d active", len(c.active))
	}
	// The write's programming ends at progEnd, where the read-back of
	// its eight data chips and ECC chip starts.
	progEnd := c.active[0].end
	tm := cfg.Memory.Timing
	readBackEnd := progEnd + tm.ArrayRead.Time() + (tm.TCL + tm.TBurst).Time()
	var rd *mem.Request
	eng.At(progEnd, func() {
		m.Submit(&mem.Request{Kind: mem.Read, Addr: lineAddr(5), OnDone: func(r *mem.Request) { rd = r }})
	})
	eng.Run()
	if n := c.Metrics.VerifyReads.Value(); n != 1 {
		t.Fatalf("VerifyReads = %d, want 1", n)
	}
	if rd == nil {
		t.Fatal("read never completed")
	}
	if rd.Issue < readBackEnd {
		t.Fatalf("read issued at %v, inside the verify read-back [%v, %v) of its partition",
			rd.Issue, progEnd, readBackEnd)
	}
}
