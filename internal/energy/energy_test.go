package energy_test

import (
	"math"
	"testing"

	"pcmap/internal/config"
	"pcmap/internal/core"
	"pcmap/internal/dimm"
	"pcmap/internal/energy"
	"pcmap/internal/mem"
	"pcmap/internal/pcm"
	"pcmap/internal/sim"
)

func TestBreakdownArithmetic(t *testing.T) {
	m := energy.Default()
	rank := dimm.NewRank(8, 1, dimm.Layout{})
	met := mem.NewMetrics()
	met.Reads.Add(1000)
	rank.Chips[0].CountWrite(pcmFlips(100, 50))
	b := m.FromRank(rank, met)
	wantRead := 1000 * 576 * 2.0 * 1e-6
	if math.Abs(b.ReadUJ-wantRead) > 1e-9 {
		t.Fatalf("read energy %v, want %v", b.ReadUJ, wantRead)
	}
	wantSet := 100 * 13.5 * 1e-6
	wantReset := 50 * 19.2 * 1e-6
	if math.Abs(b.SetUJ-wantSet) > 1e-9 || math.Abs(b.ResetUJ-wantReset) > 1e-9 {
		t.Fatalf("programming energy %v/%v, want %v/%v", b.SetUJ, b.ResetUJ, wantSet, wantReset)
	}
	if math.Abs(b.TotalUJ()-(b.ReadUJ+b.SetUJ+b.ResetUJ+b.BusUJ)) > 1e-12 {
		t.Fatal("total != sum of parts")
	}
	if len(b.PerChip) != 10 {
		t.Fatalf("per-chip breakdown has %d entries", len(b.PerChip))
	}
}

// pcmFlips builds a transition count.
func pcmFlips(sets, resets int) pcm.FlipKind {
	return pcm.FlipKind{Sets: sets, Resets: resets}
}

func TestDifferentialWritesSaveEnergy(t *testing.T) {
	// Writing the same content twice must cost (almost) no programming
	// energy the second time — the differential-write claim the paper
	// builds on.
	run := func(repeatSame bool) float64 {
		cfg := config.Default().WithVariant(config.Baseline)
		eng := sim.NewEngine()
		m, err := core.NewMemory(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var data [64]byte
		for i := range data {
			data[i] = byte(i)
		}
		alt := data
		for i := range alt {
			alt[i] ^= 0xff
		}
		for i := 0; i < 50; i++ {
			payload := data
			if !repeatSame && i%2 == 1 {
				payload = alt
			}
			m.Submit(&mem.Request{Kind: mem.Write, Addr: 0x40000, Mask: 0xff, Data: &payload})
			eng.Run()
		}
		var total float64
		for _, ctrl := range m.Ctrls {
			b := energy.Default().FromRank(ctrl.Rank(), ctrl.Metrics)
			total += b.SetUJ + b.ResetUJ
		}
		return total
	}
	same := run(true)
	toggle := run(false)
	if same*10 > toggle {
		t.Fatalf("rewriting identical content (%.4fuJ) should cost far less than toggling (%.4fuJ)", same, toggle)
	}
}

func TestWriteEnergyPerLine(t *testing.T) {
	rank := dimm.NewRank(8, 1, dimm.Layout{})
	met := mem.NewMetrics()
	met.Writes.Add(10)
	rank.Chips[3].CountWrite(pcmFlips(320, 320))
	got := energy.Default().WriteEnergyPerLineUJ(rank, met)
	want := (320*13.5 + 320*19.2) * 1e-6 / 10
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("per-line %v, want %v", got, want)
	}
	if energy.Default().WriteEnergyPerLineUJ(dimm.NewRank(8, 1, dimm.Layout{}), mem.NewMetrics()) != 0 {
		t.Fatal("zero writes must report zero")
	}
}
