package system

import (
	"reflect"
	"testing"

	"pcmap/internal/config"
)

// TestDeterminism: two fresh builds of the same configuration must
// produce identical Results — every counter, latency histogram, IPC,
// IRLP and energy string — the foundation of the reproduction claim.
// The cases cover RoW reconstruction with deferred verify (RWoW-RDE),
// the coherence-heavy multithreaded path (canneal), and the stochastic
// fault model, whose per-channel RNG streams must replay identically.
// The fault case's budget-of-one endurance and high drift probability
// make injection dense enough to observe in a short run.
func TestDeterminism(t *testing.T) {
	cases := []struct {
		name            string
		variant         config.Variant
		mix             string
		faults          bool
		warmup, measure uint64
	}{
		{"rde-mp6", config.RWoWRDE, "MP6", false, 10_000, 60_000},
		{"nr-canneal", config.RWoWNR, "canneal", false, 4_000, 30_000},
		{"rde-mp4-faults", config.RWoWRDE, "MP4", true, 4_000, 300_000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func() *Results {
				opts := []Option{WithConfig(config.Default().WithVariant(tc.variant)), WithWorkload(tc.mix)}
				if tc.faults {
					opts = append(opts, WithFaultModel(1, 0.5))
				}
				s, err := New(opts...)
				if err != nil {
					t.Fatal(err)
				}
				r, err := s.Run(tc.warmup, tc.measure)
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			a, b := run(), run()
			if tc.faults && a.InjectedStuck+a.InjectedDrift == 0 {
				t.Fatal("fault model injected nothing; the case exercises no fault paths")
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("results diverged:\nfirst  %+v\nsecond %+v", a, b)
			}
		})
	}
}

// TestSeedChangesResults: different seeds must explore different
// stochastic paths (guards against a frozen RNG wiring bug).
func TestSeedChangesResults(t *testing.T) {
	run := func(seed uint64) float64 {
		cfg := config.Default()
		cfg.Seed = seed
		s, err := New(WithConfig(cfg), WithWorkload("MP4"))
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run(5_000, 40_000)
		if err != nil {
			t.Fatal(err)
		}
		return r.Mem.ReadLatency.MeanNS()
	}
	if run(1) == run(2) {
		t.Fatal("different seeds produced identical latency profiles")
	}
}

// TestMultithreadedCoherenceTraffic: MT workloads share lines, so the
// directory must see invalidations; MP mixes must see none (disjoint
// address spaces).
func TestMultithreadedCoherenceTraffic(t *testing.T) {
	run := func(mix string) (uint64, uint64) {
		s, err := New(WithConfig(config.Default()), WithWorkload(mix))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(5_000, 50_000); err != nil {
			t.Fatal(err)
		}
		return s.Hier.Dir.Invalidations, s.Hier.Dir.Forwards
	}
	mtInv, _ := run("canneal")
	if mtInv == 0 {
		t.Fatal("multithreaded run produced no invalidations")
	}
	mpInv, _ := run("MP3")
	if mpInv != 0 {
		t.Fatalf("multiprogrammed run produced %d invalidations across disjoint spaces", mpInv)
	}
}

// TestAllVariantsRunAllMixes is the wide smoke matrix at tiny budgets.
func TestAllVariantsRunAllMixes(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix smoke skipped in -short")
	}
	for _, mix := range []string{"canneal", "freqmine", "MP1", "MP4", "stream"} {
		for _, v := range config.Variants {
			s, err := New(WithConfig(config.Default().WithVariant(v)), WithWorkload(mix))
			if err != nil {
				t.Fatalf("%s/%s: %v", mix, v, err)
			}
			r, err := s.Run(2_000, 15_000)
			if err != nil {
				t.Fatalf("%s/%s: %v", mix, v, err)
			}
			if r.IPCSum <= 0 {
				t.Fatalf("%s/%s: no progress", mix, v)
			}
		}
	}
}

// TestWearLevelingFullSystem: Start-Gap under a full workload keeps the
// system live and reduces wear imbalance relative to no leveling on
// the baseline (where fixed roles concentrate writes).
func TestWearLevelingFullSystem(t *testing.T) {
	run := func(psi uint64) (float64, uint64) {
		cfg := config.Default() // baseline: no rotation, worst imbalance
		cfg.Memory.WearLevelPsi = psi
		s, err := New(WithConfig(cfg), WithWorkload("MP4"))
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run(5_000, 60_000)
		if err != nil {
			t.Fatal(err)
		}
		return r.WearCV, r.Mem.WearMoves.Value()
	}
	_, moves0 := run(0)
	if moves0 != 0 {
		t.Fatal("moves recorded with leveling off")
	}
	_, movesOn := run(50)
	if movesOn == 0 {
		t.Fatal("no gap moves with leveling on")
	}
}
