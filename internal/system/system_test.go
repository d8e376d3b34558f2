package system

import (
	"testing"

	"pcmap/internal/config"
	"pcmap/internal/pcm"
)

func TestSmokeRunBaseline(t *testing.T) {
	cfg := config.Default()
	s, err := New(WithConfig(cfg), WithWorkload("canneal"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run(20000, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if r.IPCSum <= 0 {
		t.Fatal("no progress")
	}
	if r.Mem.Reads.Value() == 0 || r.Mem.Writes.Value() == 0 {
		t.Fatalf("no PCM traffic: reads=%d writes=%d", r.Mem.Reads.Value(), r.Mem.Writes.Value())
	}
	t.Logf("IPCsum=%.2f RPKI=%.2f WPKI=%.2f IRLP=%.2f readLat=%.0fns",
		r.IPCSum, r.RPKI, r.WPKI, r.IRLPAvg, r.Mem.ReadLatency.MeanNS())
}

func TestSmokeRunPCMap(t *testing.T) {
	cfg := config.Default().WithVariant(config.RWoWRDE)
	s, err := New(WithConfig(cfg), WithWorkload("MP4"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run(20000, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if r.IPCSum <= 0 {
		t.Fatal("no progress")
	}
	t.Logf("IPCsum=%.2f RPKI=%.2f WPKI=%.2f IRLP=%.2f RoW=%d WoW=%d",
		r.IPCSum, r.RPKI, r.WPKI, r.IRLPAvg,
		r.Mem.RoWServed.Value(), r.Mem.WoWOverlapped.Value())
}

// TestZeroLineSurvivesFaultyRun runs a full simulation with endurance
// wearout, drift injection and program-and-verify enabled — the paths
// that read never-written lines through the store's shared zero line —
// and asserts the shared line is still all-zero afterwards. Before
// Peek returned copies, any caller mutating a never-written line's
// content would silently corrupt every other never-written address.
func TestZeroLineSurvivesFaultyRun(t *testing.T) {
	cfg := config.Default().WithVariant(config.RWoWRDE)
	cfg.Memory.VerifyWrites = true
	cfg.Memory.EnduranceBudget = 50
	cfg.Memory.DriftProb = 0.001
	s, err := New(WithConfig(cfg), WithWorkload("canneal"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(1000, 10000); err != nil {
		t.Fatal(err)
	}
	if !pcm.ZeroLineIntact() {
		t.Fatal("simulation mutated the shared never-written zero line")
	}
}

func TestUnknownMix(t *testing.T) {
	if _, err := New(WithConfig(config.Default()), WithWorkload("nope")); err == nil {
		t.Fatal("unknown mix should error")
	}
}
