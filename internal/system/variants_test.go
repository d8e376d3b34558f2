package system

import (
	"testing"

	"pcmap/internal/config"
)

// TestPALPSmokeRun runs the PALP variant end-to-end on a write-heavy
// mix and asserts the partition machinery actually fires: partition
// overlaps are the accesses served only because the conflicting work
// sat in a different partition of the same bank, so on a write-heavy
// workload they must be strictly positive — and PALP must see at least
// as many read/write overlaps as the whole-bank RWoW-RDE scheduler.
func TestPALPSmokeRun(t *testing.T) {
	rde, err := New(WithConfig(config.Default().WithVariant(config.RWoWRDE)), WithWorkload("MP6"))
	if err != nil {
		t.Fatal(err)
	}
	rdeRes, err := rde.Run(20000, 100000)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(WithConfig(config.Default().WithVariant(config.PALP)), WithWorkload("MP6"))
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
	parts := r.Mem.PartOverlapReads.Value() + r.Mem.PartOverlapWrites.Value()
	if parts == 0 {
		t.Fatal("PALP on a write-heavy mix must record partition overlaps")
	}
	if got, base := r.Mem.OverlapReads.Value(), rdeRes.Mem.OverlapReads.Value(); got < base {
		t.Fatalf("PALP overlap reads %d < RWoW-RDE's %d", got, base)
	}
	t.Logf("IPCsum=%.2f partOverlapReads=%d partOverlapWrites=%d (RDE overlapReads=%d, PALP=%d)",
		r.IPCSum, r.Mem.PartOverlapReads.Value(), r.Mem.PartOverlapWrites.Value(),
		rdeRes.Mem.OverlapReads.Value(), r.Mem.OverlapReads.Value())
}

// TestPaperVariantsNeverPartition asserts the six paper variants never
// record a partition overlap: their banks are monolithic, so the
// partition-granular scheduler must reduce exactly to the whole-bank
// one (the structural half of the byte-identity guarantee).
func TestPaperVariantsNeverPartition(t *testing.T) {
	for _, v := range config.Variants {
		s, err := New(WithConfig(config.Default().WithVariant(v)), WithWorkload("MP6"))
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run(5000, 40000)
		if err != nil {
			t.Fatal(err)
		}
		if n := r.Mem.PartOverlapReads.Value() + r.Mem.PartOverlapWrites.Value(); n != 0 {
			t.Fatalf("%s recorded %d partition overlaps; paper variants must have none", v, n)
		}
	}
}

// TestDCASmokeRun runs the content-aware variant end-to-end: the
// SET/RESET histograms must populate, and because the DCA programming
// time never exceeds the worst-case WriteLatency, write throughput
// must not fall below RWoW-RDE's on the same workload and budgets.
func TestDCASmokeRun(t *testing.T) {
	rde, err := New(WithConfig(config.Default().WithVariant(config.RWoWRDE)), WithWorkload("MP6"))
	if err != nil {
		t.Fatal(err)
	}
	rdeRes, err := rde.Run(20000, 100000)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(WithConfig(config.Default().WithVariant(config.RWoWDCA)), WithWorkload("MP6"))
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
	if r.Mem.SetBits == nil || r.Mem.SetBits.Total() == 0 {
		t.Fatal("DCA run must populate the SET-bit histogram")
	}
	if r.Mem.SetBits.Total() != r.Mem.ResetBits.Total() {
		t.Fatalf("histograms out of step: %d SET samples, %d RESET samples",
			r.Mem.SetBits.Total(), r.Mem.ResetBits.Total())
	}
	if got, base := r.Mem.WriteThroughput(), rdeRes.Mem.WriteThroughput(); got < base*0.99 {
		t.Fatalf("DCA write throughput %.2f/us below RWoW-RDE's %.2f/us", got, base)
	}
	t.Logf("IPCsum=%.2f meanSET=%.1f meanRESET=%.1f writeTput=%.2f/us (RDE %.2f/us)",
		r.IPCSum, r.Mem.SetBits.MeanValue(), r.Mem.ResetBits.MeanValue(),
		r.Mem.WriteThroughput(), rdeRes.Mem.WriteThroughput())
}

// TestPaperVariantsSkipDCAHistograms asserts the six paper variants
// never sample the content-aware histograms (the observation itself is
// gated on the capability, keeping their hot path untouched).
func TestPaperVariantsSkipDCAHistograms(t *testing.T) {
	s, err := New(WithConfig(config.Default().WithVariant(config.RWoWRDE)), WithWorkload("MP6"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run(5000, 40000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Mem.SetBits.Total() != 0 || r.Mem.ResetBits.Total() != 0 {
		t.Fatal("non-ContentAware variants must not sample the bit histograms")
	}
}
