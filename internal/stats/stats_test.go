package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"pcmap/internal/sim"
)

// approx compares floats the way the floatcmp analyzer demands even in
// tests: the expected values here are exactly representable, but the
// epsilon keeps the assertions robust to refactorings that reassociate
// the arithmetic.
func approx(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(9)
	for i := 0; i < 5; i++ {
		h.Add(1)
	}
	for i := 0; i < 5; i++ {
		h.Add(4)
	}
	if h.Total() != 10 || h.Count(1) != 5 || h.Count(4) != 5 {
		t.Fatalf("histogram counts wrong: %v", h.Buckets())
	}
	if !approx(h.Fraction(1), 0.5) {
		t.Fatalf("fraction %v", h.Fraction(1))
	}
	if !approx(h.MeanValue(), 2.5) {
		t.Fatalf("mean %v", h.MeanValue())
	}
}

func TestHistogramClamping(t *testing.T) {
	h := NewHistogram(4)
	h.Add(-5)
	h.Add(100)
	if h.Count(0) != 1 || h.Count(3) != 1 {
		t.Fatal("out-of-range samples must clamp")
	}
}

func TestLatencyTracker(t *testing.T) {
	l := NewLatencyTracker()
	for ns := 1; ns <= 100; ns++ {
		l.Add(sim.NS(float64(ns)))
	}
	if l.Count() != 100 {
		t.Fatalf("count %d", l.Count())
	}
	if got := l.MeanNS(); math.Abs(got-50.5) > 0.01 {
		t.Fatalf("mean %v, want 50.5", got)
	}
	if got := l.PercentileNS(50); got < 49 || got > 51 {
		t.Fatalf("p50 %v", got)
	}
	if got := l.PercentileNS(99); got < 98 || got > 100 {
		t.Fatalf("p99 %v", got)
	}
	if !approx(l.MaxNS(), 100) {
		t.Fatalf("max %v", l.MaxNS())
	}
}

func TestIRLPSingleWrite(t *testing.T) {
	x := NewIRLP()
	// One write [100,300) with 2 chips serving the whole window.
	x.AddWriteWindow(100, 300)
	x.AddChipService(100, 300)
	x.AddChipService(100, 300)
	x.Finalize(8)
	if got := x.Average(); math.Abs(got-2) > 1e-9 {
		t.Fatalf("IRLP %v, want 2", got)
	}
	if x.MaxBusy() != 2 {
		t.Fatalf("max busy %d", x.MaxBusy())
	}
	if x.WriteBusyTime() != 200 {
		t.Fatalf("busy time %v", x.WriteBusyTime())
	}
}

func TestIRLPReadOverlapRaisesParallelism(t *testing.T) {
	x := NewIRLP()
	x.AddWriteWindow(0, 200)
	x.AddChipService(0, 200) // the write's one essential chip
	// A read served on 7 chips during the first half of the write.
	for i := 0; i < 7; i++ {
		x.AddChipService(0, 100)
	}
	x.Finalize(8)
	// First half: 8 busy, second half: 1 busy -> average 4.5.
	if got := x.Average(); math.Abs(got-4.5) > 1e-9 {
		t.Fatalf("IRLP %v, want 4.5", got)
	}
	if x.MaxBusy() != 8 {
		t.Fatalf("max %d, want 8", x.MaxBusy())
	}
}

func TestIRLPServiceOutsideWriteWindowIgnored(t *testing.T) {
	x := NewIRLP()
	x.AddWriteWindow(100, 200)
	x.AddChipService(0, 100)   // entirely before
	x.AddChipService(200, 400) // entirely after
	x.AddChipService(100, 200) // inside
	x.Finalize(8)
	if got := x.Average(); math.Abs(got-1) > 1e-9 {
		t.Fatalf("IRLP %v, want 1 (outside-window service must not count)", got)
	}
}

func TestIRLPClampsToMaxChips(t *testing.T) {
	x := NewIRLP()
	x.AddWriteWindow(0, 100)
	for i := 0; i < 12; i++ {
		x.AddChipService(0, 100)
	}
	x.Finalize(8)
	if got := x.Average(); !approx(got, 8) {
		t.Fatalf("IRLP %v, want clamp at 8", got)
	}
}

func TestIRLPOverlappingWrites(t *testing.T) {
	x := NewIRLP()
	// Two writes overlapping: union window is [0, 300).
	x.AddWriteWindow(0, 200)
	x.AddWriteWindow(100, 300)
	x.AddChipService(0, 300)
	x.Finalize(8)
	if x.WriteBusyTime() != 300 {
		t.Fatalf("union window %v, want 300", x.WriteBusyTime())
	}
	if math.Abs(x.Average()-1) > 1e-9 {
		t.Fatalf("average %v", x.Average())
	}
}

func TestIRLPProperty(t *testing.T) {
	// Property: IRLP average is bounded by the clamp and by the peak
	// number of concurrently recorded services.
	if err := quick.Check(func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		x := NewIRLP()
		n := 1 + rng.Intn(20)
		for i := 0; i < n; i++ {
			s := sim.Time(rng.Intn(1000))
			x.AddWriteWindow(s, s+sim.Time(1+rng.Intn(200)))
			for j := 0; j < rng.Intn(4); j++ {
				cs := sim.Time(rng.Intn(1200))
				x.AddChipService(cs, cs+sim.Time(1+rng.Intn(100)))
			}
		}
		x.Finalize(8)
		return x.Average() >= 0 && x.Average() <= 8 && x.MaxBusy() <= 8
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "Demo", Headers: []string{"a", "b"}}
	tb.AddRow("1", "2")
	md := tb.Markdown()
	if !strings.Contains(md, "| a | b |") || !strings.Contains(md, "| 1 | 2 |") {
		t.Fatalf("markdown:\n%s", md)
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "a,b\n1,2\n") {
		t.Fatalf("csv:\n%s", csv)
	}
}

func TestMeans(t *testing.T) {
	if got := ArithMean([]float64{1, 2, 3}); !approx(got, 2) {
		t.Fatalf("arithmean %v", got)
	}
	if !approx(ArithMean(nil), 0) {
		t.Fatal("empty input should give 0")
	}
	var m Mean
	m.Add(10)
	m.Add(20)
	if !approx(m.Value(), 15) || m.Count() != 2 {
		t.Fatalf("mean %v/%d", m.Value(), m.Count())
	}
}
