package workloads

import (
	"math"
	"testing"

	"pcmap/internal/sim"
)

func TestAllProfilesWellFormed(t *testing.T) {
	for _, name := range Names() {
		p := MustByName(name)
		if p.Name != name {
			t.Fatalf("%s: name mismatch %q", name, p.Name)
		}
		if p.MemOpsPerKI <= 0 || p.MemOpsPerKI >= 1000 {
			t.Fatalf("%s: MemOpsPerKI %v out of range", name, p.MemOpsPerKI)
		}
		if p.StoreFrac <= 0 || p.StoreFrac >= 1 {
			t.Fatalf("%s: StoreFrac %v", name, p.StoreFrac)
		}
		if p.BaseCPI < 0.25 {
			t.Fatalf("%s: BaseCPI %v below issue-width floor", name, p.BaseCPI)
		}
		var sum float64
		for _, f := range p.DirtyWordDist {
			if f < 0 {
				t.Fatalf("%s: negative dirty-word probability", name)
			}
			sum += f
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("%s: dirty-word distribution sums to %v", name, sum)
		}
		if p.FootprintLines == 0 {
			t.Fatalf("%s: zero footprint", name)
		}
		if p.RPKI <= 0 || p.WPKI <= 0 {
			t.Fatalf("%s: non-positive intensity targets", name)
		}
	}
}

func TestFigure2Anchors(t *testing.T) {
	// The paper's two quoted anchors.
	cactus := MustByName("cactusADM")
	if f := cactus.DirtyWordDist[1]; f < 0.45 || f > 0.55 {
		t.Fatalf("cactusADM 1-word fraction %.2f, want ~0.52", f)
	}
	omnet := MustByName("omnetpp")
	if f := omnet.DirtyWordDist[1]; f < 0.10 || f > 0.18 {
		t.Fatalf("omnetpp 1-word fraction %.2f, want ~0.14", f)
	}
	// "77-99% of write-backs have fewer than 4 words dirty" — check a
	// representative majority, counting silent write-backs like the
	// paper's Figure 2 does.
	for _, name := range SPECNames() {
		p := MustByName(name)
		var under4 float64
		for k := 0; k <= 3; k++ {
			under4 += p.DirtyWordDist[k]
		}
		if under4 < 0.5 {
			t.Fatalf("%s: under-4-words mass %.2f implausibly low", name, under4)
		}
	}
}

func TestGeneratorGapRate(t *testing.T) {
	p := MustByName("astar")
	g := NewGenerator(p, 0, sim.NewRNG(1), nil)
	var ops, instrs uint64
	var op Op
	for i := 0; i < 200000; i++ {
		g.Next(&op)
		ops++
		instrs += uint64(op.Gap) + 1
	}
	memPerKI := float64(ops) / float64(instrs) * 1000
	// RFO follow-ups add a few ops beyond MemOpsPerKI.
	if memPerKI < p.MemOpsPerKI*0.95 || memPerKI > p.MemOpsPerKI*1.25 {
		t.Fatalf("mem ops per KI %.1f, profile says %.1f", memPerKI, p.MemOpsPerKI)
	}
}

func TestGeneratorPCMRates(t *testing.T) {
	// The op stream's PCM-bound rates should track the RPKI/WPKI
	// targets before any cache effects.
	for _, name := range []string{"canneal", "astar", "freqmine", "mcf"} {
		p := MustByName(name)
		g := NewGenerator(p, 0, sim.NewRNG(7), nil)
		var instrs, ntWrites, memReads uint64
		var op Op
		for i := 0; i < 500000; i++ {
			g.Next(&op)
			instrs += uint64(op.Gap) + 1
			if op.Store && op.NonTemporal {
				ntWrites++
			}
			if !op.Store && op.NonTemporal {
				memReads++
			}
		}
		ki := float64(instrs) / 1000
		wpki := float64(ntWrites) / ki
		rpki := float64(memReads) / ki
		if wpki < p.WPKI*0.7 || wpki > p.WPKI*1.3 {
			t.Fatalf("%s: generated WPKI %.2f, target %.2f", name, wpki, p.WPKI)
		}
		if rpki < p.RPKI*0.7 || rpki > p.RPKI*1.3 {
			t.Fatalf("%s: generated RPKI %.2f, target %.2f", name, rpki, p.RPKI)
		}
	}
}

func TestGeneratorDirtyWordDistribution(t *testing.T) {
	p := MustByName("cactusADM")
	g := NewGenerator(p, 0, sim.NewRNG(3), nil)
	counts := make([]int, 9)
	var op Op
	n := 0
	for i := 0; i < 3_000_000 && n < 20000; i++ {
		g.Next(&op)
		if op.Store && op.NonTemporal {
			counts[popcount8(op.EssMask)]++
			n++
		}
	}
	if n < 5000 {
		t.Fatalf("too few PCM writes generated: %d", n)
	}
	oneWord := float64(counts[1]) / float64(n)
	if oneWord < 0.42 || oneWord > 0.62 {
		t.Fatalf("cactusADM 1-word write-backs %.2f, want ~0.52", oneWord)
	}
}

func popcount8(x uint8) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

func TestPatternStability(t *testing.T) {
	p := MustByName("astar")
	g := NewGenerator(p, 0, sim.NewRNG(9), nil)
	m1 := g.patternFor(0x1000)
	m2 := g.patternFor(0x1000)
	if m1 != m2 {
		t.Fatal("pattern for a line must be stable")
	}
}

func TestOffsetSkewBiasesLowWords(t *testing.T) {
	p := MustByName("astar")
	g := NewGenerator(p, 0, sim.NewRNG(11), nil)
	low, high := 0, 0
	for i := 0; i < 20000; i++ {
		off := g.sampleOffset()
		if off < 4 {
			low++
		} else {
			high++
		}
	}
	if low <= high*2 {
		t.Fatalf("offset skew too weak: low=%d high=%d", low, high)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	p := MustByName("canneal")
	g1 := NewGenerator(p, 0, sim.NewRNG(5), nil)
	g2 := NewGenerator(p, 0, sim.NewRNG(5), nil)
	var a, b Op
	for i := 0; i < 10000; i++ {
		g1.Next(&a)
		g2.Next(&b)
		if a != b {
			t.Fatalf("streams diverged at op %d: %+v vs %+v", i, a, b)
		}
	}
}

// TestPatternMapCapBounded pins the 64K-entry bound of the per-line
// write-pattern memo: crossing it must reset the map (patterns
// re-sample) without ever letting it grow past the cap.
func TestPatternMapCapBounded(t *testing.T) {
	p := MustByName("canneal")
	g := NewGenerator(p, 0, sim.NewRNG(23), nil)
	resets := 0
	for line := uint64(0); line < 3<<16; line++ {
		before := g.patterns.Len()
		g.patternFor(line * 64)
		if g.patterns.Len() > 1<<16 {
			t.Fatalf("pattern map grew past the 64K cap: %d entries", g.patterns.Len())
		}
		if g.patterns.Len() < before {
			resets++
		}
	}
	if resets != 2 {
		t.Fatalf("%d memo resets over 3x64K distinct lines, want 2", resets)
	}
	// The reset map must still memoize.
	m1 := g.patternFor(99 * 64)
	if m2 := g.patternFor(99 * 64); m2 != m1 {
		t.Fatalf("pattern not remembered after cap reset: %#x then %#x", m1, m2)
	}
}

// TestDeterministicAcrossPatternCap drives two identically-seeded
// generators through the pattern-map cap boundary and far beyond it:
// the memo reset must never perturb the op stream.
func TestDeterministicAcrossPatternCap(t *testing.T) {
	p := MustByName("canneal")
	g1 := NewGenerator(p, 0, sim.NewRNG(31), nil)
	g2 := NewGenerator(p, 0, sim.NewRNG(31), nil)
	for line := uint64(0); line < 2<<16; line++ {
		if a, b := g1.patternFor(line*64), g2.patternFor(line*64); a != b {
			t.Fatalf("pattern streams diverged at line %d: %#x vs %#x", line, a, b)
		}
	}
	var a, b Op
	for i := 0; i < 5000; i++ {
		g1.Next(&a)
		g2.Next(&b)
		if a != b {
			t.Fatalf("op streams diverged at op %d: %+v vs %+v", i, a, b)
		}
	}
}

// TestPatternForAllocFreeWarm pins the steady-state mask path: looking
// up an already-sampled line's pattern allocates nothing.
func TestPatternForAllocFreeWarm(t *testing.T) {
	p := MustByName("canneal")
	g := NewGenerator(p, 0, sim.NewRNG(37), nil)
	for line := uint64(0); line < 1024; line++ {
		g.patternFor(line * 64)
	}
	var line uint64
	if n := testing.AllocsPerRun(1000, func() {
		g.patternFor((line & 1023) * 64)
		line++
	}); n != 0 {
		t.Fatalf("warm patternFor allocated %.1f/op, want 0", n)
	}
}

func TestPrivateRegionsDisjoint(t *testing.T) {
	for _, name := range Names() {
		p := MustByName(name)
		for core := 0; core < 8; core++ {
			g := NewGenerator(p, core, sim.NewRNG(1), nil)
			base, lines := g.LLCPoolRange()
			end := base + uint64(lines)*64
			nextBase := uint64(core+2) << 29
			if end > nextBase {
				t.Fatalf("%s core %d: region [%#x,%#x) spills into core %d's base %#x",
					name, core, g.base, end, core+1, nextBase)
			}
		}
	}
}

func TestMixDefinitions(t *testing.T) {
	for _, n := range EvaluationSet() {
		m := MustMix(n)
		if len(m.PerCore) != 8 {
			t.Fatalf("%s: %d cores", n, len(m.PerCore))
		}
		for _, pn := range m.PerCore {
			if _, ok := ByName(pn); !ok {
				t.Fatalf("%s references unknown profile %s", n, pn)
			}
		}
	}
	mt := MustMix("canneal")
	if !mt.Multithreaded {
		t.Fatal("canneal must be multithreaded")
	}
	mp := MustMix("MP1")
	if mp.Multithreaded {
		t.Fatal("MP1 must not be multithreaded")
	}
	if mp.PerCore[0] != "mcf" || mp.PerCore[1] != "mcf" || mp.PerCore[2] != "gemsFDTD" {
		t.Fatalf("MP1 composition wrong: %v", mp.PerCore)
	}
}

func TestHomogeneousMixFallback(t *testing.T) {
	m, ok := MixByName("lbm")
	if !ok {
		t.Fatal("profile name should resolve to a rate-mode mix")
	}
	if m.Multithreaded {
		t.Fatal("fallback mixes are independent copies")
	}
	if len(m.PerCore) != 8 {
		t.Fatalf("%d cores", len(m.PerCore))
	}
	if _, ok := MixByName("not-a-workload"); ok {
		t.Fatal("unknown name should not resolve")
	}
}

func TestAggregateRPKIWPKI(t *testing.T) {
	m := MustMix("MP4") // 8x astar
	rp, wp := m.AggregateRPKIWPKI()
	astar := MustByName("astar")
	if math.Abs(rp-astar.RPKI) > 1e-9 || math.Abs(wp-astar.WPKI) > 1e-9 {
		t.Fatalf("homogeneous aggregate (%.2f,%.2f) != profile (%.2f,%.2f)", rp, wp, astar.RPKI, astar.WPKI)
	}
}
