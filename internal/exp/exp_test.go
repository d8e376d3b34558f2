package exp

import (
	"context"
	"testing"

	"pcmap/internal/config"
)

// testRunner keeps budgets small: these tests check plumbing and
// directional results, not publication numbers.
func testRunner() *Runner {
	r := NewRunner()
	r.Warmup, r.Measure = 5_000, 30_000
	return r
}

func TestRunnerMemoizes(t *testing.T) {
	r := testRunner()
	s := Spec{Workload: "MP4", Variant: config.Baseline}
	a, err := r.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical specs must return the memoized result")
	}
}

func TestRunnerDeterministic(t *testing.T) {
	s := Spec{Workload: "MP5", Variant: config.RWoWRDE}
	a, err := testRunner().Run(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := testRunner().Run(s)
	if err != nil {
		t.Fatal(err)
	}
	//pcmaplint:ignore floatcmp determinism means bit-identical floats, an epsilon would mask regressions
	if a.IPCSum != b.IPCSum || a.IRLPAvg != b.IRLPAvg ||
		a.Mem.Reads.Value() != b.Mem.Reads.Value() {
		t.Fatalf("same spec, different results: IPC %.6f vs %.6f, IRLP %.6f vs %.6f",
			a.IPCSum, b.IPCSum, a.IRLPAvg, b.IRLPAvg)
	}
}

func TestRunnerRejectsUnknownWorkload(t *testing.T) {
	if _, err := testRunner().Run(Spec{Workload: "nope"}); err == nil {
		t.Fatal("unknown workload must error")
	}
}

func TestRunAllParallel(t *testing.T) {
	r := testRunner()
	r.Parallelism = 4
	specs := []Spec{
		{Workload: "MP4", Variant: config.Baseline},
		{Workload: "MP4", Variant: config.RWoWRDE},
		{Workload: "dedup", Variant: config.Baseline},
		{Workload: "dedup", Variant: config.RWoWRDE},
	}
	if err := r.RunAll(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		res, err := r.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if res.IPCSum <= 0 {
			t.Fatalf("%v: no result", s)
		}
	}
}

func TestSpecConfigMapping(t *testing.T) {
	cfg, err := configFor(Spec{Workload: "x", Variant: config.RWoWRDE, WriteToReadRatio: 4, FaultMode: "always"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Variant != config.RWoWRDE {
		t.Fatal("variant not applied")
	}
	if got := cfg.Memory.WriteToReadRatio(); got < 3.9 || got > 4.1 {
		t.Fatalf("ratio %v, want 4", got)
	}
	if cfg.Memory.FaultMode != "always" {
		t.Fatal("fault mode not applied")
	}
	sym, err := configFor(Spec{Symmetric: true})
	if err != nil {
		t.Fatal(err)
	}
	if sym.Memory.Timing.CellSET != sym.Memory.Timing.ArrayRead {
		t.Fatal("symmetric spec must equalize write and read latency")
	}
}

func TestHeadlineDirections(t *testing.T) {
	// The reproduction's core claim at reduced budgets: PCMap raises
	// IRLP and IPC over the baseline on the paper's most intense
	// workload pair.
	r := testRunner()
	for _, w := range []string{"canneal", "MP4"} {
		base, err := r.Run(Spec{Workload: w, Variant: config.Baseline})
		if err != nil {
			t.Fatal(err)
		}
		full, err := r.Run(Spec{Workload: w, Variant: config.RWoWRDE})
		if err != nil {
			t.Fatal(err)
		}
		if full.IRLPAvg <= base.IRLPAvg {
			t.Errorf("%s: IRLP %.2f -> %.2f did not improve", w, base.IRLPAvg, full.IRLPAvg)
		}
		if full.IPCSum <= base.IPCSum {
			t.Errorf("%s: IPC %.3f -> %.3f did not improve", w, base.IPCSum, full.IPCSum)
		}
	}
}

func TestFig1Shape(t *testing.T) {
	r := testRunner()
	// Run only two programs to keep the test quick: patch via direct
	// spec runs, mirroring Fig1's computation.
	for _, app := range []string{"cactusADM", "gromacs"} {
		asym, err := r.Run(Spec{Workload: app, Variant: config.Baseline})
		if err != nil {
			t.Fatal(err)
		}
		symm, err := r.Run(Spec{Workload: app, Variant: config.Baseline, Symmetric: true})
		if err != nil {
			t.Fatal(err)
		}
		if asym.Mem.ReadLatency.MeanNS() <= symm.Mem.ReadLatency.MeanNS() {
			t.Errorf("%s: asymmetric writes should inflate read latency (%.1f vs %.1f)",
				app, asym.Mem.ReadLatency.MeanNS(), symm.Mem.ReadLatency.MeanNS())
		}
	}
}

func TestFigureResultSeries(t *testing.T) {
	f := newFigure("x", "t")
	f.set("row", "col", 1.5)
	//pcmaplint:ignore floatcmp round-trip of a stored value, no arithmetic between set and get
	if f.Series["row"]["col"] != 1.5 {
		t.Fatal("series not recorded")
	}
}
