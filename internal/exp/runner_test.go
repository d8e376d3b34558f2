package exp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pcmap/internal/config"
	"pcmap/internal/mem"
	"pcmap/internal/system"
)

// fakeResults builds a minimal Results for simulate-hook tests.
func fakeResults(s Spec) *system.Results {
	return &system.Results{Workload: s.Workload, Variant: s.Variant,
		IPCSum: 1, Mem: mem.NewMetrics()}
}

// TestSingleFlight is the duplicate-execution regression test for the
// old check-then-execute race: N concurrent Run calls for one Spec must
// execute exactly one simulation, and every caller must receive that
// one result. Run under -race this also exercises the memo locking.
func TestSingleFlight(t *testing.T) {
	r := testRunner()
	var executions int32
	r.simulate = func(_ context.Context, cfg *config.Config, workload string, warmup, measure uint64) (*system.Results, error) {
		atomic.AddInt32(&executions, 1)
		// Widen the window in which the old code let a second worker
		// slip past the memo check while the first was simulating.
		time.Sleep(20 * time.Millisecond)
		return fakeResults(Spec{Workload: workload}), nil
	}

	s := Spec{Workload: "MP4", Variant: config.Baseline}
	const callers = 16
	results := make([]*system.Results, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := r.Run(s)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	if n := atomic.LoadInt32(&executions); n != 1 {
		t.Fatalf("%d executions for one spec, want exactly 1", n)
	}
	for i, res := range results {
		if res != results[0] {
			t.Fatalf("caller %d got a different result pointer", i)
		}
	}
}

// TestRunAllHaltsOnFirstError pins the documented dispatch contract:
// after a worker fails, no further spec may start executing.
func TestRunAllHaltsOnFirstError(t *testing.T) {
	r := testRunner()
	r.Parallelism = 1
	var executions int32
	r.simulate = func(_ context.Context, cfg *config.Config, workload string, warmup, measure uint64) (*system.Results, error) {
		n := atomic.AddInt32(&executions, 1)
		if n == 3 {
			return nil, errors.New("boom")
		}
		return fakeResults(Spec{Workload: workload}), nil
	}
	specs := make([]Spec, 20)
	for i := range specs {
		specs[i] = Spec{Workload: fmt.Sprintf("w%d", i)}
	}
	err := r.RunAll(context.Background(), specs)
	if err == nil {
		t.Fatal("RunAll must report the failure")
	}
	if !strings.Contains(err.Error(), "boom") {
		t.Fatalf("error %q does not carry the worker failure", err)
	}
	if n := atomic.LoadInt32(&executions); n != 3 {
		t.Fatalf("%d executions, want exactly 3 (dispatch must halt at the failure)", n)
	}
}

// TestRunAllJoinsWorkerErrors verifies concurrent failures are all
// reported, not just whichever error wins a channel race.
func TestRunAllJoinsWorkerErrors(t *testing.T) {
	r := testRunner()
	r.Parallelism = 2
	var barrier sync.WaitGroup
	barrier.Add(2)
	r.simulate = func(_ context.Context, cfg *config.Config, workload string, warmup, measure uint64) (*system.Results, error) {
		// Both workers must be mid-execution before either fails, so
		// neither failure can halt the other's dispatch.
		barrier.Done()
		barrier.Wait()
		return nil, fmt.Errorf("fail-%s", workload)
	}
	err := r.RunAll(context.Background(), []Spec{{Workload: "a"}, {Workload: "b"}})
	if err == nil {
		t.Fatal("RunAll must fail")
	}
	for _, want := range []string{"fail-a", "fail-b"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error %q is missing %q", err, want)
		}
	}
}

// TestRunAllCancellation cancels mid-sweep and asserts no further
// dispatch: the first execution cancels the context, so exactly one
// simulation may run.
func TestRunAllCancellation(t *testing.T) {
	r := testRunner()
	r.Parallelism = 1
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var executions int32
	r.simulate = func(_ context.Context, cfg *config.Config, workload string, warmup, measure uint64) (*system.Results, error) {
		atomic.AddInt32(&executions, 1)
		cancel() // the user hits ^C while the first sim runs
		return fakeResults(Spec{Workload: workload}), nil
	}
	specs := make([]Spec, 10)
	for i := range specs {
		specs[i] = Spec{Workload: fmt.Sprintf("w%d", i)}
	}
	err := r.RunAll(ctx, specs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := atomic.LoadInt32(&executions); n != 1 {
		t.Fatalf("%d executions after cancellation, want 1 (no further dispatch)", n)
	}
	// The completed run must still be memoized: cancellation keeps
	// partial results.
	if _, err := r.Run(specs[0]); err != nil {
		t.Fatalf("completed pre-cancellation run lost: %v", err)
	}
	if n := atomic.LoadInt32(&executions); n != 1 {
		t.Fatalf("re-requesting the completed spec re-executed it (%d executions)", n)
	}
}

// TestRunnerKeysByResolvedConfig checks that the memo is keyed by the
// machine a Spec resolves to, not by the Spec: Specs that spell the
// Table I machine differently share one execution, and an invalid
// ratio is rejected before anything runs.
func TestRunnerKeysByResolvedConfig(t *testing.T) {
	r := testRunner()
	var executions int32
	r.simulate = func(_ context.Context, cfg *config.Config, workload string, warmup, measure uint64) (*system.Results, error) {
		atomic.AddInt32(&executions, 1)
		return fakeResults(Spec{Workload: workload, Variant: cfg.Variant}), nil
	}
	same := []Spec{
		{Workload: "MP4", Variant: config.Baseline},
		{Workload: "MP4", Variant: config.Baseline, WriteToReadRatio: 2},
		{Workload: "MP4", Variant: config.Baseline, Seed: 1},
	}
	for _, s := range same {
		if _, err := r.Run(s); err != nil {
			t.Fatal(err)
		}
	}
	if n := atomic.LoadInt32(&executions); n != 1 {
		t.Fatalf("%d executions for three spellings of one machine, want 1", n)
	}
	if _, err := r.Run(Spec{Workload: "MP4", Variant: config.Baseline, WriteToReadRatio: 4}); err != nil {
		t.Fatal(err)
	}
	if n := atomic.LoadInt32(&executions); n != 2 {
		t.Fatalf("%d executions, want 2: a 4x ratio is a different machine", n)
	}
	for _, ratio := range []float64{-1, math.NaN(), math.Inf(1), 1e-30} {
		if _, err := r.Run(Spec{Workload: "MP4", WriteToReadRatio: ratio}); err == nil {
			t.Errorf("ratio %g accepted", ratio)
		}
	}
	if n := atomic.LoadInt32(&executions); n != 2 {
		t.Fatalf("%d executions, want 2: invalid ratios must not simulate", n)
	}
}

// TestSpecValidate checks that Validate answers what a Run would: nil
// for a runnable spec, resolve's error for each invalid knob.
func TestSpecValidate(t *testing.T) {
	if err := (Spec{Workload: "MP4", Variant: config.RWoWRDE, FaultMode: "always", DriftProb: 0.5}).Validate(); err != nil {
		t.Fatalf("valid spec: %v", err)
	}
	for _, s := range []Spec{
		{Workload: "MP4", FaultMode: "sometimes"},
		{Workload: "MP4", DriftProb: 1.5},
		{Workload: "MP4", DriftProb: math.NaN()},
		{Workload: "MP4", WriteToReadRatio: -1},
	} {
		err := s.Validate()
		if err == nil {
			t.Errorf("%+v validated", s)
			continue
		}
		if _, rerr := testRunner().Run(s); rerr == nil || rerr.Error() != err.Error() {
			t.Errorf("%+v: Validate says %v, Run says %v", s, err, rerr)
		}
	}
}

// TestRenderPlansThenRuns drives the render helper with a draw whose
// second run depends on the first run's result. The placeholder pass
// cannot see that dependency, so the dependent run executes on demand
// in the final pass; every run still executes exactly once.
func TestRenderPlansThenRuns(t *testing.T) {
	r := testRunner()
	var executions int32
	r.simulate = func(_ context.Context, cfg *config.Config, workload string, warmup, measure uint64) (*system.Results, error) {
		atomic.AddInt32(&executions, 1)
		return fakeResults(Spec{Workload: workload}), nil
	}
	var b *system.Results
	draw := func(get getFunc) (*FigureResult, error) {
		a := get(Spec{Workload: "a"})
		get(Spec{Workload: "a", Seed: 1}) // the same run, spelled differently
		if a.IPCSum > 0 {
			b = get(Spec{Workload: "b"})
		}
		return newFigure("t", "t", ""), nil
	}
	if _, err := r.render(context.Background(), draw); err != nil {
		t.Fatal(err)
	}
	if b == nil || b.Workload != "b" {
		t.Fatalf("dependent run not rendered: %+v", b)
	}
	if n := atomic.LoadInt32(&executions); n != 2 {
		t.Fatalf("%d executions, want 2", n)
	}
}

// TestAblationsShareTheRunner runs the ablation sweep through a counting
// hook: settings equal to Table I collapse onto the variant's plain run,
// leaving 17 distinct simulations, and a repeat is served from the memo.
func TestAblationsShareTheRunner(t *testing.T) {
	r := testRunner()
	var executions int32
	r.simulate = func(_ context.Context, cfg *config.Config, workload string, warmup, measure uint64) (*system.Results, error) {
		atomic.AddInt32(&executions, 1)
		return fakeResults(Spec{Workload: workload, Variant: cfg.Variant}), nil
	}
	f, err := Ablations(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Table.Rows) != 22 {
		t.Fatalf("%d ablation rows, want 22", len(f.Table.Rows))
	}
	if n := atomic.LoadInt32(&executions); n != 17 {
		t.Fatalf("%d executions, want 17 distinct ablation runs", n)
	}
	if _, err := Ablations(context.Background(), r); err != nil {
		t.Fatal(err)
	}
	if n := atomic.LoadInt32(&executions); n != 17 {
		t.Fatalf("repeat executed %d more runs, want 0", n-17)
	}
}

// TestRunnerCountsInstructions: the runner totals each executed run's
// simulated instructions, every core's warmup budget plus its measured
// instructions, and leaves memoized lookups out.
func TestRunnerCountsInstructions(t *testing.T) {
	r := testRunner()
	r.simulate = func(_ context.Context, cfg *config.Config, workload string, warmup, measure uint64) (*system.Results, error) {
		res := fakeResults(Spec{Workload: workload})
		res.IPCPerCore = make([]float64, 8)
		res.Instructions = 8 * measure
		return res, nil
	}
	for i := 0; i < 2; i++ {
		if _, err := r.Run(Spec{Workload: "MP4"}); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := r.Instructions(), 8*(r.Warmup+r.Measure); got != want {
		t.Fatalf("Instructions() = %d, want %d", got, want)
	}
}

// TestRunnerSeedFillsUnseededSpecs: the runner's seed reaches every run
// whose Spec leaves Seed 0, through Run and through an experiment's
// render alike, and a Spec's own seed wins over it.
func TestRunnerSeedFillsUnseededSpecs(t *testing.T) {
	r := testRunner()
	r.Seed = 7
	var mu sync.Mutex
	seeds := map[uint64]int{}
	r.simulate = func(_ context.Context, cfg *config.Config, workload string, warmup, measure uint64) (*system.Results, error) {
		mu.Lock()
		seeds[cfg.Seed]++
		mu.Unlock()
		return fakeResults(Spec{Workload: workload}), nil
	}
	if _, err := r.Run(Spec{Workload: "MP4", Variant: config.Baseline}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(Spec{Workload: "MP4", Variant: config.Baseline, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := Fig1(context.Background(), r); err != nil {
		t.Fatal(err)
	}
	if seeds[3] != 1 || seeds[7] < 2 || len(seeds) != 2 {
		t.Fatalf("runs by seed %v; want one at the spec's seed 3 and every other at the runner's 7", seeds)
	}
}

// TestRunnerKeysByBudgets: one Spec at two budgets is two runs on one
// runner. Each simulates once, a repeat is memoized, and each result
// equals what a runner with those budgets as its own computes.
func TestRunnerKeysByBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations")
	}
	shared := testRunner()
	var executions int32
	shared.simulate = func(ctx context.Context, cfg *config.Config, workload string, warmup, measure uint64) (*system.Results, error) {
		atomic.AddInt32(&executions, 1)
		return shared.defaultSimulate(ctx, cfg, workload, warmup, measure)
	}
	s := Spec{Workload: "MP4", Variant: config.RWoWRDE}
	budgets := [][2]uint64{{500, 4_000}, {500, 8_000}}
	got := make([]*system.Results, len(budgets))
	for round := 0; round < 2; round++ {
		for i, b := range budgets {
			s.Warmup, s.Measure = b[0], b[1]
			res, err := shared.Run(s)
			if err != nil {
				t.Fatal(err)
			}
			if round == 1 && res != got[i] {
				t.Fatalf("budgets %v: repeat not served from the memo", b)
			}
			got[i] = res
		}
	}
	if n := atomic.LoadInt32(&executions); n != 2 {
		t.Fatalf("%d simulations for one spec at two budgets, want 2", n)
	}
	if shared.MemoLen() != 2 {
		t.Fatalf("memo holds %d runs, want 2", shared.MemoLen())
	}
	for i, b := range budgets {
		single := NewRunner()
		single.Warmup, single.Measure = b[0], b[1]
		want, err := single.Run(Spec{Workload: s.Workload, Variant: s.Variant})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("budgets %v: shared runner's result differs from a single-budget runner's", b)
		}
	}
	if reflect.DeepEqual(got[0], got[1]) {
		t.Error("the two budgets produced equal results")
	}
}

// TestRunAllAccountingUnderRace is the lock-discipline test for the
// runner's mu: a parallel sweep with a disk cache, run cold and then
// resumed on a fresh runner, while one goroutine per accessor polls
// Totals, Instructions, CacheHits and MemoLen. Under -race, any access
// to the memo, the single-flight map or the throughput counters that
// skips mu is reported.
func TestRunAllAccountingUnderRace(t *testing.T) {
	cache, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]Spec, 32)
	for i := range specs {
		specs[i] = Spec{Workload: fmt.Sprintf("w%d", i)}
	}
	for pass, resume := range []bool{false, true} {
		r := testRunner()
		r.Parallelism, r.Cache, r.Resume = 4, cache, resume
		r.simulate = func(_ context.Context, cfg *config.Config, workload string, warmup, measure uint64) (*system.Results, error) {
			time.Sleep(time.Millisecond)
			res := fakeResults(Spec{Workload: workload})
			res.IPCPerCore = make([]float64, 8)
			res.Instructions = 8 * measure
			return res, nil
		}
		stop := make(chan struct{})
		var polls sync.WaitGroup
		for _, poll := range []func(){
			func() { r.Totals() },
			func() { r.Instructions() },
			func() { r.CacheHits() },
			func() { r.MemoLen() },
		} {
			polls.Add(1)
			go func() {
				defer polls.Done()
				for {
					select {
					case <-stop:
						return
					default:
						poll()
					}
				}
			}()
		}
		err := r.RunAll(context.Background(), specs)
		close(stop)
		polls.Wait()
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		sims, _, _ := r.Totals()
		wantSims, wantHits := uint64(len(specs)), uint64(0)
		if resume {
			wantSims, wantHits = 0, uint64(len(specs))
		}
		if sims != wantSims || r.CacheHits() != wantHits || r.MemoLen() != len(specs) {
			t.Errorf("pass %d: %d sims, %d cache hits, %d memoized; want %d, %d and %d",
				pass, sims, r.CacheHits(), r.MemoLen(), wantSims, wantHits, len(specs))
		}
		if got, want := r.Instructions(), wantSims*8*(r.Warmup+r.Measure); got != want {
			t.Errorf("pass %d: Instructions() = %d, want %d", pass, got, want)
		}
	}
}
