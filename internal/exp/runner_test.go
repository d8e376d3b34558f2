package exp

import (
	"context"
	"errors"
	"fmt"
	"math"
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

// TestRunRetries covers the bounded-retry path: a transient failure is
// retried up to Retries times, and the budget is respected.
func TestRunRetries(t *testing.T) {
	cases := []struct {
		name         string
		retries      int
		failFirst    int32 // number of leading attempts that fail
		wantErr      bool
		wantAttempts int32
	}{
		{"no retries, first attempt fails", 0, 1, true, 1},
		{"one retry rescues one transient failure", 1, 1, false, 2},
		{"budget exhausted", 2, 5, true, 3},
		{"no failures, no extra attempts", 3, 0, false, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := testRunner()
			r.Retries = tc.retries
			var attempts int32
			r.simulate = func(_ context.Context, cfg *config.Config, workload string, warmup, measure uint64) (*system.Results, error) {
				n := atomic.AddInt32(&attempts, 1)
				if n <= tc.failFirst {
					return nil, errors.New("transient")
				}
				return fakeResults(Spec{Workload: workload}), nil
			}
			_, err := r.Run(Spec{Workload: "MP4"})
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, wantErr = %v", err, tc.wantErr)
			}
			if attempts != tc.wantAttempts {
				t.Fatalf("%d attempts, want %d", attempts, tc.wantAttempts)
			}
		})
	}
}

// TestRunAllRetryDegradesToPartialSuccess is the sweep-level retry
// story: one transient failure mid-sweep is retried away and the whole
// sweep completes instead of aborting.
func TestRunAllRetryDegradesToPartialSuccess(t *testing.T) {
	r := testRunner()
	r.Parallelism = 2
	r.Retries = 1
	var attempts int32
	var failedOnce atomic.Bool
	r.simulate = func(_ context.Context, cfg *config.Config, workload string, warmup, measure uint64) (*system.Results, error) {
		atomic.AddInt32(&attempts, 1)
		if workload == "w3" && failedOnce.CompareAndSwap(false, true) {
			return nil, errors.New("transient blip")
		}
		return fakeResults(Spec{Workload: workload}), nil
	}
	specs := make([]Spec, 8)
	for i := range specs {
		specs[i] = Spec{Workload: fmt.Sprintf("w%d", i)}
	}
	if err := r.RunAll(context.Background(), specs); err != nil {
		t.Fatalf("sweep failed despite retry budget: %v", err)
	}
	if attempts != int32(len(specs))+1 {
		t.Fatalf("%d attempts, want %d (one retry)", attempts, len(specs)+1)
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
		return newFigure("t", "t"), nil
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
