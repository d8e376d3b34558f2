package exp

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pcmap/internal/config"
	"pcmap/internal/system"
)

// TestRunRecoversPanic is the panic-isolation regression test: a
// panicking simulation must come back as a typed *JobPanicError with a
// stack, not unwind the worker goroutine (which would kill the whole
// process before this test could even fail).
func TestRunRecoversPanic(t *testing.T) {
	r := testRunner()
	var attempts int32
	r.simulate = func(_ context.Context, cfg *config.Config, workload string, warmup, measure uint64) (*system.Results, error) {
		atomic.AddInt32(&attempts, 1)
		panic("pathological config")
	}
	_, err := r.Run(Spec{Workload: "MP4", Variant: config.RWoWRDE})
	if err == nil {
		t.Fatal("panicking simulation must return an error")
	}
	var pe *JobPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *JobPanicError in the chain", err)
	}
	if pe.Workload != "MP4" || pe.Variant != config.RWoWRDE {
		t.Errorf("panic error names %s/%s, want MP4/RWoW-RDE", pe.Workload, pe.Variant)
	}
	if pe.Value != "pathological config" {
		t.Errorf("panic value = %v, want the original panic payload", pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "TestRunRecoversPanic") {
		t.Errorf("stack does not reach the panic site:\n%s", pe.Stack)
	}
	if n := atomic.LoadInt32(&attempts); n != 1 {
		t.Errorf("%d attempts, want 1", n)
	}

	// The runner keeps serving: a healthy spec still runs after the
	// panic, and the panicked spec is not poisoned in the memo.
	r.simulate = func(_ context.Context, cfg *config.Config, workload string, warmup, measure uint64) (*system.Results, error) {
		return fakeResults(Spec{Workload: workload}), nil
	}
	if _, err := r.Run(Spec{Workload: "stream"}); err != nil {
		t.Fatalf("healthy run after a panic: %v", err)
	}
	if _, err := r.Run(Spec{Workload: "MP4", Variant: config.RWoWRDE}); err != nil {
		t.Fatalf("re-running the previously panicking spec: %v", err)
	}
}

// TestRunAllSurvivesPanickingSpec is the sweep-level story: one
// deliberately panicking spec fails the sweep with a joined, typed
// error — it no longer kills the entire process — and completed specs
// stay memoized for resume.
func TestRunAllSurvivesPanickingSpec(t *testing.T) {
	r := testRunner()
	r.Parallelism = 1
	r.simulate = func(_ context.Context, cfg *config.Config, workload string, warmup, measure uint64) (*system.Results, error) {
		if workload == "w2" {
			panic("spec w2 is pathological")
		}
		return fakeResults(Spec{Workload: workload}), nil
	}
	specs := make([]Spec, 6)
	for i := range specs {
		specs[i] = Spec{Workload: fmt.Sprintf("w%d", i)}
	}
	err := r.RunAll(context.Background(), specs)
	if err == nil {
		t.Fatal("RunAll must report the panicking spec")
	}
	var pe *JobPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("RunAll error %v does not carry the JobPanicError", err)
	}
	// Specs completed before the panic survive it.
	if _, ok := r.memoized(specs[0]); !ok {
		t.Error("pre-panic result lost from the memo")
	}
}

// memoized reports whether the run s names has a completed memo entry
// (test helper).
func (r *Runner) memoized(s Spec) (*system.Results, bool) {
	k, err := r.resolve(s)
	if err != nil {
		return nil, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	res, ok := r.memo[k]
	return res, ok
}

// TestRunCtxDeadline runs a real simulation under an already-tight
// deadline and requires a context.DeadlineExceeded error: the engine's
// periodic cancellation check is what aborts long jobs for the -timeout
// flag and the serve layer.
func TestRunCtxDeadline(t *testing.T) {
	r := NewRunner()
	r.Warmup, r.Measure = 200_000, 2_000_000 // long enough to outlive 1ms
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := r.RunCtx(ctx, Spec{Workload: "MP4", Variant: config.Baseline})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}
