// Package exp defines one experiment per figure and table of the
// paper's evaluation (Section VI) and the runner that executes the
// underlying simulations. Runs are memoized — Figures 8-11 share the
// same 12-workload x 6-variant sweep — and executed in parallel across
// OS threads (each simulation is single-threaded and deterministic).
package exp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"pcmap/internal/config"
	"pcmap/internal/obs"
	"pcmap/internal/system"
)

// Spec identifies one simulation run.
type Spec struct {
	Workload string
	Variant  config.Variant
	// WriteToReadRatio overrides the cell write/read latency ratio
	// (Table III); 0 keeps the default 2x.
	WriteToReadRatio float64
	// Symmetric makes writes as fast as reads (Figure 1's comparison
	// device).
	Symmetric bool
	// FaultMode: "" (no faults), "always", "never" (Table IV).
	FaultMode string
	// WritePausing enables the HPCA 2010 comparator on the baseline.
	WritePausing bool
	// EnduranceBudget caps per-cell-group write endurance before cells
	// stick (0 = perfect cells); DriftProb is the per-read transient
	// flip probability. Both feed the pcm.FaultModel.
	EnduranceBudget uint64
	DriftProb       float64
	// VerifyWrites turns on the program-and-verify retry/remap path.
	VerifyWrites bool
	Seed         uint64
}

// Runner executes, memoizes, and optionally disk-caches simulation
// runs. Concurrent callers of the same Spec share one in-flight
// execution (single-flight); completed results are memoized in memory
// and, when Cache is set, persisted so an interrupted sweep can resume.
type Runner struct {
	// Warmup and Measure are per-core instruction budgets. The paper
	// runs 200M + 1B; our synthetic generators are stationary so far
	// smaller budgets converge (see DESIGN.md).
	Warmup, Measure uint64
	// Parallelism bounds concurrent simulations (0 = NumCPU).
	Parallelism int
	// Progress, when non-nil, receives one line per completed run.
	Progress func(string)

	// Cache, when non-nil, persists every executed run's Results to
	// disk (content-addressed by Spec + resolved config + budgets).
	// Writes happen regardless of Resume; reads only when Resume is
	// set, so a non-resume sweep reproduces results from scratch while
	// still leaving a cache behind.
	Cache *DiskCache
	// Resume loads previously cached results instead of re-simulating.
	Resume bool
	// Retries is how many times a failed simulation is re-attempted
	// before the failure is reported (0 = fail on first error). Sims
	// are deterministic, so this guards against environmental
	// failures, not simulation bugs; a sweep with retries degrades to
	// partial results (everything already completed stays cached)
	// instead of losing the whole run.
	Retries int
	// Tracer, when non-nil, is attached to every simulation this
	// runner executes (system.WithTracer). The tracer is single-
	// threaded, so set it only for single-run invocations (adhoc);
	// a parallel sweep sharing one tracer would race.
	Tracer *obs.Tracer

	mu sync.Mutex
	//pcmaplint:guardedby mu
	memo map[Spec]*system.Results
	//pcmaplint:guardedby mu
	calls map[Spec]*inflight

	// simulate executes one run; tests substitute it to count or fail
	// executions without building real systems. ctx carries the caller's
	// deadline into the simulation (see system.RunCtx).
	simulate func(ctx context.Context, cfg *config.Config, workload string, warmup, measure uint64) (*system.Results, error)

	// Sweep throughput accounting: executed (non-memoized) sims, the
	// engine events they stepped, and their summed per-sim wall time.
	// Wall-clock feeds only stderr progress reporting — it never enters
	// simulation results, which stay a function of config and seed.
	//pcmaplint:guardedby mu
	sims uint64
	//pcmaplint:guardedby mu
	events uint64
	//pcmaplint:guardedby mu
	simsWall time.Duration
	// hits counts disk-cache loads (resume).
	//pcmaplint:guardedby mu
	hits uint64
}

// inflight is one in-progress execution other callers can wait on.
type inflight struct {
	done chan struct{} // closed when res/err are set
	res  *system.Results
	err  error
}

// NewRunner returns a runner with sensible experiment budgets.
func NewRunner() *Runner {
	return &Runner{Warmup: 40_000, Measure: 400_000}
}

func (r *Runner) configFor(s Spec) *config.Config {
	cfg := config.Default().WithVariant(s.Variant)
	if s.Seed != 0 {
		cfg.Seed = s.Seed
	}
	if s.WriteToReadRatio > 0 {
		cfg.Memory.SetWriteToReadRatio(s.WriteToReadRatio)
	}
	if s.Symmetric {
		cfg.Memory.Timing.CellSET = cfg.Memory.Timing.ArrayRead
		cfg.Memory.Timing.CellRESET = cfg.Memory.Timing.ArrayRead
	}
	cfg.Memory.FaultMode = s.FaultMode
	cfg.Memory.WritePausing = s.WritePausing
	cfg.Memory.EnduranceBudget = s.EnduranceBudget
	cfg.Memory.DriftProb = s.DriftProb
	cfg.Memory.VerifyWrites = s.VerifyWrites
	return cfg
}

// runSimulation is the untraced default simulate implementation.
func runSimulation(ctx context.Context, cfg *config.Config, workload string, warmup, measure uint64) (*system.Results, error) {
	return (&Runner{}).defaultSimulate(ctx, cfg, workload, warmup, measure)
}

// defaultSimulate builds the system — attaching the runner's tracer
// when one is set — and runs the warmup/measure protocol under ctx's
// deadline.
func (r *Runner) defaultSimulate(ctx context.Context, cfg *config.Config, workload string, warmup, measure uint64) (*system.Results, error) {
	opts := []system.Option{system.WithConfig(cfg), system.WithWorkload(workload)}
	if r.Tracer != nil {
		opts = append(opts, system.WithTracer(r.Tracer))
	}
	sys, err := system.New(opts...)
	if err != nil {
		return nil, err
	}
	res, err := sys.RunCtx(ctx, warmup, measure)
	// Results are fully collected by RunCtx; recycle the cache slabs so
	// the sweep's next same-geometry system reuses them instead of
	// allocating tens of MB per run.
	sys.Release()
	return res, err
}

// callSimulate runs one simulation attempt with panic isolation: a
// panicking simulation (or simulate hook) is recovered into a typed
// *JobPanicError instead of unwinding the worker goroutine and killing
// the whole process. The stack is captured here, inside the recovering
// frame, so it points at the panic site.
func (r *Runner) callSimulate(ctx context.Context, s Spec, cfg *config.Config) (res *system.Results, err error) {
	defer func() {
		if v := recover(); v != nil {
			res = nil
			err = &JobPanicError{Workload: s.Workload, Variant: s.Variant,
				Value: v, Stack: debug.Stack()}
		}
	}()
	sim := r.simulate
	if sim == nil {
		sim = r.defaultSimulate
	}
	return sim(ctx, cfg, s.Workload, r.Warmup, r.Measure)
}

// Run executes (or returns the memoized result of) one spec. It is
// RunCtx without cancellation.
func (r *Runner) Run(s Spec) (*system.Results, error) {
	return r.RunCtx(context.Background(), s)
}

// RunCtx executes one spec, deduplicating concurrent callers: however
// many goroutines ask for the same Spec, exactly one simulation runs
// and all callers receive its result. ctx cancels waiting and prevents
// new executions from starting; an execution already in progress runs
// to completion (simulations are not interruptible mid-run) but its
// result still lands in the memo and cache for a later resume.
func (r *Runner) RunCtx(ctx context.Context, s Spec) (*system.Results, error) {
	r.mu.Lock()
	if res, ok := r.memo[s]; ok {
		r.mu.Unlock()
		return res, nil
	}
	if c, ok := r.calls[s]; ok {
		// Another goroutine is already executing this spec: wait for it
		// (or for cancellation) instead of running a duplicate.
		r.mu.Unlock()
		select {
		case <-c.done:
			return c.res, c.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if r.calls == nil {
		r.calls = make(map[Spec]*inflight)
	}
	c := &inflight{done: make(chan struct{})}
	r.calls[s] = c
	r.mu.Unlock()

	c.res, c.err = r.execute(ctx, s)

	r.mu.Lock()
	if c.err == nil {
		if r.memo == nil {
			r.memo = make(map[Spec]*system.Results)
		}
		r.memo[s] = c.res
	}
	// Failed calls leave no memo entry, so a later identical Run (e.g.
	// after the caller clears an environmental problem) re-executes.
	delete(r.calls, s)
	r.mu.Unlock()
	close(c.done)
	return c.res, c.err
}

// execute runs one spec for real: disk-cache lookup (when resuming),
// then up to 1+Retries simulation attempts, then a cache store.
func (r *Runner) execute(ctx context.Context, s Spec) (*system.Results, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg := r.configFor(s)
	var key string
	if r.Cache != nil {
		key = CacheKey(s, cfg, r.Warmup, r.Measure)
		if r.Resume {
			if res, ok := r.Cache.Load(key); ok {
				r.mu.Lock()
				r.hits++
				r.mu.Unlock()
				if r.Progress != nil {
					r.Progress(fmt.Sprintf("cached %-14s %-9s IPC=%.2f IRLP=%.2f",
						s.Workload, s.Variant, res.IPCSum, res.IRLPAvg))
				}
				return res, nil
			}
		}
	}

	var (
		res     *system.Results
		err     error
		elapsed time.Duration
	)
	for attempt := 0; ; attempt++ {
		//pcmaplint:ignore nodeterminism wall-clock feeds only stderr throughput reporting, never simulation results
		start := time.Now()
		res, err = r.callSimulate(ctx, s, cfg)
		//pcmaplint:ignore nodeterminism wall-clock feeds only stderr throughput reporting, never simulation results
		elapsed = time.Since(start)
		if err == nil {
			break
		}
		// Permanent failures (panics, cancellation, invalid specs) are
		// reported immediately; burning retry budget on them cannot help.
		if attempt >= r.Retries || ctx.Err() != nil || !IsRetryable(err) {
			return nil, fmt.Errorf("exp: %s/%s (attempt %d/%d): %w",
				s.Workload, s.Variant, attempt+1, r.Retries+1, err)
		}
		if r.Progress != nil {
			r.Progress(fmt.Sprintf("retry  %-14s %-9s attempt %d/%d: %v",
				s.Workload, s.Variant, attempt+2, r.Retries+1, err))
		}
	}

	r.mu.Lock()
	r.sims++
	r.events += res.Events
	r.simsWall += elapsed
	r.mu.Unlock()
	if r.Progress != nil {
		r.Progress(fmt.Sprintf("ran %-14s %-9s IPC=%.2f IRLP=%.2f wall=%6.2fs %5.1fM ev/s",
			s.Workload, s.Variant, res.IPCSum, res.IRLPAvg,
			elapsed.Seconds(), eventsPerSec(res.Events, elapsed)/1e6))
	}
	if r.Cache != nil {
		if err := r.Cache.Store(key, res); err != nil {
			return nil, fmt.Errorf("exp: %s/%s: %w", s.Workload, s.Variant, err)
		}
	}
	return res, nil
}

// eventsPerSec guards the zero-duration corner (sub-millisecond sims).
func eventsPerSec(events uint64, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(events) / wall.Seconds()
}

// Totals reports the number of simulations actually executed (memo and
// disk-cache hits excluded), the engine events they stepped, and their
// summed per-sim wall time. With parallel workers the wall total
// exceeds elapsed real time; events/totals therefore measure per-worker
// simulation-thread throughput.
func (r *Runner) Totals() (sims, events uint64, wall time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sims, r.events, r.simsWall
}

// CacheHits reports how many runs were satisfied from the disk cache.
func (r *Runner) CacheHits() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hits
}

// SetSimulate substitutes the simulation implementation — a test seam
// so orchestration layers (retry, panic isolation, deadlines, the
// serve worker pool) can be exercised without building real systems.
// Passing nil restores the default. Call before the runner serves
// traffic; the hook is read without synchronization on the execute
// path.
func (r *Runner) SetSimulate(fn func(ctx context.Context, cfg *config.Config, workload string, warmup, measure uint64) (*system.Results, error)) {
	r.simulate = fn
}

// MemoLen reports how many completed specs the in-memory memo holds.
// Long-running callers (the serve layer) use it to bound memory: when
// the memo grows past their budget they retire the runner and start a
// fresh one, falling back to the disk cache for previously computed
// results.
func (r *Runner) MemoLen() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.memo)
}

// RunAll executes specs concurrently. Dispatch genuinely stops at the
// first failure (or when ctx is cancelled): no spec is handed to a
// worker after a worker has reported an error. Simulations already in
// flight run to completion — they are not interruptible — and their
// results stay memoized and cached, so a failed or interrupted sweep
// keeps its partial results and can resume. The returned error is the
// errors.Join of every worker failure, plus ctx.Err() when the caller's
// context was cancelled; internal halt noise (workers observing the
// sweep's own cancellation) is filtered out.
func (r *Runner) RunAll(ctx context.Context, specs []Spec) error {
	par := r.Parallelism
	if par <= 0 {
		par = runtime.NumCPU()
	}
	if par > len(specs) {
		par = len(specs)
	}
	if par < 1 {
		par = 1
	}
	sweep, cancel := context.WithCancel(ctx)
	defer cancel()

	work := make(chan Spec)
	var (
		wg   sync.WaitGroup
		emu  sync.Mutex
		errs []error
	)
	for i := 0; i < par; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range work {
				_, err := r.RunCtx(sweep, s)
				if err == nil {
					continue
				}
				if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
					// The sweep is already halting; the caller's own
					// ctx.Err() is appended once below if it caused it.
					continue
				}
				emu.Lock()
				errs = append(errs, err)
				emu.Unlock()
				cancel() // halt dispatch; drain remaining specs cheaply
			}
		}()
	}
dispatch:
	for _, s := range specs {
		select {
		case work <- s:
		case <-sweep.Done():
			break dispatch
		}
	}
	close(work)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// MustRun is Run for callers that already ran RunAll successfully.
func (r *Runner) MustRun(s Spec) *system.Results {
	res, err := r.Run(s)
	if err != nil {
		panic(err)
	}
	return res
}
