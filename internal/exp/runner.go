// Package exp defines one experiment per figure and table of the
// paper's evaluation (Section VI) and the runner that executes the
// underlying simulations. Runs are memoized by the machine they
// simulate — Figures 8-11 share the same 12-workload x 6-variant sweep,
// and Table III's 2x column is that sweep again — and executed in
// parallel across OS threads (each simulation is single-threaded and
// deterministic).
package exp

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"pcmap/internal/config"
	"pcmap/internal/obs"
	"pcmap/internal/system"
)

// Spec names one simulation run as a set of knobs over the Table I
// machine. configFor resolves it; two Specs that resolve to the same
// machine name the same run.
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
	// Warmup and Measure are the run's per-core instruction budgets;
	// 0 takes the runner's.
	Warmup, Measure uint64
}

// run is one resolved simulation: the workload, the complete machine
// configuration and the instruction budgets. A simulation's output is a
// function of its run alone, so runs, not the Specs that name them, key
// the memo, the single-flight map and the disk cache.
type run struct {
	Workload        string
	Config          config.Config
	Warmup, Measure uint64
}

// Runner executes, memoizes, and optionally disk-caches simulation
// runs. Concurrent callers of the same run share one in-flight
// execution (single-flight); completed results are memoized in memory
// and, when Cache is set, persisted so an interrupted sweep can resume.
type Runner struct {
	// Warmup and Measure are the per-core instruction budgets of every
	// run whose Spec leaves its own 0. The paper runs 200M + 1B; our
	// synthetic generators are stationary so far smaller budgets
	// converge (see DESIGN.md).
	Warmup, Measure uint64
	// Seed is the simulation seed of every run whose Spec leaves Seed
	// 0; 0 keeps the configuration's default.
	Seed uint64
	// Parallelism bounds concurrent simulations (0 = NumCPU).
	Parallelism int
	// Progress, when non-nil, receives one line per completed run.
	Progress func(string)

	// Cache, when non-nil, persists every executed run's Results to
	// disk (content-addressed by workload, resolved config and budgets).
	// Writes happen regardless of Resume; reads only when Resume is
	// set, so a non-resume sweep reproduces results from scratch while
	// still leaving a cache behind.
	Cache *DiskCache
	// Resume loads previously cached results instead of re-simulating.
	Resume bool
	// Tracer, when non-nil, is attached to every simulation this
	// runner executes (system.WithTracer), and Resume is ignored: a
	// cached result has no timeline. The tracer is single-threaded,
	// so set it only for single-run invocations (adhoc); a parallel
	// sweep sharing one tracer would race.
	Tracer *obs.Tracer

	// mu guards memo, calls and the throughput accounting below.
	mu    sync.Mutex
	memo  map[run]*system.Results
	calls map[run]*inflight

	// simulate executes one run; tests substitute it to count or fail
	// executions without building real systems. ctx carries the caller's
	// deadline into the simulation (see system.RunCtx).
	simulate func(ctx context.Context, cfg *config.Config, workload string, warmup, measure uint64) (*system.Results, error)

	// Sweep throughput accounting: executed (non-memoized) sims, the
	// engine events they stepped, their simulated instructions and
	// their summed per-sim wall time.
	// Wall-clock feeds only stderr progress reporting — it never enters
	// simulation results, which stay a function of config and seed.
	sims         uint64
	events       uint64
	instructions uint64
	simsWall     time.Duration
	// hits counts disk-cache loads (resume).
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

// configFor resolves a Spec to the machine it names: the Table I
// configuration with the spec's variant and knobs applied. It rejects
// a write-to-read ratio the timing model cannot apply exactly.
func configFor(s Spec) (*config.Config, error) {
	cfg := config.Default().WithVariant(s.Variant)
	if s.Seed != 0 {
		cfg.Seed = s.Seed
	}
	// Zero keeps Table I's ratio; every other value is checked, NaN too.
	if r := s.WriteToReadRatio; r < 0 || r > 0 || math.IsNaN(r) {
		if err := cfg.Memory.CheckWriteToReadRatio(r); err != nil {
			return nil, err
		}
		cfg.Memory.SetWriteToReadRatio(r)
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
	return cfg, nil
}

// resolve returns the run s names once edit has changed its
// configuration, in order. The configuration must validate, so every
// memo key is a machine that can run and equals itself (no NaN).
func resolve(s Spec, edit ...func(*config.Config)) (run, error) {
	cfg, err := configFor(s)
	if err == nil {
		for _, e := range edit {
			e(cfg)
		}
		err = cfg.Validate()
	}
	if err != nil {
		return run{}, fmt.Errorf("exp: %s/%s: %w", s.Workload, s.Variant, err)
	}
	return run{Workload: s.Workload, Config: *cfg, Warmup: s.Warmup, Measure: s.Measure}, nil
}

// resolve is the package-level resolve with the runner's seed and
// budgets filling those a spec leaves 0.
func (r *Runner) resolve(s Spec, edit ...func(*config.Config)) (run, error) {
	s.Seed = cmp.Or(s.Seed, r.Seed)
	s.Warmup = cmp.Or(s.Warmup, r.Warmup)
	s.Measure = cmp.Or(s.Measure, r.Measure)
	return resolve(s, edit...)
}

// Validate reports whether s names a machine that can run: the error
// resolve would fail a Run of s with, or nil. It checks the knobs, not
// the workload name.
func (s Spec) Validate() error {
	_, err := resolve(s)
	return err
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
func (r *Runner) callSimulate(ctx context.Context, k run) (res *system.Results, err error) {
	defer func() {
		if v := recover(); v != nil {
			res = nil
			err = &JobPanicError{Workload: k.Workload, Variant: k.Config.Variant,
				Value: v, Stack: debug.Stack()}
		}
	}()
	sim := r.simulate
	if sim == nil {
		sim = r.defaultSimulate
	}
	return sim(ctx, &k.Config, k.Workload, k.Warmup, k.Measure)
}

// Run executes (or returns the memoized result of) one spec. It is
// RunCtx without cancellation.
func (r *Runner) Run(s Spec) (*system.Results, error) {
	return r.RunCtx(context.Background(), s)
}

// RunCtx executes the run s names, deduplicating concurrent callers:
// however many goroutines ask for the same run, under whichever Specs,
// exactly one simulation executes and all callers receive its result.
// ctx cancels waiting and prevents new executions from starting; it
// also stops an execution in progress between engine events (see
// system.RunCtx), in which case nothing is memoized or cached.
func (r *Runner) RunCtx(ctx context.Context, s Spec) (*system.Results, error) {
	k, err := r.resolve(s)
	if err != nil {
		return nil, err
	}
	return r.runCtx(ctx, k)
}

// runCtx is RunCtx on a resolved run.
func (r *Runner) runCtx(ctx context.Context, k run) (*system.Results, error) {
	r.mu.Lock()
	if res, ok := r.memo[k]; ok {
		r.mu.Unlock()
		return res, nil
	}
	if c, ok := r.calls[k]; ok {
		// Another goroutine is already executing this run: wait for it
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
		r.calls = make(map[run]*inflight)
	}
	c := &inflight{done: make(chan struct{})}
	r.calls[k] = c
	r.mu.Unlock()

	c.res, c.err = r.execute(ctx, k)

	r.mu.Lock()
	if c.err == nil {
		if r.memo == nil {
			r.memo = make(map[run]*system.Results)
		}
		r.memo[k] = c.res
	}
	// Failed calls leave no memo entry, so a later identical Run (e.g.
	// after the caller clears an environmental problem) re-executes.
	delete(r.calls, k)
	r.mu.Unlock()
	close(c.done)
	return c.res, c.err
}

// execute runs one run for real: disk-cache lookup (when resuming
// untraced), then one simulation, then a cache store.
func (r *Runner) execute(ctx context.Context, k run) (*system.Results, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var key string
	if r.Cache != nil {
		key = CacheKey(k.Workload, &k.Config, k.Warmup, k.Measure)
		// A cached answer carries no timeline, so a traced run always
		// simulates; it still stores its result.
		if r.Resume && r.Tracer == nil {
			if res, ok := r.Cache.Load(key); ok {
				r.mu.Lock()
				r.hits++
				r.mu.Unlock()
				if r.Progress != nil {
					r.Progress(fmt.Sprintf("cached %-14s %-9s IPC=%.2f IRLP=%.2f",
						k.Workload, k.Config.Variant, res.IPCSum, res.IRLPAvg))
				}
				return res, nil
			}
		}
	}

	//pcmaplint:ignore nodeterminism wall-clock feeds only stderr throughput reporting, never simulation results
	start := time.Now()
	res, err := r.callSimulate(ctx, k)
	//pcmaplint:ignore nodeterminism wall-clock feeds only stderr throughput reporting, never simulation results
	elapsed := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("exp: %s/%s: %w", k.Workload, k.Config.Variant, err)
	}

	r.mu.Lock()
	r.sims++
	r.events += res.Events
	r.instructions += uint64(len(res.IPCPerCore))*k.Warmup + res.Instructions
	r.simsWall += elapsed
	r.mu.Unlock()
	if r.Progress != nil {
		r.Progress(fmt.Sprintf("ran %-14s %-9s IPC=%.2f IRLP=%.2f wall=%6.2fs %5.1fM ev/s",
			k.Workload, k.Config.Variant, res.IPCSum, res.IRLPAvg,
			elapsed.Seconds(), eventsPerSec(res.Events, elapsed)/1e6))
	}
	if r.Cache != nil {
		if err := r.Cache.Store(key, res); err != nil {
			return nil, fmt.Errorf("exp: %s/%s: %w", k.Workload, k.Config.Variant, err)
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

// Instructions reports the simulated instructions of the executed
// simulations, all cores, warmup and measured phases: each core's
// warmup budget plus the instructions it retired while measured.
func (r *Runner) Instructions() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.instructions
}

// CacheHits reports how many runs were satisfied from the disk cache.
func (r *Runner) CacheHits() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hits
}

// SetSimulate substitutes the simulation implementation — a test seam
// so orchestration layers (panic isolation, deadlines, the
// serve handlers) can be exercised without building real systems.
// Passing nil restores the default. Call before the runner serves
// traffic; the hook is read without synchronization on the execute
// path.
func (r *Runner) SetSimulate(fn func(ctx context.Context, cfg *config.Config, workload string, warmup, measure uint64) (*system.Results, error)) {
	r.simulate = fn
}

// MemoLen reports how many completed runs the in-memory memo holds.
// Long-running callers (the serve layer) use it to bound memory: when
// the memo grows past their budget they retire the runner and start a
// fresh one, falling back to the disk cache for previously computed
// results.
func (r *Runner) MemoLen() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.memo)
}

// RunAll executes the runs specs name concurrently. Dispatch genuinely
// stops at the first failure (or when ctx is cancelled): no run is
// handed to a worker after a worker has reported an error. Runs
// completed before the halt stay memoized and cached, so a failed or
// interrupted sweep keeps its partial results and can resume. The
// returned error is the errors.Join of every worker failure, plus
// ctx.Err() when the caller's context was cancelled; internal halt
// noise (workers observing the sweep's own cancellation) is filtered
// out. A spec that does not resolve fails the sweep before any run.
func (r *Runner) RunAll(ctx context.Context, specs []Spec) error {
	runs := make([]run, len(specs))
	for i, s := range specs {
		k, err := r.resolve(s)
		if err != nil {
			return err
		}
		runs[i] = k
	}
	return r.runAll(ctx, runs)
}

// runAll is RunAll on resolved runs.
func (r *Runner) runAll(ctx context.Context, runs []run) error {
	par := r.Parallelism
	if par <= 0 {
		par = runtime.NumCPU()
	}
	if par > len(runs) {
		par = len(runs)
	}
	if par < 1 {
		par = 1
	}
	sweep, cancel := context.WithCancel(ctx)
	defer cancel()

	work := make(chan run)
	var (
		wg   sync.WaitGroup
		emu  sync.Mutex
		errs []error
	)
	for i := 0; i < par; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				_, err := r.runCtx(sweep, k)
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
				cancel() // halt dispatch; drain remaining runs cheaply
			}
		}()
	}
dispatch:
	for _, k := range runs {
		select {
		case work <- k:
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
