// Package serve turns the one-shot simulator into a hardened,
// long-running simulation service: an HTTP front end (stdlib net/http
// only) that accepts simulation jobs as JSON, executes them on a
// bounded worker pool layered on the exp.Runner orchestrator, and
// answers with the same Results JSON the disk cache stores
// (system.EncodeResults), byte-identical to a one-shot run of the same
// spec.
//
// The robustness surface is the point:
//
//   - admission control: a bounded queue; when it is full the job is
//     rejected with 429 and a Retry-After hint instead of growing an
//     unbounded backlog, and while draining new jobs get 503;
//   - per-job deadlines: every accepted job runs under a context
//     deadline (server default, client-settable up to a server cap)
//     that the simulation engine honors between events;
//   - panic isolation: a crashing job answers with a typed error while
//     the pool keeps serving (exp.JobPanicError carries the stack);
//   - bounded retry: transient failures (exp.IsRetryable) re-attempt
//     with exponential backoff plus deterministic jitter;
//   - graceful drain: BeginDrain stops admission, Drain waits for
//     in-flight jobs up to a deadline, and Main wires the whole
//     lifecycle to SIGTERM/SIGINT (second signal forces exit 130).
//
// Concurrent identical specs coalesce through the runner's
// single-flight path, and when a disk cache is configured repeated
// traffic is answered from it without re-simulating.
package serve

import (
	"context"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pcmap/internal/exp"
	"pcmap/internal/mem"
	"pcmap/internal/sim"
	"pcmap/internal/system"
)

// Config tunes the service. Zero values mean "use the documented
// default"; New normalizes them.
type Config struct {
	// Workers is the simulation worker-pool size (<= 0: NumCPU).
	Workers int
	// QueueDepth bounds the admission queue; a full queue answers 429
	// (<= 0: 2x Workers).
	QueueDepth int

	// DefaultWarmup and DefaultMeasure are the per-core instruction
	// budgets used when a job does not set its own (<= 0: the
	// exp.NewRunner defaults, 40k/400k).
	DefaultWarmup, DefaultMeasure uint64
	// MaxBudget caps a job's warmup and measure budgets; a job asking
	// for more is rejected as invalid rather than monopolizing a worker
	// (<= 0: 5M instructions per core).
	MaxBudget uint64

	// DefaultTimeout is the per-job deadline applied when the client
	// does not request one (<= 0: 60s). MaxTimeout caps client-requested
	// deadlines (<= 0: 5m); requests beyond the cap are clamped.
	DefaultTimeout, MaxTimeout time.Duration

	// Retries bounds re-attempts of retryable-classified failures
	// (exp.IsRetryable); RetryBase is the first backoff step, doubling
	// per attempt with jitter (<= 0: 50ms).
	Retries   int
	RetryBase time.Duration
	// JitterSeed seeds the backoff jitter stream (deterministic, like
	// every other random source in this repository).
	JitterSeed uint64

	// MemoLimit bounds the per-runner in-memory memo; past it the
	// runner is retired and replaced, so a long-running service does
	// not accumulate every Result it ever computed (<= 0: 1024 specs).
	MemoLimit int

	// Cache, when non-nil, persists and serves completed runs
	// content-addressed on disk: repeated traffic gets cached answers.
	Cache *exp.DiskCache

	// Logf receives operational log lines (nil: silent). It must be
	// safe for concurrent use; log.Printf and testing.T.Logf are.
	Logf func(format string, a ...any)

	// tune, when non-nil, is applied to every runner the server
	// creates — a test seam for substituting the simulation (see
	// exp.Runner.SetSimulate).
	tune func(*exp.Runner)
}

// withDefaults returns cfg with zero values normalized.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers
	}
	def := exp.NewRunner()
	if c.DefaultWarmup == 0 {
		c.DefaultWarmup = def.Warmup
	}
	if c.DefaultMeasure == 0 {
		c.DefaultMeasure = def.Measure
	}
	if c.MaxBudget == 0 {
		c.MaxBudget = 5_000_000
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.DefaultTimeout > c.MaxTimeout {
		c.DefaultTimeout = c.MaxTimeout
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 50 * time.Millisecond
	}
	if c.MemoLimit <= 0 {
		c.MemoLimit = 1024
	}
	return c
}

// maxBackoff caps one backoff sleep regardless of attempt count.
const maxBackoff = 2 * time.Second

// budgets keys one runner: the memo and single-flight maps inside
// exp.Runner assume runner-wide instruction budgets, so jobs with
// different budgets must not share a runner (their runs would collide
// in the memo while describing different computations).
type budgets struct {
	warmup, measure uint64
}

// task is one accepted job travelling from admission to a worker and
// back to the waiting handler.
type task struct {
	spec            exp.Spec
	warmup, measure uint64

	ctx    context.Context
	cancel context.CancelFunc

	res  *system.Results
	err  error
	done chan struct{} // closed by the worker once res/err are set
}

// Server is the simulation service. Create with New, install Handler
// on an http.Server (or use Main for the full signal-driven
// lifecycle), and call Start to launch the worker pool.
type Server struct {
	cfg Config
	mux *http.ServeMux

	//pcmaplint:chanowner never closed; workers exit via stop, queued tasks are cancelled by baseCancel
	queue chan *task
	stop  chan struct{}
	once  sync.Once // guards close(stop)

	// admitMu fences admission against BeginDrain: admits hold the read
	// side across the draining check and the enqueue, so a drain either
	// sees the task in pending or the task sees draining.
	admitMu  sync.RWMutex
	draining atomic.Bool
	pending  sync.WaitGroup // accepted tasks not yet answered
	workers  sync.WaitGroup

	// baseCtx parents every job context; Close cancels it so handlers
	// blocked on abandoned queued tasks unblock at forced shutdown.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	met svcCounters

	// mu guards the runner table, the simulation-counter aggregate,
	// and the jitter stream.
	mu sync.Mutex
	//pcmaplint:guardedby mu
	runners map[budgets]*exp.Runner
	// retiredSims/retiredHits are totals folded in from retired runners.
	//pcmaplint:guardedby mu
	retiredSims uint64
	//pcmaplint:guardedby mu
	retiredHits uint64
	// agg sums every completed job's mem.Metrics counters, in the
	// report's fixed order; nil until the first job completes.
	//pcmaplint:guardedby mu
	agg []mem.NamedCounter
	//pcmaplint:guardedby mu
	jitter *sim.RNG
}

// New builds a Server from cfg (zero values defaulted, see Config).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		queue:      make(chan *task, cfg.QueueDepth),
		stop:       make(chan struct{}),
		baseCtx:    ctx,
		baseCancel: cancel,
		runners:    map[budgets]*exp.Runner{},
		jitter:     sim.NewRNG(cfg.JitterSeed),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleJob)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the service's HTTP handler: the job, health, and
// metrics endpoints behind a panic-isolating wrapper (a handler bug
// answers 500 instead of tearing down the connection).
func (s *Server) Handler() http.Handler {
	return recoverHandler(s.mux)
}

// Start launches the worker pool. Call once, before serving traffic.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
}

// BeginDrain stops admission: from its return, readyz answers 503 and
// new jobs are rejected with 503. Already-accepted jobs (queued or
// executing) keep running.
func (s *Server) BeginDrain() {
	s.admitMu.Lock()
	s.draining.Store(true)
	s.admitMu.Unlock()
}

// Drain blocks until every accepted job has been answered, or until
// ctx expires (returning its error). Call after BeginDrain.
func (s *Server) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.pending.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close stops the worker pool and cancels every outstanding job
// context so handlers blocked on abandoned tasks unblock. Safe to call
// more than once.
func (s *Server) Close() {
	s.once.Do(func() { close(s.stop) })
	s.baseCancel()
	s.workers.Wait()
}

// logf emits one operational log line when logging is configured.
func (s *Server) logf(format string, a ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, a...)
	}
}

// Main runs the full service lifecycle and returns the process exit
// code: serve on ln until a signal arrives on sig, then stop admission,
// drain in-flight jobs up to drainTimeout, shut the listener down, and
// return 0. A second signal while draining forces an immediate 130
// (the conventional fatal-signal status). The caller owns sig (wire it
// with signal.Notify for SIGTERM/SIGINT) and ln.
func (s *Server) Main(ln net.Listener, sig <-chan os.Signal, drainTimeout time.Duration) int {
	hs := &http.Server{Handler: s.Handler()}
	s.Start()
	//pcmaplint:chanowner buffered single-shot; Serve's goroutine sends once and exits, nobody closes it
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	s.logf("serving on %s", ln.Addr())

	select {
	case err := <-serveErr:
		// The listener failed under us — not a drain, an outage.
		s.logf("listener failed: %v", err)
		s.Close()
		return 1
	case <-sig:
	}

	s.logf("signal received: draining in-flight jobs (deadline %s; second signal forces exit)", drainTimeout)
	s.BeginDrain()
	//pcmaplint:chanowner buffered single-shot; the drain goroutine sends once and exits, nobody closes it
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		err := s.Drain(ctx)
		// The listener stays open during the drain so late requests get
		// an orderly 503 instead of a connection refused; it closes only
		// once in-flight work is done (or abandoned at the deadline).
		shctx, shcancel := context.WithTimeout(context.Background(), time.Second)
		defer shcancel()
		_ = hs.Shutdown(shctx)
		drained <- err
	}()
	select {
	case err := <-drained:
		s.Close()
		if err != nil {
			s.logf("drain deadline exceeded; abandoning queued jobs")
		} else {
			s.logf("drained cleanly")
		}
		return 0
	case <-sig:
		s.logf("second signal: forcing exit")
		return 130
	}
}

// admit decides one task's fate: 0 to run it, or the HTTP status to
// reject it with (503 draining, 429 queue full). An admitted task is
// counted in pending before it becomes visible to workers, which is
// what makes Drain's accounting exact.
func (s *Server) admit(t *task) int {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.draining.Load() {
		s.met.rejectedDraining.Add(1)
		return http.StatusServiceUnavailable
	}
	s.pending.Add(1)
	select {
	case s.queue <- t:
		s.met.accepted.Add(1)
		return 0
	default:
		s.pending.Done()
		s.met.rejectedQueue.Add(1)
		return http.StatusTooManyRequests
	}
}

// worker executes queued tasks until Close.
func (s *Server) worker() {
	defer s.workers.Done()
	for {
		select {
		case <-s.stop:
			return
		case t := <-s.queue:
			s.met.busy.Add(1)
			s.runTask(t)
			s.met.busy.Add(-1)
			s.pending.Done()
		}
	}
}

// runTask executes one job with bounded backoff retry. Panics inside
// the simulation are already converted to *exp.JobPanicError by the
// runner; classification into an HTTP answer happens in the handler.
// Deferred calls run last-first, so done closes before the job context
// is cancelled: a handler woken by the cancellation then finds the
// task finished and answers its result, not "abandoned at shutdown".
func (s *Server) runTask(t *task) {
	defer t.cancel()
	defer close(t.done)
	r := s.runnerFor(t.warmup, t.measure)
	for attempt := 0; ; attempt++ {
		t.res, t.err = r.RunCtx(t.ctx, t.spec)
		if t.err == nil || attempt >= s.cfg.Retries || !exp.IsRetryable(t.err) {
			break
		}
		s.met.retried.Add(1)
		if !s.backoff(t.ctx, attempt) {
			break // job deadline expired mid-backoff
		}
	}
	if t.err == nil {
		s.aggregate(t.res)
	}
	s.maybeRetire(r, budgets{t.warmup, t.measure})
}

// backoff sleeps before retry attempt+1: exponential in the attempt
// number, capped, with the top half jittered so synchronized failures
// do not retry in lockstep. Returns false if the job deadline expired
// while sleeping.
func (s *Server) backoff(ctx context.Context, attempt int) bool {
	d := s.cfg.RetryBase << uint(attempt)
	if d <= 0 || d > maxBackoff {
		d = maxBackoff
	}
	s.mu.Lock()
	jitter := time.Duration(s.jitter.Uint64() % uint64(d/2+1))
	s.mu.Unlock()
	timer := time.NewTimer(d/2 + jitter)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-timer.C:
		return true
	}
}

// runnerFor returns (creating on first use) the runner for one budget
// pair. Budget-distinct runners keep the memo sound; they share the
// disk cache, whose keys already encode the budgets.
func (s *Server) runnerFor(warmup, measure uint64) *exp.Runner {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := budgets{warmup, measure}
	if r, ok := s.runners[key]; ok {
		return r
	}
	r := exp.NewRunner()
	r.Warmup, r.Measure = warmup, measure
	r.Cache = s.cfg.Cache
	// Unlike a sweep, a service always reads the cache: repeated
	// traffic must get cached answers, not re-simulations.
	r.Resume = s.cfg.Cache != nil
	if s.cfg.tune != nil {
		s.cfg.tune(r)
	}
	s.runners[key] = r
	return r
}

// maybeRetire drops a runner whose memo outgrew the budget, folding
// its throughput totals into the service counters first. In-flight
// calls on the retired runner finish normally; later identical jobs
// fall back to the disk cache.
func (s *Server) maybeRetire(r *exp.Runner, key budgets) {
	if r.MemoLen() <= s.cfg.MemoLimit {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.runners[key] != r {
		return // already replaced
	}
	sims, _, _ := r.Totals()
	s.retiredSims += sims
	s.retiredHits += r.CacheHits()
	delete(s.runners, key)
	s.logf("retired runner for budgets %d/%d (memo exceeded %d specs)",
		key.warmup, key.measure, s.cfg.MemoLimit)
}

// aggregate folds one completed job's simulation counters into the
// service-wide sums served at /metrics. Handlers finish concurrently,
// so the shared sums are touched only under mu.
func (s *Server) aggregate(res *system.Results) {
	if res == nil || res.Mem == nil {
		return
	}
	rows := res.Mem.Counters()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.agg == nil {
		s.agg = rows
		return
	}
	for i, nc := range rows {
		s.agg[i].Value += nc.Value
	}
}

// recoverHandler isolates handler panics: the offending request gets a
// structured 500 and the server keeps serving.
func recoverHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				writeError(w, http.StatusInternalServerError, errorBody{
					Kind: "panic", Message: "internal handler panic", Retryable: false})
			}
		}()
		next.ServeHTTP(w, r)
	})
}
