// Package serve turns the one-shot simulator into a hardened,
// long-running simulation service: an HTTP front end (stdlib net/http
// only) that accepts simulation jobs as JSON, runs each on its own
// handler goroutine through the exp.Runner orchestrator, and answers
// with the same Results JSON the disk cache stores
// (system.EncodeResults), byte-identical to a one-shot run of the same
// spec.
//
// The robustness surface is the point:
//
//   - admission control: at most Workers jobs simulate at once and at
//     most QueueDepth more wait for a turn; past that a job is rejected
//     with 429 and a Retry-After hint instead of growing an unbounded
//     backlog, and while draining new jobs get 503;
//   - per-job deadlines: every accepted job waits and runs under a
//     context deadline (server default, client-settable up to a server
//     cap) that the simulation engine honors between events;
//   - panic isolation: a crashing job answers with a typed error while
//     the server keeps serving (exp.JobPanicError carries the stack);
//   - graceful drain: BeginDrain stops admission, Drain waits for
//     in-flight jobs up to a deadline, and Main wires the whole
//     lifecycle to SIGTERM/SIGINT (second signal forces exit 130).
//
// Concurrent identical specs coalesce through the runner's
// single-flight path, and when a disk cache is configured repeated
// traffic is answered from it without re-simulating. A job whose
// client has gone stops simulating unless an identical job still waits
// for the same run.
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
	"pcmap/internal/system"
)

// Config tunes the service. Zero values mean "use the documented
// default"; New normalizes them.
type Config struct {
	// Workers bounds the jobs simulating at once (<= 0: NumCPU).
	Workers int
	// QueueDepth bounds the accepted jobs waiting for one of the
	// Workers turns; past it a job answers 429 (<= 0: 2x Workers).
	QueueDepth int

	// DefaultWarmup and DefaultMeasure are the per-core instruction
	// budgets used when a job does not set its own (<= 0: the
	// exp.NewRunner defaults, 40k/400k).
	DefaultWarmup, DefaultMeasure uint64
	// MaxBudget caps a job's warmup and measure budgets; a job asking
	// for more is rejected as invalid rather than monopolizing a turn
	// (<= 0: 5M instructions per core).
	MaxBudget uint64

	// DefaultTimeout is the per-job deadline applied when the client
	// does not request one (<= 0: 60s). MaxTimeout caps client-requested
	// deadlines (<= 0: 5m); requests beyond the cap are clamped.
	DefaultTimeout, MaxTimeout time.Duration

	// Cache, when non-nil, persists and serves completed runs
	// content-addressed on disk: repeated traffic gets cached answers.
	Cache *exp.DiskCache

	// Logf receives operational log lines (nil: silent). It must be
	// safe for concurrent use; log.Printf and testing.T.Logf are.
	Logf func(format string, a ...any)

	// tune, when non-nil, is applied to the server's runner: a test
	// seam for substituting the simulation (see exp.Runner.SetSimulate).
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
	return c
}

// task is one validated job: what to simulate, budgets included, and
// how long it may wait and run.
type task struct {
	spec    exp.Spec
	timeout time.Duration
}

// Server is the simulation service. Create with New, and install
// Handler on an http.Server (or use Main for the full signal-driven
// lifecycle). Each job runs on its handler's goroutine.
type Server struct {
	cfg Config
	mux *http.ServeMux

	// admitted and running are counting semaphores: a token in
	// admitted is an accepted, unanswered job (capacity Workers +
	// QueueDepth; none free answers 429), a token in running an
	// executing one (capacity Workers). Neither is ever closed: every
	// send is matched by the receive that returns the token.
	admitted chan struct{}
	running  chan struct{}

	// admitMu fences admission against BeginDrain: admits hold the read
	// side across the draining check and pending.Add, so a drain either
	// sees the job in pending or the job sees draining.
	admitMu  sync.RWMutex
	draining atomic.Bool
	pending  sync.WaitGroup // accepted jobs not yet answered

	// Close cancels baseCtx, and with it every job context, so jobs
	// still waiting or running unblock at forced shutdown.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	met svcCounters

	// runner executes every job for the server's life: each job's Spec
	// carries its budgets, so jobs at any budgets share one memo and
	// single-flight map, and the runner's MemoLimit bounds its memory.
	runner *exp.Runner

	// mu guards agg.
	mu sync.Mutex
	// agg sums every completed job's mem.Metrics counters, in the
	// report's fixed order; nil until the first job completes.
	agg []mem.NamedCounter
}

// New builds a Server from cfg (zero values defaulted, see Config).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		admitted:   make(chan struct{}, cfg.Workers+cfg.QueueDepth),
		running:    make(chan struct{}, cfg.Workers),
		baseCtx:    ctx,
		baseCancel: cancel,
		runner:     newRunner(cfg),
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

// BeginDrain stops admission: from its return, readyz answers 503 and
// new jobs are rejected with 503. Already-accepted jobs (waiting or
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

// Close cancels every outstanding job context, so jobs still waiting
// or running answer "abandoned at shutdown". Safe to call more than
// once.
func (s *Server) Close() {
	s.baseCancel()
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
	// Buffered single-shot: Serve's goroutine sends once and exits,
	// nobody closes it.
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
	// Buffered single-shot: the drain goroutine sends once and exits,
	// nobody closes it.
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
			s.logf("drain deadline exceeded; abandoning unfinished jobs")
		} else {
			s.logf("drained cleanly")
		}
		return 0
	case <-sig:
		s.logf("second signal: forcing exit")
		return 130
	}
}

// admit decides one job's fate: 0 to run it, or the HTTP status to
// reject it with (503 draining, 429 no admission token free). An
// admitted job holds a token and is counted in pending until release,
// which is what makes Drain's accounting exact.
func (s *Server) admit() int {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.draining.Load() {
		s.met.rejectedDraining.Add(1)
		return http.StatusServiceUnavailable
	}
	select {
	case s.admitted <- struct{}{}:
		s.pending.Add(1)
		s.met.accepted.Add(1)
		return 0
	default:
		s.met.rejectedQueue.Add(1)
		return http.StatusTooManyRequests
	}
}

// release returns an answered job's admission token.
func (s *Server) release() {
	<-s.admitted
	s.pending.Done()
}

// run executes one admitted job on the calling goroutine once a
// running token is free. The job's context ends at its deadline, when
// its client goes away (reqCtx) or at forced shutdown (Close). The
// deadline covers the wait for a token as well as the simulation: a
// job that waited past it answers timeout without ever simulating.
// Panics inside the simulation come back from the runner as
// *exp.JobPanicError.
func (s *Server) run(reqCtx context.Context, t *task) (*system.Results, error) {
	ctx, cancel := context.WithTimeout(reqCtx, t.timeout)
	defer cancel()
	defer context.AfterFunc(s.baseCtx, cancel)()
	select {
	case s.running <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-s.running }()
	res, err := s.runner.RunCtx(ctx, t.spec)
	if err == nil {
		s.aggregate(res)
	}
	return res, err
}

// newRunner returns the service's runner: it shares the disk cache
// and, unlike a sweep, always reads it, so repeated traffic gets cached
// answers instead of re-simulations, and it keeps at most 1024 results
// in memory.
func newRunner(cfg Config) *exp.Runner {
	r := exp.NewRunner()
	r.Cache = cfg.Cache
	r.Resume = cfg.Cache != nil
	r.MemoLimit = 1024
	if cfg.tune != nil {
		cfg.tune(r)
	}
	return r
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
