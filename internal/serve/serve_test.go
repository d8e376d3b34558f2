package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pcmap/internal/config"
	"pcmap/internal/exp"
	"pcmap/internal/mem"
	"pcmap/internal/system"
)

// newTestServer builds a Server plus an httptest front end.
// Cleanup tears both down.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Logf = t.Logf
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// postJob submits one job and returns the status code and body. It
// reports a failed exchange with t.Error and status 0, so concurrent
// callers may use it off the test goroutine.
func postJob(t *testing.T, url string, req JobRequest) (int, []byte) {
	t.Helper()
	payload, err := json.Marshal(req)
	if err != nil {
		t.Error(err)
		return 0, nil
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Error(err)
		return 0, nil
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Error(err)
		return 0, nil
	}
	return resp.StatusCode, body
}

// decodeErrorKind extracts the error taxonomy kind from an error body.
func decodeErrorKind(t *testing.T, body []byte) string {
	t.Helper()
	var e struct {
		Error errorBody `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error body %q is not the documented JSON shape: %v", body, err)
	}
	return e.Error.Kind
}

// stubResults builds a minimal but encodable Results.
func stubResults(workload string) *system.Results {
	return &system.Results{Workload: workload, IPCSum: 1, Mem: mem.NewMetrics()}
}

// TestServeByteIdenticalToCLI runs a real (small) simulation through
// the HTTP path and requires the response body to be byte-identical to
// the same spec executed directly through the exp.Runner — the CLI's
// path. The service must be a transport, never a transformation.
func TestServeByteIdenticalToCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation")
	}
	_, ts := newTestServer(t, Config{Workers: 2, DefaultWarmup: 200, DefaultMeasure: 2000})

	status, body := postJob(t, ts.URL, JobRequest{Workload: "MP4", Variant: "Baseline"})
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, body)
	}

	ref := exp.NewRunner()
	ref.Warmup, ref.Measure = 200, 2000
	res, err := ref.Run(exp.Spec{Workload: "MP4", Variant: config.Baseline})
	if err != nil {
		t.Fatal(err)
	}
	want, err := system.EncodeResults(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("served Results differ from the direct run:\n got %d bytes\nwant %d bytes", len(body), len(want))
	}
}

// TestServeCoalescesIdenticalJobs pins the single-flight contract at
// the service layer: N concurrent identical specs must execute exactly
// one simulation and all get the same answer.
func TestServeCoalescesIdenticalJobs(t *testing.T) {
	var mu sync.Mutex
	executions := 0
	tune := func(r *exp.Runner) {
		r.SetSimulate(func(_ context.Context, _ *config.Config, workload string, _, _ uint64) (*system.Results, error) {
			mu.Lock()
			executions++
			mu.Unlock()
			time.Sleep(30 * time.Millisecond) // widen the coalescing window
			return stubResults(workload), nil
		})
	}
	_, ts := newTestServer(t, Config{Workers: 8, QueueDepth: 16, tune: tune})

	const callers = 8
	bodies := make([][]byte, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body := postJob(t, ts.URL, JobRequest{Workload: "MP4", Variant: "RWoW-RDE", Seed: 7})
			if status != http.StatusOK {
				t.Errorf("caller %d: status %d body %s", i, status, body)
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	mu.Lock()
	n := executions
	mu.Unlock()
	if n != 1 {
		t.Errorf("%d executions for %d identical jobs, want 1 (single-flight)", n, callers)
	}
	for i := 1; i < callers; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("caller %d body differs from caller 0", i)
		}
	}
}

// TestServeOverloadReturns429 fills the worker and the bounded queue,
// then requires the next job to be rejected with 429 + Retry-After —
// never queued without bound.
func TestServeOverloadReturns429(t *testing.T) {
	release := make(chan struct{})
	var simulating atomic.Int32
	tune := func(r *exp.Runner) {
		r.SetSimulate(func(ctx context.Context, _ *config.Config, workload string, _, _ uint64) (*system.Results, error) {
			simulating.Add(1)
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return stubResults(workload), nil
		})
	}
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, tune: tune})

	// Occupy the worker, then the queue slot. Distinct seeds so the
	// jobs do not coalesce.
	results := make(chan int, 2)
	for seed := 1; seed <= 2; seed++ {
		go func(seed int) {
			status, _ := postJob(t, ts.URL, JobRequest{Workload: "MP4", Variant: "Baseline", Seed: uint64(seed)})
			results <- status
		}(seed)
	}
	// Wait until both jobs are admitted (accepted counter, not timing).
	deadline := time.After(5 * time.Second)
	for {
		if m := scrapeMetrics(t, ts.URL); m["serve_jobs_accepted"] == 2 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("jobs were not admitted in time")
		case <-time.After(time.Millisecond):
		}
	}

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"workload":"MP4","variant":"Baseline","seed":3}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429; body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without a Retry-After hint")
	}
	if kind := decodeErrorKind(t, body); kind != "overloaded" {
		t.Errorf("error kind %q, want overloaded", kind)
	}
	// The queued job waits for the one worker instead of simulating.
	if n := simulating.Load(); n > 1 {
		t.Errorf("%d jobs simulating on 1 worker", n)
	}

	close(release)
	for i := 0; i < 2; i++ {
		if status := <-results; status != http.StatusOK {
			t.Errorf("blocked job finished with %d, want 200", status)
		}
	}
}

// TestServePanicIsolation pins the core robustness contract: a
// panicking job answers a structured 500 while the pool keeps serving
// subsequent jobs.
func TestServePanicIsolation(t *testing.T) {
	tune := func(r *exp.Runner) {
		r.SetSimulate(func(_ context.Context, _ *config.Config, workload string, _, _ uint64) (*system.Results, error) {
			if workload == "stream" {
				panic("pathological job")
			}
			return stubResults(workload), nil
		})
	}
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, tune: tune})

	status, body := postJob(t, ts.URL, JobRequest{Workload: "stream", Variant: "Baseline"})
	if status != http.StatusInternalServerError {
		t.Fatalf("panicking job: status %d, want 500; body %s", status, body)
	}
	if kind := decodeErrorKind(t, body); kind != "panic" {
		t.Errorf("error kind %q, want panic", kind)
	}
	if !strings.Contains(string(body), "pathological job") {
		t.Errorf("error body %s does not carry the panic value", body)
	}

	// The same worker must serve the next job.
	status, body = postJob(t, ts.URL, JobRequest{Workload: "MP4", Variant: "Baseline"})
	if status != http.StatusOK {
		t.Fatalf("healthy job after a panic: status %d body %s", status, body)
	}
	if m := scrapeMetrics(t, ts.URL); m["serve_jobs_panicked"] != 1 {
		t.Errorf("serve_jobs_panicked = %d, want 1", m["serve_jobs_panicked"])
	}
}

// TestServeDeadline requires a client-requested deadline to abort a
// long job with the timeout taxonomy.
func TestServeDeadline(t *testing.T) {
	tune := func(r *exp.Runner) {
		r.SetSimulate(func(ctx context.Context, _ *config.Config, workload string, _, _ uint64) (*system.Results, error) {
			<-ctx.Done() // a long job honoring cooperative cancellation
			return nil, ctx.Err()
		})
	}
	_, ts := newTestServer(t, Config{Workers: 1, tune: tune})

	status, body := postJob(t, ts.URL, JobRequest{Workload: "MP4", Variant: "Baseline", TimeoutMS: 50})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body %s", status, body)
	}
	if kind := decodeErrorKind(t, body); kind != "timeout" {
		t.Errorf("error kind %q, want timeout", kind)
	}
	if m := scrapeMetrics(t, ts.URL); m["serve_jobs_timed_out"] != 1 {
		t.Errorf("serve_jobs_timed_out = %d, want 1", m["serve_jobs_timed_out"])
	}
}

// TestServeFailedJobRunsOnce: a simulation is deterministic, so a job
// that failed would fail again. It runs once and answers failed with
// retryable false.
func TestServeFailedJobRunsOnce(t *testing.T) {
	var mu sync.Mutex
	attempts := 0
	tune := func(r *exp.Runner) {
		r.SetSimulate(func(_ context.Context, _ *config.Config, _ string, _, _ uint64) (*system.Results, error) {
			mu.Lock()
			attempts++
			mu.Unlock()
			return nil, errors.New("wedged")
		})
	}
	_, ts := newTestServer(t, Config{Workers: 1, tune: tune})

	status, body := postJob(t, ts.URL, JobRequest{Workload: "MP4", Variant: "Baseline"})
	if status != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500; body %s", status, body)
	}
	var e struct {
		Error errorBody `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error body %q: %v", body, err)
	}
	if e.Error.Kind != "failed" || e.Error.Retryable {
		t.Errorf("error %+v, want kind failed, retryable false", e.Error)
	}
	mu.Lock()
	n := attempts
	mu.Unlock()
	if n != 1 {
		t.Errorf("%d attempts, want 1", n)
	}
	if m := scrapeMetrics(t, ts.URL); m["serve_jobs_failed"] != 1 {
		t.Errorf("serve_jobs_failed = %d, want 1", m["serve_jobs_failed"])
	}
}

// TestServeInvalidJobs pins the 400 taxonomy for malformed and invalid
// submissions.
func TestServeInvalidJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		body string
	}{
		{"not json", `{{{`},
		{"unknown field", `{"workload":"MP4","variant":"Baseline","bogus":1}`},
		{"missing workload", `{"variant":"Baseline"}`},
		{"unknown workload", `{"workload":"nope","variant":"Baseline"}`},
		{"unknown variant", `{"workload":"MP4","variant":"nope"}`},
		{"bad fault mode", `{"workload":"MP4","variant":"Baseline","fault_mode":"sometimes"}`},
		{"bad drift", `{"workload":"MP4","variant":"Baseline","drift_prob":1.5}`},
		{"negative ratio", `{"workload":"MP4","variant":"Baseline","write_to_read_ratio":-1}`},
		{"ratio below one read tick", `{"workload":"MP4","variant":"Baseline","write_to_read_ratio":1e30}`},
		{"ratio past the read time range", `{"workload":"MP4","variant":"Baseline","write_to_read_ratio":1e-30}`},
		{"negative timeout", `{"workload":"MP4","variant":"Baseline","timeout_ms":-1}`},
		{"budget over cap", `{"workload":"MP4","variant":"Baseline","measure":99000000}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400; body %s", resp.StatusCode, body)
			}
			if kind := decodeErrorKind(t, body); kind != "invalid" {
				t.Errorf("error kind %q, want invalid", kind)
			}
		})
	}
}

// TestServeHealthAndDrainEndpoints covers the probe endpoints across
// the drain transition, and that draining rejects new jobs with 503.
func TestServeHealthAndDrainEndpoints(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})

	for path, want := range map[string]int{"/healthz": 200, "/readyz": 200} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s = %d, want %d", path, resp.StatusCode, want)
		}
	}

	s.BeginDrain()

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining /readyz = %d, want 503", resp.StatusCode)
	}
	// Liveness stays green while draining.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("draining /healthz = %d, want 200", resp.StatusCode)
	}

	status, body := postJob(t, ts.URL, JobRequest{Workload: "MP4", Variant: "Baseline"})
	if status != http.StatusServiceUnavailable {
		t.Errorf("job while draining: status %d, want 503", status)
	}
	if kind := decodeErrorKind(t, body); kind != "draining" {
		t.Errorf("error kind %q, want draining", kind)
	}

	// With no job pending, Drain returns at once, not at its deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Errorf("idle Drain = %v, want nil before the deadline", err)
	}
}

// TestServeMetricsExposition checks the /metrics surface: service
// counters plus aggregated simulation registry rows.
func TestServeMetricsExposition(t *testing.T) {
	tune := func(r *exp.Runner) {
		r.SetSimulate(func(_ context.Context, _ *config.Config, workload string, _, _ uint64) (*system.Results, error) {
			res := stubResults(workload)
			res.Mem.Reads.Add(42)
			return res, nil
		})
	}
	_, ts := newTestServer(t, Config{Workers: 1, tune: tune})

	if status, body := postJob(t, ts.URL, JobRequest{Workload: "MP4", Variant: "Baseline"}); status != 200 {
		t.Fatalf("job failed: %d %s", status, body)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	m := parseMetrics(t, string(text))
	for name, want := range map[string]int64{
		"serve_jobs_accepted":  1,
		"serve_jobs_completed": 1,
		"serve_sims_executed":  1,
		"serve_workers":        1,
		"sim_reads":            42,
	} {
		if m[name] != want {
			t.Errorf("%s = %d, want %d\nfull exposition:\n%s", name, m[name], want, text)
		}
	}
}

// TestServeOneRunnerUnderConcurrentJobs is the lock-discipline test for
// the server's aggregate and its /metrics snapshot: 48 distinct jobs
// posted at once on 4 workers, then the same 48 again, all while
// another goroutine scrapes /metrics. The runner keeps one result in
// memory (MemoLimit 1), and a job at another seed between the passes
// leaves it holding a run the second pass does not ask for, so every
// repeat loads from the disk cache. Under -race, any access to the
// aggregate that skips mu is reported.
func TestServeOneRunnerUnderConcurrentJobs(t *testing.T) {
	tune := func(r *exp.Runner) {
		r.MemoLimit = 1
		r.SetSimulate(func(_ context.Context, _ *config.Config, workload string, _, _ uint64) (*system.Results, error) {
			time.Sleep(time.Millisecond)
			res := stubResults(workload)
			res.Mem.Reads.Add(1)
			return res, nil
		})
	}
	cache, err := exp.NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 48
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: jobs, Cache: cache, tune: tune})

	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if resp, err := http.Get(ts.URL + "/metrics"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()
	for pass := 0; pass < 2; pass++ {
		var wg sync.WaitGroup
		for i := 0; i < jobs; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				job := JobRequest{Workload: "MP4", Variant: "Baseline", Seed: uint64(i + 1)}
				if status, body := postJob(t, ts.URL, job); status != http.StatusOK {
					t.Errorf("pass %d job %d: status %d, body %s", pass, i, status, body)
				}
			}(i)
		}
		wg.Wait()
		if pass == 0 {
			job := JobRequest{Workload: "MP4", Variant: "Baseline", Seed: jobs + 1}
			if status, body := postJob(t, ts.URL, job); status != http.StatusOK {
				t.Fatalf("job between the passes: status %d, body %s", status, body)
			}
		}
	}
	close(stop)
	<-scraped

	m := scrapeMetrics(t, ts.URL)
	if m["serve_sims_executed"] != jobs+1 || m["serve_cache_hits"] != jobs {
		t.Errorf("serve_sims_executed %d, serve_cache_hits %d; want %d and %d",
			m["serve_sims_executed"], m["serve_cache_hits"], jobs+1, jobs)
	}
	if m["serve_jobs_completed"] != 2*jobs+1 || m["sim_reads"] != 2*jobs+1 {
		t.Errorf("serve_jobs_completed %d, sim_reads %d; want %d each",
			m["serve_jobs_completed"], m["sim_reads"], 2*jobs+1)
	}
}

// awaitMetric polls /metrics until the named row reads want.
func awaitMetric(t *testing.T, url, name string, want int64) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		m := scrapeMetrics(t, url)
		if m[name] == want {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("%s = %d, want %d", name, m[name], want)
		case <-time.After(time.Millisecond):
		}
	}
}

// TestServeCoalescedJobKeepsItsDeadline: a job with a 10 s deadline
// that coalesces onto an identical job with a 100 ms deadline answers
// 200 when the one simulation finishes at 300 ms; only the short job
// times out.
func TestServeCoalescedJobKeepsItsDeadline(t *testing.T) {
	var executions atomic.Int32
	entered := make(chan struct{}, 1)
	tune := func(r *exp.Runner) {
		r.SetSimulate(func(ctx context.Context, _ *config.Config, workload string, _, _ uint64) (*system.Results, error) {
			executions.Add(1)
			entered <- struct{}{}
			select {
			case <-time.After(300 * time.Millisecond):
				return stubResults(workload), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		})
	}
	_, ts := newTestServer(t, Config{Workers: 2, tune: tune})

	statuses := make(chan int, 2)
	for i, timeout := range []int64{100, 10_000} {
		go func() {
			status, _ := postJob(t, ts.URL, JobRequest{Workload: "MP4", Variant: "Baseline", TimeoutMS: timeout})
			statuses <- status
		}()
		if i == 0 {
			<-entered
		}
	}
	awaitMetric(t, ts.URL, "serve_workers_busy", 2)
	if short, long := <-statuses, <-statuses; short != http.StatusGatewayTimeout || long != http.StatusOK {
		t.Fatalf("100 ms job answered %d and 10 s job %d, want 504 and 200", short, long)
	}
	if n := executions.Load(); n != 1 {
		t.Errorf("%d executions, want 1", n)
	}
}

// TestServeDepartedClientStopsItsRun: a client that closes its
// connection while its job simulates stops the simulation, frees the
// worker and counts as failed, not completed. With an identical job
// still waiting, the simulation instead runs on, and the caller that
// stayed gets its answer from the one execution.
func TestServeDepartedClientStopsItsRun(t *testing.T) {
	var executions, cancelled atomic.Int32
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	tune := func(r *exp.Runner) {
		r.SetSimulate(func(ctx context.Context, _ *config.Config, workload string, _, _ uint64) (*system.Results, error) {
			executions.Add(1)
			entered <- struct{}{}
			select {
			case <-release:
				return stubResults(workload), nil
			case <-ctx.Done():
				cancelled.Add(1)
				return nil, ctx.Err()
			}
		})
	}
	_, ts := newTestServer(t, Config{Workers: 2, tune: tune})
	// post submits a job that departs when its context is cancelled.
	post := func(ctx context.Context, seed uint64) <-chan int {
		status := make(chan int, 1)
		go func() {
			body := fmt.Sprintf(`{"workload":"MP4","variant":"Baseline","seed":%d}`, seed)
			req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/jobs", strings.NewReader(body))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				status <- 0
				return
			}
			resp.Body.Close()
			status <- resp.StatusCode
		}()
		return status
	}

	// The only client leaves: its run stops.
	ctx, leave := context.WithCancel(context.Background())
	gone := post(ctx, 1)
	<-entered
	leave()
	<-gone
	awaitMetric(t, ts.URL, "serve_workers_busy", 0)
	awaitMetric(t, ts.URL, "serve_jobs_failed", 1)
	if c := cancelled.Load(); c != 1 {
		t.Fatalf("%d simulations cancelled after the only client left, want 1", c)
	}

	// One of two identical clients leaves: the run goes on for the other.
	ctx, leave = context.WithCancel(context.Background())
	defer leave()
	gone = post(ctx, 2)
	<-entered
	stays := post(context.Background(), 2)
	awaitMetric(t, ts.URL, "serve_workers_busy", 2)
	leave()
	<-gone
	awaitMetric(t, ts.URL, "serve_jobs_failed", 2)
	close(release)
	if status := <-stays; status != http.StatusOK {
		t.Fatalf("the client that stayed got %d, want 200", status)
	}
	if n, c := executions.Load(), cancelled.Load(); n != 2 || c != 1 {
		t.Errorf("%d executions and %d cancelled, want 2 and 1", n, c)
	}
	m := scrapeMetrics(t, ts.URL)
	if m["serve_jobs_completed"] != 1 || m["serve_workers_busy"] != 0 {
		t.Errorf("serve_jobs_completed %d, serve_workers_busy %d; want 1 and 0",
			m["serve_jobs_completed"], m["serve_workers_busy"])
	}
}

// scrapeMetrics fetches and parses /metrics into a name -> value map.
func scrapeMetrics(t *testing.T, url string) map[string]int64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parseMetrics(t, string(text))
}

func parseMetrics(t *testing.T, text string) map[string]int64 {
	t.Helper()
	m := map[string]int64{}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		var name string
		var value int64
		if _, err := fmt.Sscanf(line, "%s %d", &name, &value); err != nil {
			t.Fatalf("unparseable metrics line %q: %v", line, err)
		}
		m[name] = value
	}
	return m
}

// TestServeAcceptsRegisteredVariants pins the open-registry contract on
// the wire: every name the variant registry exposes — the paper's six
// plus the follow-on systems (PALP, RWoW-DCA) — is a valid job spec,
// with no serve-side allowlist to fall out of date.
func TestServeAcceptsRegisteredVariants(t *testing.T) {
	tune := func(r *exp.Runner) {
		r.SetSimulate(func(_ context.Context, _ *config.Config, workload string, _, _ uint64) (*system.Results, error) {
			return stubResults(workload), nil
		})
	}
	_, ts := newTestServer(t, Config{Workers: 2, tune: tune})

	names := config.VariantNames()
	if len(names) < 8 {
		t.Fatalf("registry lists %d variants, want the six paper systems plus PALP and RWoW-DCA", len(names))
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			status, body := postJob(t, ts.URL, JobRequest{Workload: "MP4", Variant: name})
			if status != http.StatusOK {
				t.Errorf("variant %q rejected: status %d, body %s", name, status, body)
			}
		})
	}
}
