package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"pcmap/internal/config"
	"pcmap/internal/exp"
	"pcmap/internal/system"
)

// TestGracefulDrainOnSIGTERM is the end-to-end drain contract, run
// with real simulations and a real SIGTERM under -race:
//
//   - jobs accepted before the signal all complete with 200;
//   - a request arriving while draining gets an orderly 503;
//   - served Results are byte-identical to the same specs run directly
//     through the exp.Runner (the CLI path);
//   - Main returns exit code 0 after a clean drain.
func TestGracefulDrainOnSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations and signals")
	}

	// Budgets sized so each job runs long enough that several are still
	// in flight when the signal lands and while the late request below
	// makes its round trip — the drain window this test observes is
	// real wall-clock time, so it must outlast an HTTP exchange even as
	// the simulator gets faster.
	const warmup, measure = 1000, 40000
	s := New(Config{Workers: 2, QueueDepth: 8,
		DefaultWarmup: warmup, DefaultMeasure: measure, Logf: t.Logf})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()

	// Real signal plumbing: Notify first, so the raised SIGTERM reaches
	// Main's channel instead of killing the test process.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGTERM)
	defer signal.Stop(sig)

	exit := make(chan int, 1)
	go func() { exit <- s.Main(ln, sig, 30*time.Second) }()
	waitServing(t, base)

	// Load the pool: more jobs than workers so some are still queued
	// when the signal lands. Distinct seeds keep them from coalescing.
	const jobs = 6
	type answer struct {
		seed   uint64
		status int
		body   []byte
	}
	answers := make([]answer, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seed := uint64(i + 1)
			payload := fmt.Sprintf(`{"workload":"MP4","variant":"RWoW-RDE","seed":%d}`, seed)
			resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(payload))
			if err != nil {
				t.Errorf("job %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Errorf("job %d: %v", i, err)
				return
			}
			answers[i] = answer{seed: seed, status: resp.StatusCode, body: body}
		}(i)
	}

	// Wait for every job to be admitted (observable, not timing-based),
	// then deliver the signal while several are still in flight.
	waitMetric(t, base, "serve_jobs_accepted", jobs)
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	// The drain is observable at /readyz; the listener must stay open
	// so late requests get an orderly 503, not a connection reset.
	waitReadyz503(t, base)
	resp, err := http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"workload":"MP4","variant":"RWoW-RDE","seed":99}`))
	if err != nil {
		t.Fatalf("late request during drain: %v", err)
	}
	lateBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("late request: status %d, want 503; body %s", resp.StatusCode, lateBody)
	}
	var e struct {
		Error errorBody `json:"error"`
	}
	if err := json.Unmarshal(lateBody, &e); err != nil || e.Error.Kind != "draining" {
		t.Errorf("late request error body %s, want kind draining (%v)", lateBody, err)
	}

	// Every in-flight job completes, and Main exits 0.
	wg.Wait()
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("Main returned %d, want 0 after a clean drain", code)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Main did not exit after the drain")
	}

	// Byte-identity: replay every spec through a direct runner — the
	// CLI path — and compare the exact bytes the service answered with.
	ref := exp.NewRunner()
	ref.Warmup, ref.Measure = warmup, measure
	for _, a := range answers {
		if a.status != http.StatusOK {
			t.Errorf("seed %d: status %d, want 200 (in-flight jobs must complete); body %s",
				a.seed, a.status, a.body)
			continue
		}
		res, err := ref.Run(exp.Spec{Workload: "MP4", Variant: config.RWoWRDE, Seed: a.seed})
		if err != nil {
			t.Fatal(err)
		}
		want, err := system.EncodeResults(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.body, want) {
			t.Errorf("seed %d: served Results are not byte-identical to the direct run", a.seed)
		}
	}
}

// TestForcedExitOnSecondSignal: a drain that cannot finish (a job
// blocks forever) is cut short by a second signal, returning 130.
func TestForcedExitOnSecondSignal(t *testing.T) {
	tune := func(r *exp.Runner) {
		r.SetSimulate(func(ctx context.Context, _ *config.Config, workload string, _, _ uint64) (*system.Results, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		})
	}
	s := New(Config{Workers: 1, DefaultTimeout: time.Minute, Logf: t.Logf, tune: tune})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()

	sig := make(chan os.Signal, 2)
	exit := make(chan int, 1)
	go func() { exit <- s.Main(ln, sig, time.Minute) }()
	waitServing(t, base)

	go func() {
		// The job blocks its worker until the minute-long deadline; the
		// response does not matter here.
		resp, err := http.Post(base+"/v1/jobs", "application/json",
			strings.NewReader(`{"workload":"MP4","variant":"Baseline"}`))
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitMetric(t, base, "serve_jobs_accepted", 1)

	sig <- syscall.SIGTERM // begin drain; the stuck job never finishes
	waitReadyz503(t, base)
	sig <- syscall.SIGTERM // force

	select {
	case code := <-exit:
		if code != 130 {
			t.Fatalf("Main returned %d, want 130 on a forced second signal", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Main did not force-exit on the second signal")
	}
	s.Close() // unblock the stuck worker via baseCancel
}

// TestMainExitsOnFailedListener: when the listener fails, Main does
// not wait for a signal that may never come; it returns 1.
func TestMainExitsOnFailedListener(t *testing.T) {
	s := New(Config{Workers: 1, Logf: t.Logf})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	exit := make(chan int, 1)
	go func() { exit <- s.Main(ln, make(chan os.Signal), time.Second) }()
	select {
	case code := <-exit:
		if code != 1 {
			t.Fatalf("Main returned %d on a failed listener, want 1", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Main did not return after its listener failed")
	}
}

// waitServing polls /healthz until the listener answers.
func waitServing(t *testing.T, base string) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		select {
		case <-deadline:
			t.Fatal("server never came up")
		case <-time.After(time.Millisecond):
		}
	}
}

// waitMetric polls /metrics until name reaches at least want.
func waitMetric(t *testing.T, base string, name string, want int64) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		if m := scrapeMetrics(t, base); m[name] >= want {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("%s never reached %d", name, want)
		case <-time.After(time.Millisecond):
		}
	}
}

// waitReadyz503 polls /readyz until the drain is observable.
func waitReadyz503(t *testing.T, base string) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusServiceUnavailable {
				return
			}
		}
		select {
		case <-deadline:
			t.Fatal("readyz never reported draining")
		case <-time.After(time.Millisecond):
		}
	}
}
