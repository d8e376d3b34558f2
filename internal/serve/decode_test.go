package serve

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"pcmap/internal/config"
	"pcmap/internal/exp"
	"pcmap/internal/system"
	"pcmap/internal/workloads"
)

// TestServeClampsLongTimeout: a timeout_ms too large for a
// time.Duration of nanoseconds is clamped to MaxTimeout, not converted
// into a deadline that has already passed.
func TestServeClampsLongTimeout(t *testing.T) {
	tune := func(r *exp.Runner) {
		r.SetSimulate(func(ctx context.Context, _ *config.Config, workload string, _, _ uint64) (*system.Results, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return stubResults(workload), nil
		})
	}
	_, ts := newTestServer(t, Config{Workers: 1, tune: tune})
	for _, ms := range []int64{9_300_000_000_000, 1 << 62, math.MaxInt64} {
		status, body := postJob(t, ts.URL, JobRequest{Workload: "MP4", Variant: "Baseline", TimeoutMS: ms})
		if status != http.StatusOK {
			t.Errorf("timeout_ms %d: status %d, want 200; body %s", ms, status, body)
		}
	}
}

// FuzzDecodeJob: any body either answers a 400 "invalid" error or
// decodes to a task that can run: a valid spec on a known workload,
// budgets within the server cap, and a deadline in (0, MaxTimeout].
func FuzzDecodeJob(f *testing.F) {
	for _, body := range []string{
		// TestServeInvalidJobs' bodies.
		`{{{`,
		`{"workload":"MP4","variant":"Baseline","bogus":1}`,
		`{"variant":"Baseline"}`,
		`{"workload":"nope","variant":"Baseline"}`,
		`{"workload":"MP4","variant":"nope"}`,
		`{"workload":"MP4","variant":"Baseline","fault_mode":"sometimes"}`,
		`{"workload":"MP4","variant":"Baseline","drift_prob":1.5}`,
		`{"workload":"MP4","variant":"Baseline","write_to_read_ratio":-1}`,
		`{"workload":"MP4","variant":"Baseline","write_to_read_ratio":1e30}`,
		`{"workload":"MP4","variant":"Baseline","write_to_read_ratio":1e-30}`,
		`{"workload":"MP4","variant":"Baseline","timeout_ms":-1}`,
		`{"workload":"MP4","variant":"Baseline","measure":99000000}`,
		// A valid job, and a deadline past time.Duration's range.
		`{"workload":"MP4","variant":"RWoW-RDE","warmup":200,"measure":2000,"seed":7,"verify_writes":true,"timeout_ms":50}`,
		`{"workload":"MP4","variant":"Baseline","timeout_ms":` + strconv.FormatInt(9_300_000_000_000, 10) + `}`,
	} {
		f.Add([]byte(body))
	}
	s := New(Config{Workers: 1})
	f.Cleanup(s.Close)
	f.Fuzz(func(t *testing.T, body []byte) {
		tk, berr := s.decodeJob(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)))
		if berr != nil {
			if berr.Kind != "invalid" || berr.Retryable || tk != nil {
				t.Fatalf("rejection %+v (task %v), want a non-retryable invalid error and no task", *berr, tk)
			}
			return
		}
		if _, ok := workloads.MixByName(tk.spec.Workload); !ok {
			t.Errorf("accepted unknown workload %q", tk.spec.Workload)
		}
		if err := tk.spec.Validate(); err != nil {
			t.Errorf("accepted spec fails Validate: %v", err)
		}
		if w, m := tk.spec.Warmup, tk.spec.Measure; w == 0 || w > s.cfg.MaxBudget || m == 0 || m > s.cfg.MaxBudget {
			t.Errorf("budgets %d/%d outside (0, %d]", w, m, s.cfg.MaxBudget)
		}
		if tk.timeout <= 0 || tk.timeout > s.cfg.MaxTimeout {
			t.Errorf("deadline %s outside (0, %s]", tk.timeout, s.cfg.MaxTimeout)
		}
	})
}
