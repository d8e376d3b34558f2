package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"pcmap/internal/config"
	"pcmap/internal/exp"
	"pcmap/internal/system"
	"pcmap/internal/workloads"
)

// maxJobBytes bounds a job request body. A spec is a few hundred bytes;
// anything larger is a client bug or abuse, rejected before parsing.
const maxJobBytes = 1 << 16

// JobRequest is the wire format of one simulation job. Field semantics
// mirror the pcmapsim adhoc flags; zero values mean "server default"
// for budgets and timeout and "off" for the knobs.
type JobRequest struct {
	Workload string `json:"workload"`
	Variant  string `json:"variant"`

	Warmup  uint64 `json:"warmup,omitempty"`
	Measure uint64 `json:"measure,omitempty"`
	Seed    uint64 `json:"seed,omitempty"`

	WriteToReadRatio float64 `json:"write_to_read_ratio,omitempty"`
	Symmetric        bool    `json:"symmetric,omitempty"`
	FaultMode        string  `json:"fault_mode,omitempty"`
	WritePausing     bool    `json:"write_pausing,omitempty"`
	EnduranceBudget  uint64  `json:"endurance_budget,omitempty"`
	DriftProb        float64 `json:"drift_prob,omitempty"`
	VerifyWrites     bool    `json:"verify_writes,omitempty"`

	// TimeoutMS requests a per-job deadline in milliseconds; 0 takes
	// the server default and values above the server cap are clamped.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// errorBody is the JSON error answer:
//
//	{"error": {"kind": "timeout", "message": "...", "retryable": false}}
//
// Kind is the stable, machine-matchable taxonomy: invalid | overloaded
// | draining | timeout | panic | failed. Retryable tells the client
// whether re-submitting the identical job can help.
type errorBody struct {
	Kind      string `json:"kind"`
	Message   string `json:"message"`
	Retryable bool   `json:"retryable"`
}

func writeError(w http.ResponseWriter, status int, body errorBody) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(struct {
		Error errorBody `json:"error"`
	}{body})
}

// parseJob validates one request into an executable task. Validation
// errors come back as an errorBody (always kind "invalid", status 400)
// rather than an error: the taxonomy is part of the wire contract.
func (s *Server) parseJob(req JobRequest) (*task, *errorBody) {
	invalid := func(format string, a ...any) (*task, *errorBody) {
		return nil, &errorBody{Kind: "invalid", Message: fmt.Sprintf(format, a...)}
	}
	if req.Workload == "" {
		return invalid("missing workload")
	}
	if _, ok := workloads.MixByName(req.Workload); !ok {
		return invalid("unknown workload %q", req.Workload)
	}
	variant, err := config.ParseVariant(req.Variant)
	if err != nil {
		return invalid("%v", err)
	}
	switch req.FaultMode {
	case "", "always", "never":
	default:
		return invalid("unknown fault_mode %q (want empty, always, or never)", req.FaultMode)
	}
	if req.WriteToReadRatio != 0 {
		if err := config.Default().Memory.CheckWriteToReadRatio(req.WriteToReadRatio); err != nil {
			return invalid("write_to_read_ratio: %v", err)
		}
	}
	if !(req.DriftProb >= 0 && req.DriftProb < 1) {
		return invalid("drift_prob %g must be in [0,1)", req.DriftProb)
	}
	if req.TimeoutMS < 0 {
		return invalid("timeout_ms %d must be >= 0", req.TimeoutMS)
	}
	warmup, measure := req.Warmup, req.Measure
	if warmup == 0 {
		warmup = s.cfg.DefaultWarmup
	}
	if measure == 0 {
		measure = s.cfg.DefaultMeasure
	}
	if warmup > s.cfg.MaxBudget || measure > s.cfg.MaxBudget {
		return invalid("budgets %d/%d exceed the server cap of %d instructions per core",
			warmup, measure, s.cfg.MaxBudget)
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
	}

	t := &task{
		spec: exp.Spec{
			Workload:         req.Workload,
			Variant:          variant,
			WriteToReadRatio: req.WriteToReadRatio,
			Symmetric:        req.Symmetric,
			FaultMode:        req.FaultMode,
			WritePausing:     req.WritePausing,
			EnduranceBudget:  req.EnduranceBudget,
			DriftProb:        req.DriftProb,
			VerifyWrites:     req.VerifyWrites,
			Seed:             req.Seed,
		},
		warmup:  warmup,
		measure: measure,
		done:    make(chan struct{}),
	}
	// The deadline covers queue wait plus execution: a job that sat
	// queued past its deadline answers timeout without ever simulating.
	t.ctx, t.cancel = context.WithTimeout(s.baseCtx, timeout)
	return t, nil
}

// handleJob is POST /v1/jobs: parse, admit, wait, answer.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.met.rejectedInvalid.Add(1)
		writeError(w, http.StatusBadRequest, errorBody{
			Kind: "invalid", Message: fmt.Sprintf("bad job JSON: %v", err)})
		return
	}
	t, berr := s.parseJob(req)
	if berr != nil {
		s.met.rejectedInvalid.Add(1)
		writeError(w, http.StatusBadRequest, *berr)
		return
	}

	switch status := s.admit(t); status {
	case 0: // admitted
	case http.StatusTooManyRequests:
		t.cancel()
		// Retry-After is a hint, not a promise: one default job-time.
		w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfterSeconds(s.cfg.DefaultTimeout)))
		writeError(w, status, errorBody{Kind: "overloaded",
			Message: "admission queue full; retry later", Retryable: true})
		return
	default: // draining
		t.cancel()
		writeError(w, status, errorBody{Kind: "draining",
			Message: "server is draining; submit to another instance", Retryable: true})
		return
	}

	// The worker owns t.done; the job context deadline (which also
	// covers queue wait, and which Close cancels at forced shutdown)
	// bounds how long this handler can block.
	select {
	case <-t.done:
	case <-t.ctx.Done():
	}
	s.answer(w, t)
}

// answer classifies one finished (or abandoned) task into the HTTP
// response and the service counters.
func (s *Server) answer(w http.ResponseWriter, t *task) {
	var err error
	select {
	case <-t.done:
		err = t.err // t.res/t.err writes happen-before close(t.done)
	default:
		// The job context ended before a worker finished the task (it
		// may never have been picked up): the deadline is the answer,
		// and t.res/t.err must not be touched — the worker may still be
		// writing them.
		err = t.ctx.Err()
	}
	if err == nil {
		data, encErr := system.EncodeResults(t.res)
		if encErr != nil {
			s.met.failed.Add(1)
			writeError(w, http.StatusInternalServerError, errorBody{
				Kind: "failed", Message: encErr.Error()})
			return
		}
		s.met.completed.Add(1)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(data)
		return
	}

	var pe *exp.JobPanicError
	switch {
	case errors.As(err, &pe):
		s.met.panicked.Add(1)
		writeError(w, http.StatusInternalServerError, errorBody{
			Kind: "panic", Message: pe.Error()})
	case errors.Is(err, context.DeadlineExceeded):
		s.met.timedOut.Add(1)
		writeError(w, http.StatusGatewayTimeout, errorBody{
			Kind: "timeout", Message: "job deadline exceeded"})
	case errors.Is(err, context.Canceled):
		// Only forced shutdown cancels job contexts.
		s.met.failed.Add(1)
		writeError(w, http.StatusServiceUnavailable, errorBody{
			Kind: "draining", Message: "job abandoned at shutdown", Retryable: true})
	default:
		s.met.failed.Add(1)
		writeError(w, http.StatusInternalServerError, errorBody{
			Kind: "failed", Message: err.Error(), Retryable: exp.IsRetryable(err)})
	}
}

// retryAfterSeconds renders a Retry-After hint, at least one second.
func retryAfterSeconds(d time.Duration) int {
	s := int(d / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

// handleHealthz is liveness: the process is up and serving HTTP.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is readiness: 503 once draining so load balancers stop
// routing new work here while in-flight jobs finish.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}
