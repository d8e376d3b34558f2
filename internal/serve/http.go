package serve

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
// whether re-submitting the identical job can help: it is true only
// for overloaded and draining, which describe the server, not the job.
// A simulation is deterministic, so a job that failed fails again.
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

// decodeJob reads one job body, at most maxJobBytes of strict JSON
// (unknown fields rejected), and validates it into an executable task.
// Every failure comes back as an errorBody of kind "invalid" (status
// 400) rather than an error: the taxonomy is part of the wire contract.
func (s *Server) decodeJob(w http.ResponseWriter, body io.ReadCloser) (*task, *errorBody) {
	invalid := func(format string, a ...any) (*task, *errorBody) {
		return nil, &errorBody{Kind: "invalid", Message: fmt.Sprintf(format, a...)}
	}
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, body, maxJobBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return invalid("bad job JSON: %v", err)
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
	spec := exp.Spec{
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
		Warmup:           cmp.Or(req.Warmup, s.cfg.DefaultWarmup),
		Measure:          cmp.Or(req.Measure, s.cfg.DefaultMeasure),
	}
	if err := spec.Validate(); err != nil {
		return invalid("%v", err)
	}
	if req.TimeoutMS < 0 {
		return invalid("timeout_ms %d must be >= 0", req.TimeoutMS)
	}
	if spec.Warmup > s.cfg.MaxBudget || spec.Measure > s.cfg.MaxBudget {
		return invalid("budgets %d/%d exceed the server cap of %d instructions per core",
			spec.Warmup, spec.Measure, s.cfg.MaxBudget)
	}

	// Clamp in milliseconds: converting first overflows time.Duration
	// for large requests and yields a deadline already past.
	timeout := s.cfg.DefaultTimeout
	switch {
	case req.TimeoutMS > s.cfg.MaxTimeout.Milliseconds():
		timeout = s.cfg.MaxTimeout
	case req.TimeoutMS > 0:
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	return &task{spec: spec, timeout: timeout}, nil
}

// handleJob is POST /v1/jobs: decode, admit, run, answer.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	t, berr := s.decodeJob(w, r.Body)
	if berr != nil {
		s.met.rejectedInvalid.Add(1)
		writeError(w, http.StatusBadRequest, *berr)
		return
	}

	switch status := s.admit(); status {
	case 0: // admitted
	case http.StatusTooManyRequests:
		// Retry-After is a hint, not a promise: one default job-time.
		w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfterSeconds(s.cfg.DefaultTimeout)))
		writeError(w, status, errorBody{Kind: "overloaded",
			Message: "admission queue full; retry later", Retryable: true})
		return
	default: // draining
		writeError(w, status, errorBody{Kind: "draining",
			Message: "server is draining; submit to another instance", Retryable: true})
		return
	}
	defer s.release()
	res, err := s.run(r.Context(), t)
	s.answer(w, res, err)
}

// answer classifies one job's outcome into the HTTP response and the
// service counters.
func (s *Server) answer(w http.ResponseWriter, res *system.Results, err error) {
	if err == nil {
		data, encErr := system.EncodeResults(res)
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
		// Forced shutdown or a departed client cancelled the job; the
		// latter reads no answer.
		s.met.failed.Add(1)
		writeError(w, http.StatusServiceUnavailable, errorBody{
			Kind: "draining", Message: "job abandoned at shutdown", Retryable: true})
	default:
		s.met.failed.Add(1)
		writeError(w, http.StatusInternalServerError, errorBody{
			Kind: "failed", Message: err.Error()})
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
