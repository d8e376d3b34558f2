package serve

import (
	"fmt"
	"net/http"
	"sync/atomic"

	"pcmap/internal/mem"
)

// svcCounters are the service-level counters. They are atomics, unlike
// the simulation's stats.Counter fields, because concurrent HTTP
// handlers touch them (stats counters are single-goroutine by design).
type svcCounters struct {
	accepted         atomic.Uint64
	rejectedQueue    atomic.Uint64
	rejectedDraining atomic.Uint64
	rejectedInvalid  atomic.Uint64
	completed        atomic.Uint64
	failed           atomic.Uint64
	panicked         atomic.Uint64
	timedOut         atomic.Uint64
}

// handleMetrics is GET /metrics: a flat text exposition (Prometheus
// style, name value per line) of the service counters followed by the
// simulation counters aggregated over every completed job.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	sims, _, _ := s.runner.Totals()
	hits := s.runner.CacheHits()
	// Snapshot the aggregate under mu; render after.
	s.mu.Lock()
	agg := append([]mem.NamedCounter(nil), s.agg...)
	s.mu.Unlock()
	// Waiting jobs hold an admission token but no running one; the two
	// lengths are read apart, so clamp the difference at 0.
	running := len(s.running)
	waiting := max(len(s.admitted)-running, 0)

	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	rows := []struct {
		name  string
		value int64
	}{
		{"serve_jobs_accepted", int64(s.met.accepted.Load())},
		{"serve_jobs_rejected_queue_full", int64(s.met.rejectedQueue.Load())},
		{"serve_jobs_rejected_draining", int64(s.met.rejectedDraining.Load())},
		{"serve_jobs_rejected_invalid", int64(s.met.rejectedInvalid.Load())},
		{"serve_jobs_completed", int64(s.met.completed.Load())},
		{"serve_jobs_failed", int64(s.met.failed.Load())},
		{"serve_jobs_panicked", int64(s.met.panicked.Load())},
		{"serve_jobs_timed_out", int64(s.met.timedOut.Load())},
		{"serve_queue_depth", int64(waiting)},
		{"serve_queue_capacity", int64(s.cfg.QueueDepth)},
		{"serve_workers", int64(s.cfg.Workers)},
		{"serve_workers_busy", int64(running)},
		{"serve_sims_executed", int64(sims)},
		{"serve_cache_hits", int64(hits)},
		{"serve_draining", boolMetric(s.draining.Load())},
	}
	for _, row := range rows {
		fmt.Fprintf(w, "%s %d\n", row.name, row.value)
	}
	// The simulation counters follow as sim_<name> rows, in the
	// metrics report's fixed order.
	for _, nc := range agg {
		fmt.Fprintf(w, "sim_%s %d\n", nc.Name, nc.Value)
	}
}

func boolMetric(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
