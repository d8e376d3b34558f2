// Package stats is a fixture stand-in for pcmap/internal/stats.
package stats

// Counter is a monotonic event count.
type Counter struct{ n uint64 }

// Add increments by d.
func (c *Counter) Add(d uint64) { c.n += d }

// Value returns the count.
func (c *Counter) Value() uint64 { return c.n }

// LatencyTracker mirrors the real tracker shape.
type LatencyTracker struct{ sum int64 }

// NewLatencyTracker returns an empty tracker.
func NewLatencyTracker() *LatencyTracker { return &LatencyTracker{} }
