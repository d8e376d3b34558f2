// Package stats collects the measurements the paper reports: intra-rank
// level parallelism (IRLP) during writes, effective read latency, write
// throughput, dirty-word distributions, and IPC, plus generic counters
// and histograms and a small table renderer for paper-style output.
package stats

import (
	"fmt"
	"math"
	"strings"

	"pcmap/internal/sim"
)

// Counter is a named monotonically increasing count.
type Counter struct {
	n uint64
}

// Add increments the counter by d.
func (c *Counter) Add(d uint64) { c.n += d }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Mean accumulates a running arithmetic mean.
type Mean struct {
	sum float64
	n   uint64
}

// Add folds a sample into the mean.
func (m *Mean) Add(x float64) { m.sum += x; m.n++ }

// Value returns the mean, or zero when no samples were added.
func (m *Mean) Value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// Count returns the number of samples folded in.
func (m *Mean) Count() uint64 { return m.n }

// Sum returns the raw accumulated sum.
func (m *Mean) Sum() float64 { return m.sum }

// Histogram is a fixed-bucket integer histogram over [0, len(buckets)).
// Samples outside the range clamp to the nearest bucket.
type Histogram struct {
	buckets []uint64
	total   uint64
}

// NewHistogram returns a histogram with n buckets for values 0..n-1.
func NewHistogram(n int) *Histogram { return &Histogram{buckets: make([]uint64, n)} }

// Add records one occurrence of value v.
func (h *Histogram) Add(v int) {
	if v < 0 {
		v = 0
	}
	if v >= len(h.buckets) {
		v = len(h.buckets) - 1
	}
	h.buckets[v]++
	h.total++
}

// Total returns the number of samples recorded.
func (h *Histogram) Total() uint64 { return h.total }

// Count returns the number of samples equal to v.
func (h *Histogram) Count(v int) uint64 {
	if v < 0 || v >= len(h.buckets) {
		return 0
	}
	return h.buckets[v]
}

// Fraction returns the share of samples equal to v, in [0,1].
func (h *Histogram) Fraction(v int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Count(v)) / float64(h.total)
}

// MeanValue returns the average sample value.
func (h *Histogram) MeanValue() float64 {
	if h.total == 0 {
		return 0
	}
	var s float64
	for v, n := range h.buckets {
		s += float64(v) * float64(n)
	}
	return s / float64(h.total)
}

// Buckets returns a copy of the raw bucket counts.
func (h *Histogram) Buckets() []uint64 { return append([]uint64(nil), h.buckets...) }

// Reset empties the histogram in place, keeping the bucket array.
func (h *Histogram) Reset() {
	clear(h.buckets)
	h.total = 0
}

// LatencyTracker accumulates request latencies and reports mean and
// selected percentiles. It stores samples compactly in nanosecond
// buckets (1 ns resolution up to 100 us, which is ample for memory
// request latencies). The bucket array grows on demand up to that
// range: memory request latencies cluster in the low hundreds of
// nanoseconds, so the physical array stays a few KB instead of the
// 800 KB a fully materialized range would cost — per channel, and
// rebuilt on every warmup reset, that difference dominated the
// simulator's own heap churn.
type LatencyTracker struct {
	buckets []uint64 // 1 ns resolution, grown on demand
	total   uint64
	sumNS   float64
	maxNS   float64
}

const latencyBucketCount = 100000

// NewLatencyTracker returns an empty tracker.
func NewLatencyTracker() *LatencyTracker {
	return &LatencyTracker{}
}

// Add records one latency.
func (l *LatencyTracker) Add(d sim.Time) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	i := int(ns)
	if i >= latencyBucketCount {
		i = latencyBucketCount - 1
	}
	if i >= len(l.buckets) {
		l.grow(i)
	}
	l.buckets[i]++
	l.total++
	l.sumNS += ns
	if ns > l.maxNS {
		l.maxNS = ns
	}
}

// grow extends the physical bucket array to cover index i, doubling so
// repeated growth stays amortized-constant. The new length depends only
// on the current length and i, never on the capacity, so a recycled
// tracker grows through exactly the lengths a fresh one does: the
// length reaches outputs (MergeLatency sizes by it, MarshalJSON writes
// it). Within the capacity the array is re-extended and its new tail
// zeroed, since a recycled tracker's spare capacity holds old counts.
func (l *LatencyTracker) grow(i int) {
	n := len(l.buckets) * 2
	if n < 1024 {
		n = 1024
	}
	for n <= i {
		n *= 2
	}
	if n > latencyBucketCount {
		n = latencyBucketCount
	}
	if n <= cap(l.buckets) {
		old := len(l.buckets)
		l.buckets = l.buckets[:n]
		clear(l.buckets[old:])
		return
	}
	nb := make([]uint64, n)
	copy(nb, l.buckets)
	l.buckets = nb
}

// Reset empties the tracker in place, keeping the grown bucket array
// so steady-state reuse (warmup-discard resets) does not reallocate.
func (l *LatencyTracker) Reset() {
	clear(l.buckets)
	l.total, l.sumNS, l.maxNS = 0, 0, 0
}

// Recycle returns the tracker to a fresh tracker's state for reuse by
// another simulation: its length goes back to 0, so it grows through
// the same lengths as a fresh tracker, while its capacity is kept, so
// regrowing to it does not allocate.
func (l *LatencyTracker) Recycle() {
	l.buckets = l.buckets[:0]
	l.total, l.sumNS, l.maxNS = 0, 0, 0
}

// Count returns the number of samples.
func (l *LatencyTracker) Count() uint64 { return l.total }

// MeanNS returns the mean latency in nanoseconds.
func (l *LatencyTracker) MeanNS() float64 {
	if l.total == 0 {
		return 0
	}
	return l.sumNS / float64(l.total)
}

// MaxNS returns the maximum recorded latency in nanoseconds.
func (l *LatencyTracker) MaxNS() float64 { return l.maxNS }

// PercentileNS returns the p-th percentile (0<p<100) in nanoseconds.
func (l *LatencyTracker) PercentileNS(p float64) float64 {
	if l.total == 0 {
		return 0
	}
	target := uint64(math.Ceil(float64(l.total) * p / 100))
	var c uint64
	for i, n := range l.buckets {
		c += n
		if c >= target {
			return float64(i)
		}
	}
	return float64(latencyBucketCount - 1)
}

// Table is a minimal result-table builder that renders Markdown or CSV,
// used by the experiment harness to print paper-style rows.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends one row of pre-formatted cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Markdown renders the table as GitHub-flavored Markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "### %s\n\n", t.Title)
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(t.Headers, " | "))
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = "---"
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(sep, " | "))
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "| %s |\n", strings.Join(r, " | "))
	}
	return b.String()
}

// CSV renders the table as comma-separated values (no quoting; cells in
// this project never contain commas).
func (t *Table) CSV() string {
	var b strings.Builder
	fmt.Fprintln(&b, strings.Join(t.Headers, ","))
	for _, r := range t.Rows {
		fmt.Fprintln(&b, strings.Join(r, ","))
	}
	return b.String()
}

// F formats a float for table cells.
func F(x float64) string { return fmt.Sprintf("%.2f", x) }

// Pct formats a ratio as a percentage for table cells.
func Pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// N formats an integer count for table cells.
func N(x uint64) string { return fmt.Sprintf("%d", x) }

// ArithMean returns the arithmetic mean of xs (zero for empty input).
func ArithMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
