// Package metricscomplete exercises the metrics-lifecycle analyzer: a
// Metrics struct whose counters list forgets one counter and whose
// Reset forgets one tracker.
package metricscomplete

import "fixture/stats"

// Metrics has deliberate gaps; each missing-field diagnostic anchors on
// the field declaration.
type Metrics struct {
	Reads  stats.Counter
	Writes stats.Counter

	Dropped stats.Counter // want `field Dropped is not handled in \(Metrics\)\.counters`

	ReadLatency *stats.LatencyTracker
	LostTracker *stats.LatencyTracker // want `field LostTracker is not handled in \(Metrics\)\.Reset`

	label string // non-stats fields are not lifecycle-checked
}

type counterRef struct {
	name string
	c    *stats.Counter
}

// counters lists every counter but Dropped.
func (m *Metrics) counters() []counterRef {
	return []counterRef{
		{"reads", &m.Reads},
		{"writes", &m.Writes},
	}
}

// Merge adds pairwise through the counters list.
func (m *Metrics) Merge(other *Metrics) {
	dst, src := m.counters(), other.counters()
	for i := range dst {
		dst[i].c.Add(src[i].c.Value())
	}
}

// Reset zeroes the counters list but forgets LostTracker.
func (m *Metrics) Reset() {
	for _, r := range m.counters() {
		*r.c = stats.Counter{}
	}
	m.ReadLatency = stats.NewLatencyTracker()
	m.label = ""
}

// Counters renders the counters list.
func (m *Metrics) Counters() []string {
	var names []string
	for _, r := range m.counters() {
		names = append(names, r.name)
	}
	return names
}
