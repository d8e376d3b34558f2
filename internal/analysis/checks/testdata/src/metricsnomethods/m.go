// Package metricsnomethods has a Metrics struct with counters but no
// lifecycle methods at all.
package metricsnomethods

import "fixture/stats"

// Metrics lacks Merge, Reset, Counters, and counters entirely.
type Metrics struct { // want `no Merge method` `no Reset method` `no Counters method` `no counters method`
	Hits stats.Counter
}
