package mem

import (
	"sync"

	"pcmap/internal/sim"
	"pcmap/internal/stats"
)

// Metrics aggregates everything the paper's evaluation section measures
// for one memory channel. The experiment harness merges channels.
type Metrics struct {
	Reads        stats.Counter
	Writes       stats.Counter
	SilentWrites stats.Counter // write-backs with zero essential words

	ReadLatency  *stats.LatencyTracker // arrival to data return
	WriteLatency *stats.LatencyTracker // arrival to final chip update

	ReadsDelayedByWrite stats.Counter // Figure 1 numerator

	DirtyWords *stats.Histogram // Figure 2: essential words per write

	RoWServed     stats.Counter // reads served by reconstruction
	RoWVerifies   stats.Counter
	RoWFaulty     stats.Counter // verifications that found bad data
	WoWOverlapped stats.Counter // writes issued while another write ongoing
	OverlapReads  stats.Counter // reads issued while a write was in service

	// Partition-level parallelism (the PALP variant). A "part overlap"
	// is an access that proceeded only because the conflicting work sat
	// in a different partition of its bank — exactly the service the
	// whole-bank scheduler would have delayed.
	PartOverlapReads  stats.Counter
	PartOverlapWrites stats.Counter

	// Content-aware write distributions (the RWoW-DCA variant): SET and
	// RESET transition counts per serviced write, over the whole line
	// (0..512 bits). Empty on variants without ContentAware observation.
	SetBits   *stats.Histogram
	ResetBits *stats.Histogram

	ECCCorrected stats.Counter // SECDED single-bit corrections on reads

	// Reliability path (fault injection + program-and-verify; the
	// counters cross-check against pcm.FaultModel's injection counts).
	SECDEDCorrected  stats.Counter         // read words repaired by SECDED (data bit)
	SECDEDCheckFixed stats.Counter         // check-word-only errors found by SECDED
	PCCRecovered     stats.Counter         // double-bit words rebuilt from PCC parity
	UncorrectedReads stats.Counter         // reads reported with a typed uncorrectable error
	WriteVerifies    stats.Counter         // writes that entered program-and-verify
	VerifyReads      stats.Counter         // verify read-back operations (initial + per retry)
	WriteRetries     stats.Counter         // re-program attempts after a verify mismatch
	WriteRemaps      stats.Counter         // lines remapped to the spare pool
	RemapFailures    stats.Counter         // remaps abandoned: spare pool exhausted
	VerifyLatency    *stats.LatencyTracker // verify/retry time appended past the write's program end

	DrainEntries stats.Counter
	WriteQStalls stats.Counter // enqueue attempts rejected: write queue full
	ReadQStalls  stats.Counter
	StatusPolls  stats.Counter
	WearMoves    stats.Counter // Start-Gap line copies
	WritePauses  stats.Counter // write-pausing segment interruptions

	FirstArrival sim.Time
	LastDone     sim.Time
	// HaveArrival distinguishes "no request observed" from a first
	// arrival at time zero. Exported so the whole block (and therefore
	// system.Results) serializes for the experiment runner's disk cache;
	// treat it as read-only outside NoteArrival/Merge/Reset.
	HaveArrival bool
}

// NewMetrics returns a zeroed metrics block with its trackers allocated.
func NewMetrics() *Metrics {
	return &Metrics{
		ReadLatency:   stats.NewLatencyTracker(),
		WriteLatency:  stats.NewLatencyTracker(),
		VerifyLatency: stats.NewLatencyTracker(),
		DirtyWords:    stats.NewHistogram(9),
		SetBits:       stats.NewHistogram(513),
		ResetBits:     stats.NewHistogram(513),
	}
}

// metricsPool recycles the controllers' metrics blocks across systems:
// a sweep builds one system after another, and each channel's latency
// trackers would otherwise grow their bucket arrays again.
var metricsPool = sync.Pool{New: func() any { return NewMetrics() }}

// PooledMetrics returns an empty metrics block from the pool. It
// behaves as one from NewMetrics in every output; only its trackers'
// spare capacity differs.
func PooledMetrics() *Metrics { return metricsPool.Get().(*Metrics) }

// Release empties m to a fresh block's state, its latency trackers back
// to length 0 with their capacity kept, and returns it to the pool. m
// must not be used afterwards.
func (m *Metrics) Release() {
	m.Reset()
	m.ReadLatency.Recycle()
	m.WriteLatency.Recycle()
	m.VerifyLatency.Recycle()
	metricsPool.Put(m)
}

// counterRef is one counter field of a Metrics block under its report
// name.
type counterRef struct {
	name string
	c    *stats.Counter
}

// counters lists every counter field under its report name, in the
// report's fixed order: append only at the end, as report
// compatibility demands. Reset, Merge and Counters all walk this list.
// The pcmaplint metricscomplete analyzer checks that no counter field
// is missing here.
func (m *Metrics) counters() []counterRef {
	return []counterRef{
		{"reads", &m.Reads},
		{"writes", &m.Writes},
		{"silent_writes", &m.SilentWrites},
		{"reads_delayed_by_write", &m.ReadsDelayedByWrite},
		{"row_served", &m.RoWServed},
		{"row_verifies", &m.RoWVerifies},
		{"row_faulty", &m.RoWFaulty},
		{"wow_overlapped", &m.WoWOverlapped},
		{"overlap_reads", &m.OverlapReads},
		{"ecc_corrected", &m.ECCCorrected},
		{"secded_corrected", &m.SECDEDCorrected},
		{"secded_check_fixed", &m.SECDEDCheckFixed},
		{"pcc_recovered", &m.PCCRecovered},
		{"uncorrected_reads", &m.UncorrectedReads},
		{"write_verifies", &m.WriteVerifies},
		{"verify_reads", &m.VerifyReads},
		{"write_retries", &m.WriteRetries},
		{"write_remaps", &m.WriteRemaps},
		{"remap_failures", &m.RemapFailures},
		{"drain_entries", &m.DrainEntries},
		{"writeq_stalls", &m.WriteQStalls},
		{"readq_stalls", &m.ReadQStalls},
		{"status_polls", &m.StatusPolls},
		{"wear_moves", &m.WearMoves},
		{"write_pauses", &m.WritePauses},
		{"part_overlap_reads", &m.PartOverlapReads},
		{"part_overlap_writes", &m.PartOverlapWrites},
	}
}

// NoteArrival records the first request arrival (throughput window).
func (m *Metrics) NoteArrival(t sim.Time) {
	if !m.HaveArrival || t < m.FirstArrival {
		m.FirstArrival = t
		m.HaveArrival = true
	}
}

// NoteDone records a completion time (throughput window).
func (m *Metrics) NoteDone(t sim.Time) {
	if t > m.LastDone {
		m.LastDone = t
	}
}

// WriteThroughput returns completed writes per microsecond over the
// observed window (Figure 9's metric before normalization).
func (m *Metrics) WriteThroughput() float64 {
	window := m.LastDone - m.FirstArrival
	if window <= 0 {
		return 0
	}
	return float64(m.Writes.Value()) / window.Microseconds()
}

// Reset returns the metrics block to its freshly-constructed state.
// Used to discard warmup-phase measurements in place. Trackers reset in
// place, keeping their grown storage — the warmup-discard reset runs
// once per channel per simulation and used to rebuild ~2.4 MB of
// latency buckets each time.
func (m *Metrics) Reset() {
	for _, r := range m.counters() {
		*r.c = stats.Counter{}
	}
	m.ReadLatency.Reset()
	m.WriteLatency.Reset()
	m.VerifyLatency.Reset()
	m.DirtyWords.Reset()
	m.SetBits.Reset()
	m.ResetBits.Reset()
	m.FirstArrival = 0
	m.LastDone = 0
	m.HaveArrival = false
}

// NamedCounter is one row of the Counters report.
type NamedCounter struct {
	Name  string
	Value uint64
}

// Counters lists every counter in the report's fixed order, for report
// output and the serve layer's /metrics aggregate.
func (m *Metrics) Counters() []NamedCounter {
	refs := m.counters()
	out := make([]NamedCounter, len(refs))
	for i, r := range refs {
		out[i] = NamedCounter{Name: r.name, Value: r.c.Value()}
	}
	return out
}

// Merge folds other into m (used to aggregate channels). Counters add
// pairwise; latency trackers and histograms are merged bucket-wise.
func (m *Metrics) Merge(other *Metrics) {
	dst, src := m.counters(), other.counters()
	for i := range dst {
		dst[i].c.Add(src[i].c.Value())
	}
	stats.MergeLatency(m.ReadLatency, other.ReadLatency)
	stats.MergeLatency(m.WriteLatency, other.WriteLatency)
	stats.MergeLatency(m.VerifyLatency, other.VerifyLatency)
	stats.MergeHistogram(m.DirtyWords, other.DirtyWords)
	stats.MergeHistogram(m.SetBits, other.SetBits)
	stats.MergeHistogram(m.ResetBits, other.ResetBits)
	if other.HaveArrival {
		m.NoteArrival(other.FirstArrival)
	}
	m.NoteDone(other.LastDone)
}
