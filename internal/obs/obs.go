// Package obs is the simulator's observability layer: a fixed-capacity,
// allocation-free timeline tracer that components feed with spans (a
// bank busy programming a line), instants (a core stalling on a full
// MSHR), and counter samples (read-queue depth), and that serializes to
// Chrome trace_event JSON for chrome://tracing or Perfetto.
//
// The tracer is built around two constraints:
//
//   - Disabled must be free. Every emit method is nil-receiver safe, so
//     instrumented components hold a plain *Tracer that is nil in normal
//     runs and the fast path is a single predictable branch — no
//     interface dispatch, no allocation, no time formatting.
//
//   - Enabled must not allocate per event. Records are fixed-size
//     structs written into a preallocated ring buffer; names and tracks
//     are interned once at construction time so the hot path passes
//     small integer IDs. When the ring wraps, the oldest records are
//     overwritten and counted in Dropped — a trace is a window onto the
//     end of a run, never a reason to grow memory without bound.
//
// Track and name registration is deterministic (construction order), so
// two runs of the same configuration produce byte-identical trace JSON.
package obs

import "pcmap/internal/sim"

// TrackID identifies one horizontal lane of the timeline (a bank, a
// core, a queue). Tracks are registered at construction time via
// Tracer.Track and grouped into named processes in the trace UI.
type TrackID int32

// NameID is an interned event name. Instrumentation interns its names
// once (Tracer.Name) and passes the IDs on the hot path.
type NameID int32

// Record kinds. The zero value is invalid so a zeroed ring slot is
// recognizable.
const (
	kindInvalid uint8 = iota
	kindSpan
	kindInstant
	kindCount
)

// record is one fixed-size ring slot. 32 bytes.
type record struct {
	start sim.Time
	dur   sim.Time // kindSpan: duration; kindCount: sampled value
	track TrackID
	name  NameID
	kind  uint8
}

type trackInfo struct {
	name     string
	pid, tid int32
}

// Tracer collects timeline records into a ring buffer. It is not safe
// for concurrent use, matching the single-goroutine engine; the -race
// test in this package exists to catch any future violation of that
// pairing, not to bless concurrent emitters.
//
// A nil *Tracer is valid and inert: every method returns immediately.
type Tracer struct {
	ring []record
	// head is the next slot to write.
	head int
	// n is the number of live records (≤ len(ring)).
	n       int
	dropped uint64

	// sampleN thins high-frequency counter records: only every Nth
	// Count call per tracer is kept. Spans and instants are never
	// sampled — they are the records that explain a timeline, and the
	// ring already bounds their cost.
	sampleN  int
	countSeq uint64

	tracks []trackInfo
	names  []string
	// procs holds distinct process names, in registration order.
	procs []string
}

// DefaultCapacity is the ring size used when Option WithCapacity is not
// given: 1<<18 records × 32 bytes = 8 MiB, enough for the full
// measured window of the bundled workloads at default budgets.
const DefaultCapacity = 1 << 18

// New returns an enabled tracer with capacity ring slots (clamped to a
// minimum of 1) and counter sampling 1-in-sample (values < 1 mean "keep
// every sample").
func New(capacity, sample int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	if sample < 1 {
		sample = 1
	}
	return &Tracer{ring: make([]record, capacity), sampleN: sample}
}

// Track registers a timeline lane under a process group ("pcm chan0",
// "cpu", ...) and returns its ID. Call at construction time only; the
// hot path uses the returned ID.
func (t *Tracer) Track(process, name string) TrackID {
	if t == nil {
		return 0
	}
	pid := int32(-1)
	for i, p := range t.procs {
		if p == process {
			pid = int32(i + 1)
			break
		}
	}
	if pid < 0 {
		t.procs = append(t.procs, process)
		pid = int32(len(t.procs))
	}
	tid := int32(1)
	for _, ti := range t.tracks {
		if ti.pid == pid {
			tid++
		}
	}
	id := TrackID(len(t.tracks))
	t.tracks = append(t.tracks, trackInfo{name: name, pid: pid, tid: tid})
	return id
}

// Name interns an event name and returns its ID. Call at construction
// time only.
func (t *Tracer) Name(s string) NameID {
	if t == nil {
		return 0
	}
	for i, n := range t.names {
		if n == s {
			return NameID(i)
		}
	}
	t.names = append(t.names, s)
	return NameID(len(t.names) - 1)
}

// push writes one record into the ring, overwriting the oldest when
// full.
func (t *Tracer) push(r record) {
	t.ring[t.head] = r
	t.head++
	if t.head == len(t.ring) {
		t.head = 0
	}
	if t.n < len(t.ring) {
		t.n++
	} else {
		t.dropped++
	}
}

// Span records a complete interval [start, start+dur) on a track: a
// bank busy with an array read, a request in service, a write drain.
// Emit it when the interval ends — sim time is monotonic, so records
// land in deterministic order. Nil-safe; zero or negative durations are
// clamped to zero so chrome://tracing still renders the marker.
func (t *Tracer) Span(track TrackID, name NameID, start, dur sim.Time) {
	if t == nil {
		return
	}
	if dur < 0 {
		dur = 0
	}
	t.push(record{kind: kindSpan, track: track, name: name, start: start, dur: dur})
}

// Instant records a point event on a track: a stall cause firing, a
// retry, a remap. Nil-safe.
func (t *Tracer) Instant(track TrackID, name NameID, ts sim.Time) {
	if t == nil {
		return
	}
	t.push(record{kind: kindInstant, track: track, name: name, start: ts})
}

// Count records a sampled counter value (queue depth, occupancy) on a
// track. Subject to the tracer's 1-in-N sampling policy. Nil-safe.
func (t *Tracer) Count(track TrackID, name NameID, ts sim.Time, value int64) {
	if t == nil {
		return
	}
	t.countSeq++
	if t.sampleN > 1 && t.countSeq%uint64(t.sampleN) != 0 {
		return
	}
	t.push(record{kind: kindCount, track: track, name: name, start: ts, dur: sim.Time(value)})
}

// Enabled reports whether the tracer records anything. It is the
// documented spelling for guarding instrumentation whose *setup* (not
// emission) would cost something — e.g. computing a span start time.
func (t *Tracer) Enabled() bool { return t != nil }

// Len returns the number of live records.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// Dropped returns how many records were overwritten because the ring
// wrapped. A non-zero value means the trace shows only the tail of the
// run; raise the capacity or the sampling interval.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// each visits live records oldest-first.
func (t *Tracer) each(f func(record)) {
	if t.n == 0 {
		return
	}
	start := t.head - t.n
	if start < 0 {
		start += len(t.ring)
	}
	for i := 0; i < t.n; i++ {
		j := start + i
		if j >= len(t.ring) {
			j -= len(t.ring)
		}
		f(t.ring[j])
	}
}
