package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"pcmap/internal/sim"
)

// JSON codecs for the measurement types, so a *system.Results (and the
// mem.Metrics block inside it) round-trips through encoding/json with
// full fidelity. The experiment runner's disk-backed result cache
// depends on this: a resumed sweep must reproduce byte-identical report
// output from cached results, so every count, bucket, and float must
// survive the trip exactly. encoding/json emits float64 in the shortest
// form that parses back to the same bits, so sums and means stored here
// are exact, not approximations.

// MarshalJSON encodes the counter as its bare count.
func (c Counter) MarshalJSON() ([]byte, error) {
	return json.Marshal(c.n)
}

// UnmarshalJSON decodes a bare count.
func (c *Counter) UnmarshalJSON(data []byte) error {
	return json.Unmarshal(data, &c.n)
}

// histogramJSON is Histogram's wire form: the dense bucket slice (these
// histograms are small — Figure 2's has nine buckets) plus the sample
// total.
type histogramJSON struct {
	Buckets []uint64 `json:"buckets"`
	Total   uint64   `json:"total"`
}

// MarshalJSON encodes the histogram's buckets and total.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	return json.Marshal(histogramJSON{Buckets: h.buckets, Total: h.total})
}

// UnmarshalJSON decodes a histogram produced by MarshalJSON.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var w histogramJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	h.buckets, h.total = w.Buckets, w.Total
	return nil
}

// latencyJSON is LatencyTracker's wire form. The bucket array is large
// (100k one-nanosecond buckets) and almost entirely zero, so it is
// encoded sparsely as [bucket, count] pairs in ascending bucket order.
type latencyJSON struct {
	BucketCount int         `json:"bucketCount"`
	Samples     [][2]uint64 `json:"samples,omitempty"`
	Total       uint64      `json:"total"`
	SumNS       float64     `json:"sumNS"`
	MaxNS       float64     `json:"maxNS"`
}

// MarshalJSON encodes the tracker sparsely. It appends latencyJSON's
// form straight into one buffer, the bytes json.Marshal would write for
// it, without building the pair slice or reflecting over the struct.
func (l *LatencyTracker) MarshalJSON() ([]byte, error) {
	nonzero := 0
	for _, n := range l.buckets {
		if n != 0 {
			nonzero++
		}
	}
	// About 16 bytes a pair ("[bucket,count],") and 96 for the rest.
	b := make([]byte, 0, 96+16*nonzero)
	b = append(b, `{"bucketCount":`...)
	b = strconv.AppendInt(b, int64(len(l.buckets)), 10)
	if nonzero > 0 {
		b = append(b, `,"samples":`...)
		sep := byte('[')
		for i, n := range l.buckets {
			if n == 0 {
				continue
			}
			b = append(b, sep, '[')
			sep = ','
			b = strconv.AppendInt(b, int64(i), 10)
			b = append(b, ',')
			b = strconv.AppendUint(b, n, 10)
			b = append(b, ']')
		}
		b = append(b, ']')
	}
	b = append(b, `,"total":`...)
	b = strconv.AppendUint(b, l.total, 10)
	b = append(b, `,"sumNS":`...)
	var err error
	if b, err = appendFloat(b, l.sumNS); err != nil {
		return nil, err
	}
	b = append(b, `,"maxNS":`...)
	if b, err = appendFloat(b, l.maxNS); err != nil {
		return nil, err
	}
	return append(b, '}'), nil
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// form that parses back to the same bits, in exponent form below 1e-6
// or from 1e21 on, with a one-digit negative exponent unpadded. Like
// json.Marshal it refuses NaN and the infinities.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return nil, fmt.Errorf("stats: latency tracker holds the non-finite value %v", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs > 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

// UnmarshalJSON decodes a tracker produced by MarshalJSON.
func (l *LatencyTracker) UnmarshalJSON(data []byte) error {
	var w latencyJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	l.buckets = nil
	if w.BucketCount > 0 {
		l.buckets = make([]uint64, w.BucketCount)
	}
	for _, s := range w.Samples {
		i := s[0]
		if i >= uint64(len(l.buckets)) {
			return fmt.Errorf("stats: latency sample bucket %d out of range %d", i, len(l.buckets))
		}
		l.buckets[i] = s[1]
	}
	l.total, l.sumNS, l.maxNS = w.Total, w.SumNS, w.MaxNS
	return nil
}

// irlpJSON is IRLP's wire form: the finalized summary. Only finalized
// trackers and empty ones (an unfinalized tracker with no intervals)
// have one; a tracker partway through its sweep is refused with
// *UnfinalizedIRLPError. Deltas is never written; a record carrying
// interval edges is refused on decode.
type irlpJSON struct {
	Finalized bool            `json:"finalized"`
	Avg       float64         `json:"avg"`
	MaxBusy   int             `json:"maxBusy"`
	BusyTime  sim.Time        `json:"busyTime"`
	Deltas    json.RawMessage `json:"deltas,omitempty"`
}

// UnfinalizedIRLPError reports an IRLP tracker, or its wire record,
// holding intervals that were never finalized: a partial sweep has no
// wire form.
type UnfinalizedIRLPError struct {
	Op string // "encode" or "decode"
}

func (e *UnfinalizedIRLPError) Error() string {
	return "stats: cannot " + e.Op + " an unfinalized IRLP tracker holding intervals; Finalize it first"
}

// MarshalJSON encodes a finalized or empty tracker.
func (x *IRLP) MarshalJSON() ([]byte, error) {
	if !x.finalized && !x.empty() {
		return nil, &UnfinalizedIRLPError{Op: "encode"}
	}
	return json.Marshal(irlpJSON{Finalized: x.finalized, Avg: x.avg, MaxBusy: x.maxBusy, BusyTime: x.busyTime})
}

// UnmarshalJSON decodes a tracker produced by MarshalJSON.
func (x *IRLP) UnmarshalJSON(data []byte) error {
	var w irlpJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if !w.Finalized && (w.MaxBusy != 0 || w.BusyTime != 0 || math.Float64bits(w.Avg) != 0 || len(w.Deltas) > 0) {
		return &UnfinalizedIRLPError{Op: "decode"}
	}
	*x = IRLP{finalized: w.Finalized, avg: w.Avg, maxBusy: w.MaxBusy, busyTime: w.BusyTime}
	return nil
}
