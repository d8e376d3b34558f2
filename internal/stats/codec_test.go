package stats

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"pcmap/internal/sim"
)

// roundTrip marshals v, unmarshals into fresh, and fails on error.
func roundTrip(t *testing.T, v, fresh any) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if err := json.Unmarshal(data, fresh); err != nil {
		t.Fatalf("unmarshal %s: %v", data, err)
	}
}

func TestCounterRoundTrip(t *testing.T) {
	var c Counter
	c.Add(41)
	c.Inc()
	var got Counter
	roundTrip(t, c, &got)
	if got.Value() != 42 {
		t.Fatalf("count = %d, want 42", got.Value())
	}
}

func TestHistogramRoundTrip(t *testing.T) {
	h := NewHistogram(9)
	for _, v := range []int{0, 1, 1, 8, 12, -3} {
		h.Add(v)
	}
	var got Histogram
	roundTrip(t, h, &got)
	if !reflect.DeepEqual(&got, h) {
		t.Fatalf("histogram did not round-trip: %+v vs %+v", got, *h)
	}
	// The zero value must round-trip too (it is a valid merge target).
	var zero, gotZero Histogram
	roundTrip(t, &zero, &gotZero)
	if !reflect.DeepEqual(&gotZero, &zero) {
		t.Fatal("zero-value histogram did not round-trip")
	}
}

func TestLatencyTrackerRoundTrip(t *testing.T) {
	l := NewLatencyTracker()
	for _, ns := range []int{3, 3, 250, 99999, 1 << 20} {
		l.Add(sim.Nanosecond.Times(ns))
	}
	var got LatencyTracker
	roundTrip(t, l, &got)
	if !reflect.DeepEqual(&got, l) {
		t.Fatal("latency tracker did not round-trip")
	}
	// The report-facing accessors must be bit-identical, since cached
	// results feed byte-identical report output.
	//pcmaplint:ignore floatcmp round-trip fidelity means bit-identical floats; an epsilon would mask codec drift
	if got.MeanNS() != l.MeanNS() || got.MaxNS() != l.MaxNS() || got.PercentileNS(95) != l.PercentileNS(95) {
		t.Fatalf("accessors drifted: mean %v vs %v", got.MeanNS(), l.MeanNS())
	}
}

// marshalLatencyRef is the reflection-based encoder MarshalJSON stands
// in for: the pair slice built from the buckets, then json.Marshal.
func marshalLatencyRef(l *LatencyTracker) ([]byte, error) {
	w := latencyJSON{BucketCount: len(l.buckets), Total: l.total, SumNS: l.sumNS, MaxNS: l.maxNS}
	for i, n := range l.buckets {
		if n != 0 {
			w.Samples = append(w.Samples, [2]uint64{uint64(i), n})
		}
	}
	return json.Marshal(w)
}

// TestLatencyMarshalMatchesReference pins MarshalJSON's bytes to the
// reflection-based encoder's — on an empty tracker, one bucket, random
// latencies, all 100000 buckets filled, and sums and maxima at every
// float formatting boundary — and round-trips each case.
func TestLatencyMarshalMatchesReference(t *testing.T) {
	cases := map[string]*LatencyTracker{"empty": NewLatencyTracker()}
	one := NewLatencyTracker()
	one.Add(sim.Nanosecond.Times(250))
	cases["one bucket"] = one
	random := NewLatencyTracker()
	rng := sim.NewRNG(5)
	for i := 0; i < 5000; i++ {
		random.Add(sim.NS(rng.Float64() * 3000))
	}
	cases["random"] = random
	full := NewLatencyTracker()
	for ns := 0; ns < latencyBucketCount; ns++ {
		for k := 0; k <= ns%3; k++ {
			full.Add(sim.Nanosecond.Times(ns))
		}
	}
	cases["full"] = full
	for _, f := range []float64{0, 0.1, 1e-6, 9.99e-7, 1e-7, 5e-324, 1e20, 1e21, 1.5e300, 123.456} {
		l := NewLatencyTracker()
		l.Add(sim.Nanosecond.Times(7))
		l.sumNS, l.maxNS = f, -f
		cases[fmt.Sprintf("floats %g", f)] = l
	}
	for name, l := range cases {
		got, err := l.MarshalJSON()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := marshalLatencyRef(l)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: encoded\n%.300s\nreference encodes\n%.300s", name, got, want)
		}
		var back LatencyTracker
		if err := back.UnmarshalJSON(got); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(&back, l) {
			t.Fatalf("%s: did not round-trip", name)
		}
	}
	if len(full.buckets) != latencyBucketCount || slices.Contains(full.buckets, 0) {
		t.Fatal("the full case leaves a bucket empty")
	}
	nan := NewLatencyTracker()
	nan.sumNS = math.NaN()
	if _, err := nan.MarshalJSON(); err == nil {
		t.Fatal("a NaN sum encoded without error")
	}
}

func TestLatencyTrackerRejectsOutOfRangeSample(t *testing.T) {
	var got LatencyTracker
	if err := json.Unmarshal([]byte(`{"bucketCount":4,"samples":[[9,1]]}`), &got); err == nil {
		t.Fatal("out-of-range sample bucket must be rejected")
	}
}

// TestLatencyTrackerRejectsHugeBucketCount pins that a bucket count
// past the tracker's range fails to decode instead of sizing an
// allocation: a count of 1<<62 would panic in make, and one just past
// the range would decode silently.
func TestLatencyTrackerRejectsHugeBucketCount(t *testing.T) {
	for _, n := range []int64{latencyBucketCount + 1, 1 << 62} {
		var got LatencyTracker
		doc := fmt.Sprintf(`{"bucketCount":%d,"total":0,"sumNS":0,"maxNS":0}`, n)
		if err := json.Unmarshal([]byte(doc), &got); err == nil {
			t.Errorf("bucket count %d decoded without error", n)
		}
	}
	var got LatencyTracker
	doc := fmt.Sprintf(`{"bucketCount":%d,"samples":[[%d,1]],"total":1,"sumNS":0,"maxNS":0}`, latencyBucketCount, latencyBucketCount-1)
	if err := json.Unmarshal([]byte(doc), &got); err != nil || len(got.buckets) != latencyBucketCount {
		t.Fatalf("full-range tracker: error %v, %d buckets", err, len(got.buckets))
	}
}

// TestLatencyTrackerRedecodeReusesBuckets decodes twice into one
// tracker, as a document naming a tracker twice does: the second decode
// must reuse the first one's array, cleared, not allocate another.
func TestLatencyTrackerRedecodeReusesBuckets(t *testing.T) {
	var got LatencyTracker
	if err := json.Unmarshal([]byte(`{"bucketCount":100000,"samples":[[5,1],[99999,3]],"total":4,"sumNS":0,"maxNS":0}`), &got); err != nil {
		t.Fatal(err)
	}
	first := &got.buckets[0]
	if err := json.Unmarshal([]byte(`{"bucketCount":1024,"samples":[[7,2]],"total":2,"sumNS":0,"maxNS":0}`), &got); err != nil {
		t.Fatal(err)
	}
	want := make([]uint64, 1024)
	want[7] = 2
	if !slices.Equal(got.buckets, want) || got.total != 2 {
		t.Fatalf("second decode left %d buckets, bucket 5 = %d, bucket 7 = %d, total %d", len(got.buckets), got.buckets[5], got.buckets[7], got.total)
	}
	if &got.buckets[0] != first {
		t.Fatal("second decode allocated a new bucket array")
	}
	if err := json.Unmarshal([]byte(`{"bucketCount":0,"total":0,"sumNS":0,"maxNS":0}`), &got); err != nil || got.buckets != nil {
		t.Fatalf("an empty decode left buckets %v (error %v), want nil", got.buckets, err)
	}
}
