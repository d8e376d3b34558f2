package stats

import (
	"encoding/json"
	"errors"
	"reflect"
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

func TestLatencyTrackerRejectsOutOfRangeSample(t *testing.T) {
	var got LatencyTracker
	if err := json.Unmarshal([]byte(`{"bucketCount":4,"samples":[[9,1]]}`), &got); err == nil {
		t.Fatal("out-of-range sample bucket must be rejected")
	}
}

func TestIRLPRoundTrip(t *testing.T) {
	// Empty: the zero state round-trips (a fresh tracker is what
	// Results' merged metrics carry).
	var empty IRLP
	roundTrip(t, NewIRLP(), &empty)
	if empty.finalized || !empty.empty() {
		t.Fatal("empty IRLP did not round-trip")
	}

	x := NewIRLP()
	x.AddWriteWindow(10, 50)
	x.AddChipService(10, 30)
	x.AddChipService(20, 50)

	// Unfinalized with intervals: a partial sweep has no wire form.
	var ue *UnfinalizedIRLPError
	if _, err := json.Marshal(x); !errors.As(err, &ue) {
		t.Fatalf("encoding an unfinalized tracker: err %v, want *UnfinalizedIRLPError", err)
	}

	// Finalized: the summary must survive and Finalize stay idempotent.
	x.Finalize(8)
	var fin IRLP
	roundTrip(t, x, &fin)
	fin.Finalize(8)
	//pcmaplint:ignore floatcmp round-trip of a stored value, no arithmetic in between
	if fin.Average() != x.Average() || fin.MaxBusy() != x.MaxBusy() || fin.WriteBusyTime() != x.WriteBusyTime() {
		t.Fatalf("finalized summary drifted: avg %v vs %v", fin.Average(), x.Average())
	}
}

// TestIRLPWireBytes pins the encoded form of the two tracker states
// results carry, so cached results stay readable across changes to
// the tracker's internals.
func TestIRLPWireBytes(t *testing.T) {
	x := NewIRLP()
	for _, c := range []struct {
		name string
		want string
	}{
		{"empty", `{"finalized":false,"avg":0,"maxBusy":0,"busyTime":0}`},
		{"finalized", `{"finalized":true,"avg":1.25,"maxBusy":2,"busyTime":40}`},
	} {
		if c.name == "finalized" {
			x.AddWriteWindow(10, 50)
			x.AddChipService(10, 30)
			x.AddChipService(20, 50)
			x.Finalize(8)
		}
		got, err := json.Marshal(x)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if string(got) != c.want {
			t.Fatalf("%s: encoded %s, want %s", c.name, got, c.want)
		}
	}
}

func TestIRLPDecodeRefusesUnfinalizedIntervals(t *testing.T) {
	for _, in := range []string{
		`{"finalized":false,"avg":0,"maxBusy":0,"busyTime":0,"deltas":[[10,1,0],[50,-1,0]]}`,
		`{"finalized":false,"avg":1.5,"maxBusy":2,"busyTime":40}`,
	} {
		var x IRLP
		var ue *UnfinalizedIRLPError
		if err := json.Unmarshal([]byte(in), &x); !errors.As(err, &ue) {
			t.Fatalf("decoding %s: err %v, want *UnfinalizedIRLPError", in, err)
		}
	}
}
