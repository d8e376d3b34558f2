package system

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime/metrics"
	"strings"
	"testing"

	"pcmap/internal/config"
)

// runSmall executes one short simulation and returns its Results.
func runSmall(t testing.TB, variant config.Variant, mutate func(*config.Config)) *Results {
	t.Helper()
	cfg := config.Default().WithVariant(variant)
	if mutate != nil {
		mutate(cfg)
	}
	s, err := New(WithConfig(cfg), WithWorkload("MP4"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(2_000, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestResultsRoundTrip is the disk-cache fidelity guard: a Results must
// survive encode/decode exactly, including the nested metrics block —
// reflect.DeepEqual covers every field, exported or not, so a codec
// that silently drops a bucket or counter fails here.
func TestResultsRoundTrip(t *testing.T) {
	cases := []struct {
		name    string
		variant config.Variant
		mutate  func(*config.Config)
	}{
		{"baseline", config.Baseline, nil},
		{"full-pcmap", config.RWoWRDE, nil},
		{"verify-path", config.RWoWRDE, func(c *config.Config) {
			c.Memory.VerifyWrites = true
			c.Memory.EnduranceBudget = 2
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := runSmall(t, tc.variant, tc.mutate)
			data, err := EncodeResults(res)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecodeResults(data)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, res) {
				t.Fatalf("Results did not round-trip\n got: %+v\nwant: %+v", got, res)
			}

			// The derived report values the figures read must be
			// bit-identical too (formatting them exercises the floats).
			pairs := [][2]string{
				{fmt.Sprintf("%v", got.Mem.ReadLatency.MeanNS()), fmt.Sprintf("%v", res.Mem.ReadLatency.MeanNS())},
				{fmt.Sprintf("%v", got.Mem.ReadLatency.PercentileNS(95)), fmt.Sprintf("%v", res.Mem.ReadLatency.PercentileNS(95))},
				{fmt.Sprintf("%v", got.Mem.WriteThroughput()), fmt.Sprintf("%v", res.Mem.WriteThroughput())},
				{fmt.Sprintf("%v", got.Mem.DirtyWords.MeanValue()), fmt.Sprintf("%v", res.Mem.DirtyWords.MeanValue())},
				{fmt.Sprintf("%v", got.IPCSum), fmt.Sprintf("%v", res.IPCSum)},
			}
			for i, p := range pairs {
				if p[0] != p[1] {
					t.Errorf("derived value %d drifted: %s vs %s", i, p[0], p[1])
				}
			}
		})
	}
}

// TestDecodeResultsRejectsGarbage covers the cache's corrupted-file
// path: garbage must return an error, never a half-built Results.
func TestDecodeResultsRejectsGarbage(t *testing.T) {
	for _, data := range []string{"", "{", "null", "{}", `{"Workload":"x"}`, `{"Mem":{}}`} {
		if _, err := DecodeResults([]byte(data)); err == nil {
			t.Errorf("DecodeResults(%q) = nil error, want failure", data)
		}
	}
}

// TestDecodeResultsNamesMissingField checks the decode boundary blames
// the exact tracker a document lacks, so a stale cache entry fails with
// a typed error instead of a nil dereference in the first report.
func TestDecodeResultsNamesMissingField(t *testing.T) {
	res := runSmall(t, config.RWoWRDE, nil)
	res.Mem.SetBits = nil
	data, err := EncodeResults(res)
	if err != nil {
		t.Fatal(err)
	}
	_, err = DecodeResults(data)
	var mf *MissingFieldError
	if !errors.As(err, &mf) || mf.Field != "Mem.SetBits" {
		t.Fatalf("DecodeResults error = %v, want a *MissingFieldError for Mem.SetBits", err)
	}
}

// TestResultsCarryNoIRLPRecord checks that an encoded Results holds no
// IRLP tracker in its metrics block: IRLP finalizes per rank and
// reaches Results only as IRLPAvg and IRLPMax.
func TestResultsCarryNoIRLPRecord(t *testing.T) {
	res := runSmall(t, config.RWoWRDE, nil)
	data, err := EncodeResults(res)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Mem map[string]json.RawMessage }
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Mem) == 0 {
		t.Fatal("encoded Results has no metrics block")
	}
	if rec, ok := doc.Mem["IRLP"]; ok {
		t.Errorf("encoded Results carries Mem.IRLP %s beside IRLPAvg %v", rec, res.IRLPAvg)
	}
	if res.IRLPMax == 0 {
		t.Error("IRLPMax is 0 on a run with writes")
	}
}

// FuzzDecodeResults feeds DecodeResults what a disk-cache entry may
// hold after its checksum passes: any input must decode to an error or
// to Results that re-encode and decode to a reflect.DeepEqual value,
// and decoding may allocate at most 4 MB plus 1 KB per input byte. The
// 4 MB covers each of the three latency trackers at its full
// 100,000-bucket range (800 KB from about 40 bytes of JSON); a document
// naming a tracker again decodes into the same array.
func FuzzDecodeResults(f *testing.F) {
	res := runSmall(f, config.RWoWRDE, func(c *config.Config) {
		c.Memory.VerifyWrites = true
		c.Memory.EnduranceBudget = 2
	})
	data, err := EncodeResults(res)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{"Mem":{"ReadLatency":{"bucketCount":100001},"WriteLatency":{},"VerifyLatency":{},` +
		`"DirtyWords":{},"SetBits":{},"ResetBits":{}}}`))
	f.Add([]byte(`{"Mem":{` + strings.Repeat(`"ReadLatency":{"bucketCount":100000},`, 100) +
		`"WriteLatency":{},"VerifyLatency":{},"DirtyWords":{},"SetBits":{},"ResetBits":{}}}`))
	f.Add([]byte(`{"Mem":{"ReadLatency":{"bucketCount":4,"samples":[[3,1],[3,2]]},"WriteLatency":{"bucketCount":-1},` +
		`"VerifyLatency":{},"DirtyWords":{"buckets":[]},"SetBits":{"buckets":null},"ResetBits":{}},"IPCPerCore":[-0]}`))
	// The heap's cumulative allocation count, read without stopping the
	// world as runtime.ReadMemStats would on every input.
	allocated := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	f.Fuzz(func(t *testing.T, data []byte) {
		metrics.Read(allocated)
		before := allocated[0].Value.Uint64()
		r, err := DecodeResults(data)
		metrics.Read(allocated)
		if n, limit := allocated[0].Value.Uint64()-before, uint64(4<<20+1<<10*len(data)); n > limit {
			t.Fatalf("decoding %d bytes allocated %d B, limit %d", len(data), n, limit)
		}
		if err != nil {
			return
		}
		again, err := EncodeResults(r)
		if err != nil {
			t.Fatalf("decoded Results do not re-encode: %v", err)
		}
		r2, err := DecodeResults(again)
		if err != nil {
			t.Fatalf("re-encoded Results do not decode: %v\n%s", err, again)
		}
		if !reflect.DeepEqual(r, r2) {
			t.Fatalf("Results changed across a re-encode\n got: %+v\nwant: %+v", r2, r)
		}
	})
}
