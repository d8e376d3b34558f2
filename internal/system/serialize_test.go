package system

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"pcmap/internal/config"
)

// runSmall executes one short simulation and returns its Results.
func runSmall(t *testing.T, variant config.Variant, mutate func(*config.Config)) *Results {
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
