// Results serialization for the experiment runner's disk-backed result
// cache. A Results round-trips through EncodeResults/DecodeResults with
// full fidelity: every counter, latency bucket, and float is restored
// bit-identically (encoding/json emits float64 in shortest-round-trip
// form), so report output rendered from a decoded Results is
// byte-identical to output rendered from the original run.
package system

import (
	"encoding/json"
	"fmt"
)

// EncodeResults serializes r to JSON.
func EncodeResults(r *Results) ([]byte, error) {
	if r == nil {
		return nil, fmt.Errorf("system: encode nil Results")
	}
	return json.Marshal(r)
}

// MissingFieldError reports a decoded Results that lacks a field the
// reports dereference: the memory metrics block or one of its trackers.
// Field is the Go path of the missing field, e.g. "Mem.ReadLatency".
type MissingFieldError struct {
	Field string
}

func (e *MissingFieldError) Error() string {
	return fmt.Sprintf("system: decoded Results has no %s", e.Field)
}

// DecodeResults deserializes a Results produced by EncodeResults. A
// document that parses but lacks the metrics block or any of its
// trackers is rejected with a *MissingFieldError rather than returned
// half-built.
func DecodeResults(data []byte) (*Results, error) {
	var r Results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("system: decode Results: %w", err)
	}
	m := r.Mem
	if m == nil {
		return nil, &MissingFieldError{Field: "Mem"}
	}
	for _, f := range []struct {
		name    string
		missing bool
	}{
		{"ReadLatency", m.ReadLatency == nil},
		{"WriteLatency", m.WriteLatency == nil},
		{"VerifyLatency", m.VerifyLatency == nil},
		{"DirtyWords", m.DirtyWords == nil},
		{"SetBits", m.SetBits == nil},
		{"ResetBits", m.ResetBits == nil},
	} {
		if f.missing {
			return nil, &MissingFieldError{Field: "Mem." + f.name}
		}
	}
	return &r, nil
}
