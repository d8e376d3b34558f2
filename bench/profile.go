package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layerProfile is a traced repetition's profile folded into buckets:
// CPU samples and allocated bytes per layer, harness and runtime.
type layerProfile struct {
	CPU   map[string]int64 `json:"cpu"`
	Alloc map[string]int64 `json:"alloc"`
}

const repoPrefix = "pcmap/internal/"

var isLayer = func() map[string]bool {
	m := map[string]bool{}
	for _, l := range layers {
		m[l] = true
	}
	return m
}()

// bucketOf charges one stack, given innermost frame first, to the
// innermost frame that belongs to a layer. Runtime and standard-library
// frames below it (map access, mallocgc, sort) are part of that layer's
// cost. Repository packages outside the layer list (config, obs) pass
// their cost to the layer that called them. A stack with no layer frame
// is harness when the benchmark's own package is on it (named main in
// the benchmark binary, pcmap/bench in its test binary), runtime
// otherwise (GC workers, the sweeper, the profiler's writer).
func bucketOf(frames []string) string {
	harness := false
	for _, fn := range frames {
		if rest, ok := strings.CutPrefix(fn, repoPrefix); ok {
			if strings.HasPrefix(rest, "sim.(*RNG).") {
				return "rng"
			}
			if i := strings.IndexAny(rest, "./"); i > 0 && isLayer[rest[:i]] {
				return rest[:i]
			}
		}
		if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "pcmap/bench.") {
			harness = true
		}
	}
	if harness {
		return bucketHarness
	}
	return bucketRuntime
}

// foldProfile sums the named sample value of a gzipped pprof profile
// (as runtime/pprof writes it) per bucket.
func foldProfile(gz []byte, valueType string) (map[string]int64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	vi := -1
	for i, t := range p.sampleTypes {
		if p.str(t) == valueType {
			vi = i
		}
	}
	if vi < 0 {
		return nil, fmt.Errorf("profile has no %q samples", valueType)
	}
	out := map[string]int64{}
	var frames []string
	for _, s := range p.samples {
		if vi >= len(s.values) {
			return nil, errors.New("profile sample is missing values")
		}
		frames = frames[:0]
		for _, id := range s.locations {
			for _, fid := range p.locations[id] {
				frames = append(frames, p.str(p.functions[fid]))
			}
		}
		out[bucketOf(frames)] += s.values[vi]
	}
	return out, nil
}

// profile is the part of the pprof protobuf the fold needs.
type profile struct {
	sampleTypes []int64 // string-table index of each value's type
	samples     []sample
	locations   map[uint64][]uint64 // location id → function ids, innermost (inlined) first
	functions   map[uint64]int64    // function id → string-table index of its name
	strings     []string
}

type sample struct {
	locations []uint64 // innermost first
	values    []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

// parseProfile decodes a gzipped profile.proto message. It reads only
// the fields listed in profile and skips the rest.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err = eachField(raw, func(num int, f field) error {
		switch num {
		case 1: // sample_type: ValueType{type = 1}
			var typ int64
			err := eachField(f.bytes, func(num int, f field) error {
				if num == 1 {
					typ = int64(f.varint)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, typ)
			return err
		case 2: // sample: {location_id = 1, value = 2}
			var s sample
			err := eachField(f.bytes, func(num int, f field) error {
				switch num {
				case 1:
					return f.uints(func(v uint64) { s.locations = append(s.locations, v) })
				case 2:
					return f.uints(func(v uint64) { s.values = append(s.values, int64(v)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location: {id = 1, line = 4: Line{function_id = 1}}
			var id uint64
			var fns []uint64
			err := eachField(f.bytes, func(num int, f field) error {
				switch num {
				case 1:
					id = f.varint
				case 4:
					return eachField(f.bytes, func(num int, f field) error {
						if num == 1 {
							fns = append(fns, f.varint)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function: {id = 1, name = 2}
			var id uint64
			var name int64
			err := eachField(f.bytes, func(num int, f field) error {
				switch num {
				case 1:
					id = f.varint
				case 2:
					name = int64(f.varint)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(f.bytes))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

// field is one decoded protobuf field: a varint, or the payload of a
// length-delimited field.
type field struct {
	wire   int
	varint uint64
	bytes  []byte
}

// uints reads a repeated integer field in either encoding: one varint,
// or a packed run of varints.
func (f field) uints(add func(uint64)) error {
	if f.wire == 0 {
		add(f.varint)
		return nil
	}
	b := f.bytes
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(v)
		b = b[n:]
	}
	return nil
}

// eachField walks the fields of one protobuf message.
func eachField(b []byte, fn func(num int, f field) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		f := field{wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.varint, n = binary.Uvarint(b); n <= 0 {
				return errors.New("bad varint")
			}
		case 1:
			n = 8
		case 2:
			l, m := binary.Uvarint(b)
			if m <= 0 || l > uint64(len(b)-m) {
				return errors.New("bad length")
			}
			f.bytes = b[m : m+int(l)]
			n = m + int(l)
		case 5:
			n = 4
		default:
			return fmt.Errorf("unsupported wire type %d", f.wire)
		}
		if n > len(b) {
			return errors.New("truncated field")
		}
		b = b[n:]
		if err := fn(int(key>>3), f); err != nil {
			return err
		}
	}
	return nil
}
