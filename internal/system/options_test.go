package system

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"pcmap/internal/config"
	"pcmap/internal/obs"
)

func TestNewDefaults(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if s.Mix.Name != "MP4" {
		t.Fatalf("default mix = %q, want MP4", s.Mix.Name)
	}
	if s.Tracer != nil {
		t.Fatal("tracing must default to off")
	}
	def := config.Default()
	if len(s.Cores) != def.Cores || len(s.Mem.Ctrls) != def.Memory.Channels {
		t.Fatalf("built %d cores and %d channels, want %d and %d",
			len(s.Cores), len(s.Mem.Ctrls), def.Cores, def.Memory.Channels)
	}
}

func TestNewTypedErrors(t *testing.T) {
	cases := []struct {
		label string
		opts  []Option
		opt   string
	}{
		{"nil config", []Option{WithConfig(nil)}, "WithConfig"},
		{"empty workload", []Option{WithWorkload("")}, "WithWorkload"},
		{"unknown workload", []Option{WithWorkload("no-such-mix")}, "WithWorkload"},
		{"nil tracer", []Option{WithTracer(nil)}, "WithTracer"},
		{"bad drift", []Option{WithFaultModel(0, 1.5)}, "WithFaultModel"},
		{"negative drift", []Option{WithFaultModel(0, -0.1)}, "WithFaultModel"},
	}
	for _, tc := range cases {
		_, err := New(tc.opts...)
		if err == nil {
			t.Errorf("%s: New succeeded, want error", tc.label)
			continue
		}
		var oe *OptionError
		if !errors.As(err, &oe) {
			t.Errorf("%s: error %v is not an *OptionError", tc.label, err)
			continue
		}
		if oe.Option != tc.opt {
			t.Errorf("%s: blamed option %q, want %q", tc.label, oe.Option, tc.opt)
		}
	}
}

func TestNewDoesNotMutateCallerConfig(t *testing.T) {
	cfg := config.Default()
	seed0, end0 := cfg.Seed, cfg.Memory.EnduranceBudget
	if _, err := New(WithConfig(cfg), WithFaultModel(1000, 0.01)); err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != seed0 || cfg.Memory.EnduranceBudget != end0 {
		t.Fatal("New mutated the caller's Config")
	}
}

func TestNewAppliesOverrides(t *testing.T) {
	cfg := config.Default()
	cfg.Seed = 7
	s, err := New(WithConfig(cfg), WithFaultModel(123, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if s.Cfg.Seed != 7 {
		t.Fatalf("seed override lost: %d", s.Cfg.Seed)
	}
	if s.Cfg.Memory.EnduranceBudget != 123 || s.Cfg.Memory.DriftProb != 0.5 {
		t.Fatal("fault model override lost")
	}
}

func TestNewWithTracerAttachesEverywhere(t *testing.T) {
	tr := obs.New(1<<16, 1)
	s, err := New(WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	if s.Tracer != tr {
		t.Fatal("tracer not retained")
	}
	if _, err := s.Run(500, 2_000); err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("traced run recorded nothing")
	}
}

// TestStallCountersMatchTrace checks each core stall bucket against the
// timeline: every stall episode increments its counter and emits one
// trace instant of the same name, so with nothing dropped from the ring
// the per-name sums agree.
func TestStallCountersMatchTrace(t *testing.T) {
	tr := obs.New(obs.DefaultCapacity, 1)
	s, err := New(WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(2_000, 10_000); err != nil {
		t.Fatal(err)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("ring dropped %d records; raise the capacity", tr.Dropped())
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	instants := map[string]uint64{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "I" {
			instants[ev.Name]++
		}
	}
	counters := map[string]uint64{}
	for _, c := range s.Cores {
		counters["stall.read_latency"] += c.StallReadLatency.Value()
		counters["stall.mshr_full"] += c.StallMSHRFull.Value()
		counters["stall.writeq_full"] += c.StallWriteQFull.Value()
		counters["stall.bank_conflict"] += c.StallBankConflict.Value()
	}
	var total uint64
	for name, n := range counters {
		if instants[name] != n {
			t.Errorf("%s: counters sum to %d, trace has %d instants", name, n, instants[name])
		}
		total += n
	}
	if total == 0 {
		t.Fatal("no stall episode counted; the check compared only zeros")
	}
}

// TestTracedRunResultsIdentical is the observer-effect guard at the
// library level: a traced run must produce exactly the results of an
// untraced one.
func TestTracedRunResultsIdentical(t *testing.T) {
	run := func(opts ...Option) *Results {
		s, err := New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run(500, 2_000)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	plain := run()
	traced := run(WithTracer(obs.New(1<<16, 1)))
	a, err := EncodeResults(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeResults(traced)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("tracing changed simulation results")
	}
}
