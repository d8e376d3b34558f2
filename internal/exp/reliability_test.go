package exp

import (
	"context"
	"testing"

	"pcmap/internal/config"
)

// TestReliabilitySweep runs the sweep at test budgets and checks its
// internal no-silent-corruption cross-check passes: Reliability itself
// errors out if any point injects faults that no handling counter saw.
func TestReliabilitySweep(t *testing.T) {
	f, err := Reliability(context.Background(), testRunner(), "MP4", config.RWoWRDE)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Table.Rows) != len(reliabilityPoints) {
		t.Fatalf("table has %d rows, want %d", len(f.Table.Rows), len(reliabilityPoints))
	}

	// The clean point must be fault-free, and at least one wear point
	// must actually inject and handle faults — otherwise the sweep is
	// vacuous at these budgets.
	clean := reliabilityPoints[0].label()
	if f.Series[clean]["injStuck"] > 0 || f.Series[clean]["injDrift"] > 0 {
		t.Fatalf("clean point injected faults: %v", f.Series[clean])
	}
	var injected, handled float64
	for _, p := range reliabilityPoints {
		s := f.Series[p.label()]
		injected += s["injStuck"] + s["injDrift"]
		handled += s["secdedCorrected"] + s["pccRecovered"] + s["uncorrected"] +
			s["retries"] + s["remaps"]
	}
	if injected <= 0 {
		t.Fatal("sweep injected no faults at any point")
	}
	if handled <= 0 {
		t.Fatal("sweep handled no faults at any point")
	}
}

// TestReliabilitySpecZeroPerturbation checks the fault knobs' default
// values leave the Spec->config mapping inert, so memoized fault-free
// results are shared with runs that never mention the knobs.
func TestReliabilitySpecZeroPerturbation(t *testing.T) {
	cfg, err := configFor(Spec{Workload: "MP4", Variant: config.RWoWRDE})
	if err != nil {
		t.Fatal(err)
	}
	//pcmaplint:ignore floatcmp DriftProb is assigned, never computed; the default must be exactly zero
	if cfg.Memory.EnduranceBudget != 0 || cfg.Memory.DriftProb != 0 || cfg.Memory.VerifyWrites {
		t.Fatalf("default spec sets fault knobs: budget=%d drift=%g verify=%v",
			cfg.Memory.EnduranceBudget, cfg.Memory.DriftProb, cfg.Memory.VerifyWrites)
	}
	cfg, err = configFor(Spec{Workload: "MP4", Variant: config.RWoWRDE,
		EnduranceBudget: 9, DriftProb: 1e-3, VerifyWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	//pcmaplint:ignore floatcmp DriftProb is assigned, never computed; the knob must round-trip exactly
	if cfg.Memory.EnduranceBudget != 9 || cfg.Memory.DriftProb != 1e-3 || !cfg.Memory.VerifyWrites {
		t.Fatal("fault knobs not mapped into the memory config")
	}
}
