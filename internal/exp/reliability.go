package exp

import (
	"context"
	"fmt"

	"pcmap/internal/config"
)

// reliabilityPoint is one cell of the reliability sweep.
type reliabilityPoint struct {
	Budget uint64  // endurance budget (0 = perfect cells)
	Drift  float64 // per-read drift flip probability
}

func (p reliabilityPoint) label() string {
	return fmt.Sprintf("budget=%d drift=%g", p.Budget, p.Drift)
}

// reliabilityPoints is the default sweep grid: a clean point (verify on,
// no faults — the overhead floor), endurance-only at two severities,
// drift-only, and both. Budgets are tiny because the simulated windows
// rewrite each line only a handful of times; real devices wear out after
// ~1e8 writes, which at these run lengths would never trigger.
var reliabilityPoints = []reliabilityPoint{
	{Budget: 0, Drift: 0},
	{Budget: 4, Drift: 0},
	{Budget: 1, Drift: 0},
	{Budget: 0, Drift: 5e-3},
	{Budget: 1, Drift: 5e-3},
}

// Reliability sweeps the fault model — write-endurance budget (stuck-at
// cells) crossed with transient drift rate — with program-and-verify
// enabled, and reports how every injected error was handled: corrected
// by SECDED, rebuilt from PCC parity, retried away by re-programming,
// remapped to the spare pool, or reported as a typed uncorrectable
// error. It returns an error if any run shows injected faults with no
// handling activity at all, which would mean corruption passed through
// silently.
func Reliability(ctx context.Context, r *Runner, workload string, variant config.Variant) (*FigureResult, error) {
	return r.render(ctx, func(get getFunc) (*FigureResult, error) {
		f := newFigure("reliability", fmt.Sprintf(
			"Reliability: fault injection vs program-and-verify (%s, %s)", workload, variant), "fault point",
			countCol("inj. stuck", "injStuck"), countCol("inj. drift", "injDrift"),
			countCol("SECDED corr.", "secdedCorrected"), countCol("PCC rebuilt", "pccRecovered"),
			countCol("uncorrectable", "uncorrected"), countCol("retries", "retries"),
			countCol("remaps", "remaps"), countCol("remap fail", "remapFailures"),
			numCol("verify ns/write", "verifyNSPerWrite"))
		for _, p := range reliabilityPoints {
			res := get(Spec{Workload: workload, Variant: variant,
				EnduranceBudget: p.Budget, DriftProb: p.Drift, VerifyWrites: true})
			m := res.Mem
			handled := m.SECDEDCorrected.Value() + m.SECDEDCheckFixed.Value() +
				m.PCCRecovered.Value() + m.UncorrectedReads.Value() +
				m.WriteRetries.Value() + m.WriteRemaps.Value()
			injected := res.InjectedStuck + res.InjectedDrift
			if injected > 0 && handled == 0 {
				return nil, fmt.Errorf("exp: reliability %s: %d faults injected but no correction, retry, remap, or error report — silent corruption", p.label(), injected)
			}
			verifyNS := 0.0
			if m.WriteVerifies.Value() > 0 {
				verifyNS = m.VerifyLatency.MeanNS()
			}
			f.row(p.label(), float64(res.InjectedStuck), float64(res.InjectedDrift),
				float64(m.SECDEDCorrected.Value()), float64(m.PCCRecovered.Value()),
				float64(m.UncorrectedReads.Value()), float64(m.WriteRetries.Value()),
				float64(m.WriteRemaps.Value()), float64(m.RemapFailures.Value()), verifyNS)
		}
		f.Notes = append(f.Notes,
			"Injection counts are whole-run (warmup included); handling counters cover the measured window.",
			"Every injected error must surface in a handling counter — the sweep errors out on silent corruption.")
		return f, nil
	})
}
