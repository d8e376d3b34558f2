package exp

import (
	"context"
	"fmt"

	"pcmap/internal/config"
	"pcmap/internal/mem"
	"pcmap/internal/stats"
	"pcmap/internal/system"
)

// Ablations exercises the design choices DESIGN.md calls out, beyond
// the paper's own variant matrix: the write-drain threshold alpha, the
// DIMM status-poll cost, the WoW outstanding-write bound, the Section
// IV-B4 multi-word RoW extension, and Start-Gap wear leveling. Each
// knob runs on a representative write-intense workload (MP6) at the
// runner's budgets, reporting IPC and the knob's own figure of merit.
func Ablations(ctx context.Context, r *Runner) (*FigureResult, error) {
	return r.render(ctx, func(get getFunc) (*FigureResult, error) {
		f := newFigure("ablations", "Ablations: PCMap design-choice sensitivity (MP6)", "knob",
			column{header: "setting"}, column{header: "IPC (sum)"}, column{header: "figure of merit"})
		// row reads one ablation run: variant on MP6 with one knob
		// changed from Table I. Settings equal to the default name the
		// variant's plain run, which the runner shares with every other
		// experiment.
		row := func(variant config.Variant, name, setting string, edit func(*config.Config), merit func(*system.Results) string) {
			res := get(Spec{Workload: "MP6", Variant: variant}, edit)
			f.set(name+"/"+setting, "ipc", res.IPCSum)
			f.Table.AddRow(name, setting, stats.F(res.IPCSum), merit(res))
		}

		for _, alpha := range []float64{0.6, 0.8, 0.95} {
			row(config.RWoWRDE, "drain-alpha", fmt.Sprintf("%.0f%%", alpha*100),
				func(c *config.Config) { c.Memory.DrainHighPct = alpha },
				func(res *system.Results) string {
					return fmt.Sprintf("%d drains", res.Mem.DrainEntries.Value())
				})
		}
		for _, cycles := range []mem.Cycles{0, 2, 8} {
			row(config.RWoWRDE, "status-poll", fmt.Sprintf("%d cycles", cycles),
				func(c *config.Config) { c.Memory.StatusPollCycles = cycles },
				func(res *system.Results) string {
					return fmt.Sprintf("%d polls", res.Mem.StatusPolls.Value())
				})
		}
		for _, n := range []int{1, 2, 4} {
			row(config.RWoWRDE, "max-writes", fmt.Sprintf("%d", n),
				func(c *config.Config) { c.Memory.MaxConcurrentWrites = n },
				func(res *system.Results) string {
					return fmt.Sprintf("%.2f writes/us", res.Mem.WriteThroughput())
				})
		}
		for _, multi := range []bool{false, true} {
			setting := "1-word only (paper)"
			if multi {
				setting = "multi-word (SecIV-B4)"
			}
			row(config.RWoWRDE, "row-scope", setting,
				func(c *config.Config) { c.Memory.RoWMultiWord = multi },
				func(res *system.Results) string {
					return fmt.Sprintf("%d RoW reads", res.Mem.RoWServed.Value())
				})
		}
		for _, psi := range []uint64{0, 100} {
			setting := "off"
			if psi > 0 {
				setting = fmt.Sprintf("psi=%d", psi)
			}
			row(config.RWoWRDE, "start-gap", setting,
				func(c *config.Config) { c.Memory.WearLevelPsi = psi },
				func(res *system.Results) string {
					return fmt.Sprintf("wearCV %.3f, %d moves", res.WearCV, res.Mem.WearMoves.Value())
				})
		}
		for _, rq := range []int{4, 8, 16} {
			row(config.RWoWRDE, "read-queue", fmt.Sprintf("%d entries", rq),
				func(c *config.Config) { c.Memory.ReadQueueCap = rq },
				func(res *system.Results) string {
					return fmt.Sprintf("readLat %.0fns", res.Mem.ReadLatency.MeanNS())
				})
		}
		for _, parts := range []int{2, 4, 8} {
			row(config.PALP, "palp-partitions", fmt.Sprintf("%d", parts),
				func(c *config.Config) { c.Memory.Partitions = parts },
				func(res *system.Results) string {
					return fmt.Sprintf("%d part overlaps",
						res.Mem.PartOverlapReads.Value()+res.Mem.PartOverlapWrites.Value())
				})
		}
		for _, rounds := range []int{2, 8, 32} {
			row(config.RWoWDCA, "dca-rounds", fmt.Sprintf("%d", rounds),
				func(c *config.Config) { c.Memory.DCARounds = rounds },
				func(res *system.Results) string {
					return fmt.Sprintf("%.2f writes/us", res.Mem.WriteThroughput())
				})
		}
		f.Notes = append(f.Notes,
			"All rows run RWoW-RDE on MP6 unless the knob names a follow-on variant",
			"(palp-partitions runs PALP, dca-rounds runs RWoW-DCA); only the named knob",
			"varies from Table I defaults.")
		return f, nil
	})
}
