package exp

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"pcmap/internal/config"
	"pcmap/internal/mem"
	"pcmap/internal/stats"
	"pcmap/internal/system"
	"pcmap/internal/workloads"
)

// FigureResult is one regenerated figure or table: a rendered table
// plus the raw series for machine consumption (EXPERIMENTS.md,
// pcmapreport).
type FigureResult struct {
	ID     string
	Title  string
	Series map[string]map[string]float64 // row -> column -> value
	Table  *stats.Table                  `json:"-"`
	Notes  []string

	cols []column
}

// column is one value column of a figure: its table header, the series
// key its values are stored under, and how a value renders in a cell.
type column struct {
	header, key string
	cell        func(float64) string
}

// pctCol, numCol and countCol are the cell formats: a percentage, a
// two-decimal number and an integer count.
func pctCol(header, key string) column { return column{header, key, stats.Pct} }
func numCol(header, key string) column { return column{header, key, stats.F} }
func countCol(header, key string) column {
	return column{header, key, func(x float64) string { return stats.N(uint64(x)) }}
}

// newFigure starts a figure whose table has a label column headed label
// followed by cols.
func newFigure(id, title, label string, cols ...column) *FigureResult {
	headers := []string{label}
	for _, c := range cols {
		headers = append(headers, c.header)
	}
	return &FigureResult{ID: id, Title: title, Series: map[string]map[string]float64{},
		Table: &stats.Table{Title: title, Headers: headers}, cols: cols}
}

// row adds one row: label, then one value per column, each stored in
// the series under its column's key and rendered in the table with its
// column's format.
func (f *FigureResult) row(label string, values ...float64) {
	if len(values) != len(f.cols) {
		panic(fmt.Sprintf("exp: %s row %q has %d values for %d columns", f.ID, label, len(values), len(f.cols)))
	}
	cells := []string{label}
	for i, c := range f.cols {
		f.set(label, c.key, values[i])
		cells = append(cells, c.cell(values[i]))
	}
	f.Table.AddRow(cells...)
}

// set stores one series value. Besides row, only Headline and Ablations
// call it, each beside its own AddRow calls, because their series and
// tables differ in shape: the headline's table adds the paper's values,
// and the ablations' prints each knob's figure of merit as text.
func (f *FigureResult) set(row, col string, v float64) {
	m, ok := f.Series[row]
	if !ok {
		m = map[string]float64{}
		f.Series[row] = m
	}
	m[col] = v
}

// getFunc looks up the results of one run: the machine s names, changed
// in order by edit (the ablations' knobs beyond Spec).
type getFunc func(s Spec, edit ...func(*config.Config)) *system.Results

// render produces one experiment from draw, which reads every run it
// needs through get. It drives draw in three steps:
//  1. draw runs against placeholder results to list the runs it reads;
//     that pass's figure and error are discarded.
//  2. Those runs execute, deduplicated in first-request order, on
//     the runner's worker pool.
//  3. draw runs again on the real results; a run the first pass did not
//     ask for executes on demand.
func (r *Runner) render(ctx context.Context, draw func(get getFunc) (*FigureResult, error)) (*FigureResult, error) {
	placeholder := &system.Results{Mem: mem.NewMetrics()}
	var (
		plan []run
		seen = map[run]bool{}
		err  error // the first failed lookup
	)
	draw(func(s Spec, edit ...func(*config.Config)) *system.Results {
		k, kerr := r.resolve(s, edit...)
		if kerr != nil {
			err = cmp.Or(err, kerr)
		} else if !seen[k] {
			seen[k] = true
			plan = append(plan, k)
		}
		return placeholder
	})
	if err != nil {
		return nil, err
	}
	if err := r.runAll(ctx, plan); err != nil {
		return nil, err
	}
	f, drawErr := draw(func(s Spec, edit ...func(*config.Config)) *system.Results {
		k, kerr := r.resolve(s, edit...)
		var res *system.Results
		if kerr == nil {
			res, kerr = r.runCtx(ctx, k)
		}
		if kerr != nil {
			err = cmp.Or(err, kerr)
			return placeholder
		}
		return res
	})
	if err != nil {
		return nil, err
	}
	return f, drawErr
}

// overlapVariants are the five systems Figures 9-11 compare against
// the baseline.
var overlapVariants = []config.Variant{
	config.RoWNR, config.WoWNR, config.RWoWNR, config.RWoWRD, config.RWoWRDE,
}

// Fig1 regenerates Figure 1: for each SPEC program on the baseline,
// the percentage of reads delayed by an ongoing write and the
// effective read latency normalized to a symmetric-latency PCM.
func Fig1(ctx context.Context, r *Runner) (*FigureResult, error) {
	return r.render(ctx, func(get getFunc) (*FigureResult, error) {
		f := newFigure("fig1", "Figure 1: reads delayed by writes; read latency vs symmetric PCM (baseline)", "program",
			pctCol("reads delayed by write", "delayedPct"),
			numCol("norm. read latency (vs symmetric)", "normReadLatency"))
		for _, a := range workloads.SPECNames() {
			asym := get(Spec{Workload: a, Variant: config.Baseline})
			symm := get(Spec{Workload: a, Variant: config.Baseline, Symmetric: true})
			delayed := 0.0
			if n := asym.Mem.Reads.Value(); n > 0 {
				delayed = float64(asym.Mem.ReadsDelayedByWrite.Value()) / float64(n)
			}
			norm := 0.0
			if s := symm.Mem.ReadLatency.MeanNS(); s > 0 {
				norm = asym.Mem.ReadLatency.MeanNS() / s
			}
			f.row(a, delayed, norm)
		}
		f.Notes = append(f.Notes,
			"Paper: 11.5%-38.1% of reads delayed; effective latency 1.2x-1.8x over symmetric.")
		return f, nil
	})
}

// Fig2 regenerates Figure 2: the distribution of essential 8B words
// per 64B write-back, measured at the PCM controller.
func Fig2(ctx context.Context, r *Runner) (*FigureResult, error) {
	return r.render(ctx, func(get getFunc) (*FigureResult, error) {
		var cols []column
		for k := 0; k <= 8; k++ {
			cols = append(cols, pctCol(fmt.Sprintf("%dw", k), fmt.Sprintf("w%d", k)))
		}
		cols = append(cols, numCol("mean", "mean"))
		f := newFigure("fig2", "Figure 2: dirty-word distribution of write-backs (measured at PCM)", "program", cols...)
		for _, a := range workloads.SPECNames() {
			res := get(Spec{Workload: a, Variant: config.Baseline})
			var values []float64
			for k := 0; k <= 8; k++ {
				values = append(values, res.Mem.DirtyWords.Fraction(k))
			}
			f.row(a, append(values, res.Mem.DirtyWords.MeanValue())...)
		}
		f.Notes = append(f.Notes,
			"Paper anchors: 14% (omnetpp) to 52% (cactusADM) of write-backs dirty exactly 1 word;",
			"77-99% dirty fewer than 4 words; implied baseline IRLP ~2.37.")
		return f, nil
	})
}

// evalRows lists the Figure 8-11 row labels in the paper's order:
// 6 MT workloads, Average(MT), 6 MP mixes, Average(MP).
func evalRows() []string {
	rows := append([]string{}, workloads.TableIIMT()...)
	rows = append(rows, "Average(MT)")
	rows = append(rows, workloads.TableIIMP()...)
	rows = append(rows, "Average(MP)")
	return rows
}

// evalFigure renders a figure from the shared Figures 8-11 sweep: cell
// [workload][variant] = metric(run, baseline). With includeAvgMT the
// Average(MT) row covers all 13 PARSEC programs.
func evalFigure(ctx context.Context, r *Runner, id, title string, includeAvgMT bool, variants []config.Variant,
	metric func(res, base *system.Results) float64, notes ...string) (*FigureResult, error) {
	return r.render(ctx, func(get getFunc) (*FigureResult, error) {
		var cols []column
		for _, v := range variants {
			cols = append(cols, numCol(v.String(), v.String()))
		}
		f := newFigure(id, title, "workload", cols...)
		f.Notes = notes

		value := func(workload string, v config.Variant) float64 {
			return metric(get(Spec{Workload: workload, Variant: v}),
				get(Spec{Workload: workload, Variant: config.Baseline}))
		}
		avgOver := func(names []string, v config.Variant) float64 {
			var xs []float64
			for _, n := range names {
				xs = append(xs, value(n, v))
			}
			return stats.ArithMean(xs)
		}

		mtNames := workloads.TableIIMT()
		if includeAvgMT {
			mtNames = workloads.PARSECNames()
		}
		for _, row := range evalRows() {
			var values []float64
			for _, v := range variants {
				switch row {
				case "Average(MT)":
					values = append(values, avgOver(mtNames, v))
				case "Average(MP)":
					values = append(values, avgOver(workloads.TableIIMP(), v))
				default:
					values = append(values, value(row, v))
				}
			}
			f.row(row, values...)
		}
		return f, nil
	})
}

// Fig8 regenerates Figure 8: IRLP per workload for Baseline, WoW-NR,
// RWoW-RD and RWoW-RDE (the paper's legend).
func Fig8(ctx context.Context, r *Runner, includeAvgMT bool) (*FigureResult, error) {
	return evalFigure(ctx, r, "fig8", "Figure 8: intra-rank-level parallelism during writes", includeAvgMT,
		[]config.Variant{config.Baseline, config.WoWNR, config.RWoWRD, config.RWoWRDE},
		func(res, _ *system.Results) float64 { return res.IRLPAvg },
		"Paper: baseline <2 (MT) to ~2.4; RWoW-RDE ~4.5 average, up to 7.4 (max 8.0);",
		"MP1-MP3 approach 8 with full rotation.")
}

// Fig9 regenerates Figure 9: write throughput normalized to baseline.
func Fig9(ctx context.Context, r *Runner, includeAvgMT bool) (*FigureResult, error) {
	return evalFigure(ctx, r, "fig9", "Figure 9: write throughput improvement over baseline", includeAvgMT,
		overlapVariants, func(res, base *system.Results) float64 {
			b := base.Mem.WriteThroughput()
			if b <= 0 {
				return 0
			}
			return res.Mem.WriteThroughput() / b
		},
		"Paper: >1.2x for 5 of 12 workloads with full PCMap; >10% for the majority;",
		"RWoW averages ~33% over the non-consolidating systems.")
}

// Fig10 regenerates Figure 10: effective read latency normalized to
// baseline.
func Fig10(ctx context.Context, r *Runner, includeAvgMT bool) (*FigureResult, error) {
	return evalFigure(ctx, r, "fig10", "Figure 10: effective read latency (normalized to baseline)", includeAvgMT,
		overlapVariants, func(res, base *system.Results) float64 {
			b := base.Mem.ReadLatency.MeanNS()
			if b <= 0 {
				return 0
			}
			return res.Mem.ReadLatency.MeanNS() / b
		},
		"Paper: RoW-NR cuts effective read latency 6-14%; RWoW-RDE reaches ~50% (MT) and ~55% (MP) reductions.")
}

// Fig11 regenerates Figure 11: IPC improvement over baseline.
func Fig11(ctx context.Context, r *Runner, includeAvgMT bool) (*FigureResult, error) {
	return evalFigure(ctx, r, "fig11", "Figure 11: IPC improvement over baseline", includeAvgMT,
		overlapVariants, func(res, base *system.Results) float64 {
			if base.IPCSum <= 0 {
				return 0
			}
			return res.IPCSum/base.IPCSum - 1
		},
		"Paper averages: RoW-NR 4.5%, WoW-NR 6.1%, RWoW-NR 9.95%, RWoW-RD 13.1%, RWoW-RDE 16.6%.")
}

// Table2 checks the workload calibration: measured RPKI/WPKI against
// the Table II targets.
func Table2(ctx context.Context, r *Runner) (*FigureResult, error) {
	return r.render(ctx, func(get getFunc) (*FigureResult, error) {
		f := newFigure("table2", "Table II: workload intensity (measured vs paper)", "workload",
			numCol("RPKI (paper)", "rpkiPaper"), numCol("RPKI (measured)", "rpkiMeasured"),
			numCol("WPKI (paper)", "wpkiPaper"), numCol("WPKI (measured)", "wpkiMeasured"))
		for _, n := range workloads.EvaluationSet() {
			res := get(Spec{Workload: n, Variant: config.Baseline})
			mix := workloads.MustMix(n)
			rp, wp := mix.AggregateRPKIWPKI()
			f.row(n, rp, res.RPKI, wp, res.WPKI)
		}
		f.Notes = append(f.Notes,
			"MP-mix paper targets are per-program solo intensities averaged; the paper's Table II",
			"reports measured mix behavior, so MP rows are approximate by construction.")
		return f, nil
	})
}

// Table3 regenerates Table III: IPC improvement of RWoW-NR and
// RWoW-RDE as the write-to-read latency ratio varies from 2x to 8x.
func Table3(ctx context.Context, r *Runner) (*FigureResult, error) {
	ratios := []float64{2, 4, 6, 8}
	names := workloads.EvaluationSet()
	variants := []config.Variant{config.RWoWRDE, config.RWoWNR}
	return r.render(ctx, func(get getFunc) (*FigureResult, error) {
		var cols []column
		for _, ratio := range ratios {
			cols = append(cols, pctCol(fmt.Sprintf("%gx", ratio), fmt.Sprintf("%gx", ratio)))
		}
		f := newFigure("table3", "Table III: IPC improvement vs write-to-read latency ratio", "system", cols...)
		for _, v := range variants {
			var values []float64
			for _, ratio := range ratios {
				var imps []float64
				for _, n := range names {
					base := get(Spec{Workload: n, Variant: config.Baseline, WriteToReadRatio: ratio})
					res := get(Spec{Workload: n, Variant: v, WriteToReadRatio: ratio})
					if base.IPCSum > 0 {
						imps = append(imps, res.IPCSum/base.IPCSum-1)
					}
				}
				values = append(values, stats.ArithMean(imps))
			}
			f.row(v.String(), values...)
		}
		f.Notes = append(f.Notes,
			"Paper: RWoW-RDE 16.6% -> 24.3% as the ratio grows 2x -> 8x; RWoW-NR 11.3% -> 24.7%",
			"(RWoW-NR depends on the ratio much more strongly).")
		return f, nil
	})
}

// Table4 regenerates Table IV: the cost of RoW verification rollbacks
// for the workloads with the most rollbacks, comparing an always-faulty
// system against a never-faulty one.
func Table4(ctx context.Context, r *Runner) (*FigureResult, error) {
	return r.render(ctx, func(get getFunc) (*FigureResult, error) {
		f := newFigure("table4", "Table IV: IPC of RoW under rollback (faulty vs non-faulty)", "workload",
			pctCol("max rollbacks", "maxRollbackPct"), pctCol("IPC imp. (faulty)", "ipcImpFaulty"),
			pctCol("IPC imp. (non-faulty)", "ipcImpNonFaulty"), pctCol("rollback cost", "rollbackCost"))
		for _, n := range []string{"canneal", "facesim", "MP6", "ferret"} {
			base := get(Spec{Workload: n, Variant: config.Baseline})
			faulty := get(Spec{Workload: n, Variant: config.RWoWRDE, FaultMode: "always"})
			clean := get(Spec{Workload: n, Variant: config.RWoWRDE, FaultMode: "never"})
			impF, impC := 0.0, 0.0
			if base.IPCSum > 0 {
				impF = faulty.IPCSum/base.IPCSum - 1
				impC = clean.IPCSum/base.IPCSum - 1
			}
			f.row(n, faulty.MaxRollbackPct, impF, impC, impC-impF)
		}
		f.Notes = append(f.Notes,
			"Paper: rollbacks up to 5.8% (canneal); RoW never loses to baseline even always-faulty;",
			"rollback cost up to 4.6%.")
		return f, nil
	})
}

// Headline computes the paper's headline numbers: IRLP 2.37 -> 4.5
// (max 7.4) and IPC +15.6%/+16.7% (MP/MT) for full PCMap. With
// includeAvgMT the multithreaded average covers all 13 PARSEC programs,
// matching the paper's Average(MT) definition (Section V).
func Headline(ctx context.Context, r *Runner, includeAvgMT bool) (*FigureResult, error) {
	return r.render(ctx, func(get getFunc) (*FigureResult, error) {
		f := newFigure("headline", "Headline: IRLP and IPC of full PCMap (RWoW-RDE) vs baseline", "metric",
			column{header: "measured"}, column{header: "paper"})
		mtSet := workloads.TableIIMT()
		if includeAvgMT {
			mtSet = workloads.PARSECNames()
		}
		var irlpBase, irlpFull, impMT, impMP []float64
		names := append(append([]string{}, mtSet...), workloads.TableIIMP()...)
		for _, n := range names {
			base := get(Spec{Workload: n, Variant: config.Baseline})
			full := get(Spec{Workload: n, Variant: config.RWoWRDE})
			irlpBase = append(irlpBase, base.IRLPAvg)
			irlpFull = append(irlpFull, full.IRLPAvg)
			if base.IPCSum > 0 {
				imp := full.IPCSum/base.IPCSum - 1
				if slices.Contains(mtSet, n) {
					impMT = append(impMT, imp)
				} else {
					impMP = append(impMP, imp)
				}
			}
		}
		maxIRLP := slices.Max(irlpFull)
		f.set("IRLP", "baseline", stats.ArithMean(irlpBase))
		f.set("IRLP", "pcmap", stats.ArithMean(irlpFull))
		f.set("IRLP", "pcmapMax", maxIRLP)
		f.set("IPC improvement", "MT", stats.ArithMean(impMT))
		f.set("IPC improvement", "MP", stats.ArithMean(impMP))
		f.Table.AddRow("IRLP baseline", stats.F(stats.ArithMean(irlpBase)), "2.37")
		f.Table.AddRow("IRLP PCMap (avg)", stats.F(stats.ArithMean(irlpFull)), "4.5")
		f.Table.AddRow("IRLP PCMap (max workload)", stats.F(maxIRLP), "7.4")
		f.Table.AddRow("IPC improvement (MT)", stats.Pct(stats.ArithMean(impMT)), "16.7%")
		f.Table.AddRow("IPC improvement (MP)", stats.Pct(stats.ArithMean(impMP)), "15.6%")
		return f, nil
	})
}

// Pausing compares PCMap against the write-pausing comparator (Qureshi
// et al., HPCA 2010; Section VII of the paper): pausing lets reads
// preempt a baseline write at segment boundaries, RoW overlaps them
// outright. This is an extension beyond the paper's own evaluation.
func Pausing(ctx context.Context, r *Runner) (*FigureResult, error) {
	return r.render(ctx, func(get getFunc) (*FigureResult, error) {
		f := newFigure("pausing", "Extension: write pausing (HPCA'10) vs PCMap", "workload",
			numCol("pausing read-lat (norm)", "pausingReadLat"), numCol("PCMap read-lat (norm)", "pcmapReadLat"),
			pctCol("pausing IPC imp", "pausingIPC"), pctCol("PCMap IPC imp", "pcmapIPC"))
		for _, n := range workloads.EvaluationSet() {
			base := get(Spec{Workload: n, Variant: config.Baseline})
			pause := get(Spec{Workload: n, Variant: config.Baseline, WritePausing: true})
			pcmap := get(Spec{Workload: n, Variant: config.RWoWRDE})
			bl := base.Mem.ReadLatency.MeanNS()
			if bl <= 0 || base.IPCSum <= 0 {
				continue
			}
			f.row(n, pause.Mem.ReadLatency.MeanNS()/bl, pcmap.Mem.ReadLatency.MeanNS()/bl,
				pause.IPCSum/base.IPCSum-1, pcmap.IPCSum/base.IPCSum-1)
		}
		f.Notes = append(f.Notes,
			"Write pausing only interrupts the one serialized write; PCMap overlaps reads AND",
			"consolidates writes, so it should dominate on write-intense workloads.")
		return f, nil
	})
}

// Palp compares the two follow-on variants against the full PCMap
// design (RWoW-RDE): PALP (partition-level access parallelism, arXiv
// 1908.07966) and RWoW-DCA (data-content-aware write timing, arXiv
// 2005.04753). The part-overlap column counts accesses served only
// because the conflicting work sat in another partition of the same
// bank — zero by construction for every non-partitioned variant.
func Palp(ctx context.Context, r *Runner) (*FigureResult, error) {
	return r.render(ctx, func(get getFunc) (*FigureResult, error) {
		f := newFigure("palp", "Extension: PALP + content-aware writes vs RWoW-RDE", "workload",
			pctCol("PALP IPC imp", "palpIPC"), pctCol("DCA IPC imp", "dcaIPC"),
			numCol("PALP read-lat (norm)", "palpReadLat"), numCol("DCA write-tput (norm)", "dcaWriteTput"),
			countCol("overlap reads RDE", "overlapReadsRDE"), countCol("overlap reads PALP", "overlapReadsPALP"),
			countCol("part overlaps", "partOverlaps"))
		for _, n := range workloads.EvaluationSet() {
			rde := get(Spec{Workload: n, Variant: config.RWoWRDE})
			palp := get(Spec{Workload: n, Variant: config.PALP})
			dca := get(Spec{Workload: n, Variant: config.RWoWDCA})
			rl := rde.Mem.ReadLatency.MeanNS()
			wt := rde.Mem.WriteThroughput()
			if rl <= 0 || wt <= 0 || rde.IPCSum <= 0 {
				continue
			}
			partOverlaps := palp.Mem.PartOverlapReads.Value() + palp.Mem.PartOverlapWrites.Value()
			f.row(n, palp.IPCSum/rde.IPCSum-1, dca.IPCSum/rde.IPCSum-1,
				palp.Mem.ReadLatency.MeanNS()/rl, dca.Mem.WriteThroughput()/wt,
				float64(rde.Mem.OverlapReads.Value()), float64(palp.Mem.OverlapReads.Value()),
				float64(partOverlaps))
		}
		f.Notes = append(f.Notes,
			"PALP splits each bank into partitions and serves a read while a write occupies a",
			"different partition of the same bank; part overlaps count those services (always 0",
			"for the paper's six variants). RWoW-DCA computes each chip-word's programming time",
			"from the differential write's actual SET/RESET bit counts.")
		return f, nil
	})
}
