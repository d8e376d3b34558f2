// Command pcmapsim regenerates the paper's evaluation: every figure
// and table of "Boosting Access Parallelism to PCM-Based Main Memory"
// (ISCA 2016), on the simulator this repository implements.
//
// Usage:
//
//	pcmapsim -exp fig8                 # one experiment
//	pcmapsim -exp all -json out.json   # everything, plus raw series
//	pcmapsim -exp fig11 -avgmt         # include the Average(MT) PARSEC sweep
//	pcmapsim -exp adhoc -workload MP4 -variant RWoW-RDE
//	pcmapsim -exp adhoc -workload stream -trace out.json   # timeline trace
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"
	"time"

	"pcmap/internal/cli"
	"pcmap/internal/config"
	"pcmap/internal/exp"
	"pcmap/internal/obs"
)

// simFlags is pcmapsim's full flag surface, defined through the shared
// vocabulary in internal/cli where a flag is common across tools and
// pinned by TestFlagSurface.
type simFlags struct {
	exp       *string
	warmup    *uint64
	measure   *uint64
	avgmt     *bool
	format    *string
	jsonPath  *string
	par       *int
	verbose   *bool
	workload  *string
	variant   *string
	listVars  *bool
	seed      *uint64
	ratio     *float64
	pausing   *bool
	endurance *uint64
	drift     *float64
	verify    *bool
	tracePath *string
	traceSmpl *int
	cacheDir  *string
	resume    *bool
	timeout   *time.Duration
	cpuProf   *string
	memProf   *string
}

func defineFlags(fs *flag.FlagSet) *simFlags {
	return &simFlags{
		exp:       fs.String("exp", "headline", "experiment: "+strings.Join(experimentNames(), ",")+",all,adhoc"),
		warmup:    fs.Uint64("warmup", 40_000, "warmup instructions per core"),
		measure:   fs.Uint64("measure", 400_000, "measured instructions per core"),
		avgmt:     fs.Bool("avgmt", false, "include the full 13-program PARSEC Average(MT) sweep"),
		format:    fs.String("format", "md", "output format: md or csv"),
		jsonPath:  fs.String("json", "", "also write raw series as JSON to this file"),
		par:       fs.Int("par", 0, "parallel simulations (0 = NumCPU)"),
		verbose:   fs.Bool("v", false, "print per-run progress"),
		workload:  cli.Workload(fs, "MP4"),
		variant:   cli.Variant(fs, "RWoW-RDE"),
		listVars:  cli.ListVariants(fs),
		seed:      cli.Seed(fs, 0),
		ratio:     fs.Float64("ratio", 0, "adhoc: write-to-read latency ratio override (0 = default 2x)"),
		pausing:   fs.Bool("pausing", false, "adhoc: enable the write-pausing comparator (baseline only)"),
		endurance: fs.Uint64("endurance", 0, "adhoc: write-endurance budget before cells stick (0 = perfect cells)"),
		drift:     fs.Float64("drift", 0, "adhoc: per-read drift bit-flip probability"),
		verify:    fs.Bool("verify", false, "adhoc: enable the program-and-verify write path"),
		tracePath: fs.String("trace", "", "adhoc: write a Chrome trace_event timeline of the run to this JSON file"),
		traceSmpl: fs.Int("tracesample", 1, "adhoc: keep every Nth counter sample in the trace (spans and instants are never sampled)"),
		cacheDir:  fs.String("cache", "", "persist completed runs to this result-cache directory"),
		resume:    fs.Bool("resume", false, "load previously cached runs instead of re-simulating (requires -cache)"),
		timeout:   cli.Timeout(fs, 0),
		cpuProf:   fs.String("cpuprofile", "", "write a CPU profile to this file"),
		memProf:   fs.String("memprofile", "", "write a heap profile to this file at exit"),
	}
}

// experiment is one -exp other than adhoc: its name, whether it reads
// -avgmt and -workload/-variant, and how it runs.
type experiment struct {
	name            string
	avgmt, workload bool
	run             func(ctx context.Context, r *exp.Runner, f *simFlags) (*exp.FigureResult, error)
}

// plain and withAvgMT make the entries of experiments that read no flag
// and that read -avgmt.
func plain(name string, fn func(context.Context, *exp.Runner) (*exp.FigureResult, error)) experiment {
	return experiment{name: name, run: func(ctx context.Context, r *exp.Runner, _ *simFlags) (*exp.FigureResult, error) {
		return fn(ctx, r)
	}}
}

func withAvgMT(name string, fn func(context.Context, *exp.Runner, bool) (*exp.FigureResult, error)) experiment {
	return experiment{name: name, avgmt: true, run: func(ctx context.Context, r *exp.Runner, f *simFlags) (*exp.FigureResult, error) {
		return fn(ctx, r, *f.avgmt)
	}}
}

// experiments is every -exp other than adhoc, in -exp all's order.
var experiments = []experiment{
	plain("fig1", exp.Fig1), plain("fig2", exp.Fig2),
	withAvgMT("fig8", exp.Fig8), withAvgMT("fig9", exp.Fig9), withAvgMT("fig10", exp.Fig10), withAvgMT("fig11", exp.Fig11),
	plain("table2", exp.Table2), plain("table3", exp.Table3), plain("table4", exp.Table4),
	withAvgMT("headline", exp.Headline),
	plain("pausing", exp.Pausing), plain("palp", exp.Palp), plain("ablations", exp.Ablations),
	{name: "reliability", workload: true, run: func(ctx context.Context, r *exp.Runner, f *simFlags) (*exp.FigureResult, error) {
		v, err := config.ParseVariant(*f.variant)
		if err != nil {
			return nil, err
		}
		return exp.Reliability(ctx, r, *f.workload, v)
	}},
}

// experimentNames lists the names of experiments, in order.
func experimentNames() []string {
	var names []string
	for _, e := range experiments {
		names = append(names, e.name)
	}
	return names
}

// flagReaders maps each flag that only some experiments read to those
// experiments. Setting one when none of them is selected is an error,
// not a silent no-op. Flags not listed apply to every experiment.
var flagReaders = func() map[string][]string {
	m := map[string][]string{
		"ratio": {"adhoc"}, "pausing": {"adhoc"}, "endurance": {"adhoc"}, "drift": {"adhoc"},
		"verify": {"adhoc"}, "trace": {"adhoc"}, "tracesample": {"adhoc"},
		"workload": {"adhoc"}, "variant": {"adhoc"},
	}
	for _, e := range experiments {
		reads := []string{"format", "json"}
		if e.avgmt {
			reads = append(reads, "avgmt")
		}
		if e.workload {
			reads = append(reads, "workload", "variant")
		}
		for _, name := range reads {
			m[name] = append(m[name], e.name)
		}
	}
	return m
}()

// checkFlagReaders reports the first flag set on fs (in name order)
// that none of the selected experiments reads.
func checkFlagReaders(fs *flag.FlagSet, selected []string) error {
	var err error
	fs.Visit(func(fl *flag.Flag) {
		readers, ok := flagReaders[fl.Name]
		if !ok || err != nil {
			return
		}
		for _, n := range selected {
			if slices.Contains(readers, n) {
				return
			}
		}
		err = fmt.Errorf("invalid -%s: no selected experiment reads it (only -exp %s)", fl.Name, strings.Join(readers, ","))
	})
	return err
}

func main() {
	// `pcmapsim serve` is a subcommand with its own flag surface (the
	// long-running simulation service); everything else is the one-shot
	// flag interface below.
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := cmdServe(os.Args[2:]); err != nil {
			fatal(err)
		}
		return
	}

	f := defineFlags(flag.CommandLine)
	flag.Parse()
	if *f.listVars {
		fmt.Print(cli.PrintVariants())
		return
	}

	if *f.cpuProf != "" {
		pf, err := os.Create(*f.cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			fatal(err)
		}
		stopProfiles = pprof.StopCPUProfile
	}
	if path := *f.memProf; path != "" {
		stopCPU := stopProfiles
		stopProfiles = func() {
			writeHeapProfile(path)
			stopCPU()
		}
	}
	defer func() { stopProfiles() }()

	if *f.format != "md" && *f.format != "csv" {
		fatal(fmt.Errorf("invalid -format %q (want md or csv)", *f.format))
	}
	if *f.measure == 0 {
		fatal(fmt.Errorf("invalid -measure 0 (need a measured instruction budget)"))
	}
	if *f.ratio != 0 {
		if err := config.Default().Memory.CheckWriteToReadRatio(*f.ratio); err != nil {
			fatal(fmt.Errorf("invalid -ratio: %v", err))
		}
	}
	if !(*f.drift >= 0 && *f.drift < 1) {
		fatal(fmt.Errorf("invalid -drift %g (must be in [0,1))", *f.drift))
	}
	if *f.resume && *f.cacheDir == "" {
		fatal(fmt.Errorf("invalid -resume: requires -cache DIR to resume from"))
	}
	if *f.traceSmpl < 1 {
		fatal(fmt.Errorf("invalid -tracesample %d (must be >= 1)", *f.traceSmpl))
	}
	names := strings.Split(*f.exp, ",")
	var selected []experiment
	switch *f.exp {
	case "all":
		names, selected = experimentNames(), experiments
	case "adhoc":
	default:
		for _, n := range names {
			i := slices.IndexFunc(experiments, func(e experiment) bool { return e.name == n })
			if i < 0 {
				fatal(fmt.Errorf("unknown experiment %q (want one of %s, all, adhoc)", n, strings.Join(experimentNames(), ", ")))
			}
			selected = append(selected, experiments[i])
		}
	}
	if err := checkFlagReaders(flag.CommandLine, names); err != nil {
		fatal(err)
	}

	// SIGINT/SIGTERM cancels the run or sweep: no new simulations are
	// dispatched, in-flight ones halt between engine events and are not
	// cached, and the process exits 130 (runFailed). Completed runs are
	// already in the cache, so re-running with -cache DIR -resume
	// continues where it stopped.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// -timeout is the same cooperative cancellation as a signal: the
	// deadline stops dispatch, in-flight simulations halt between engine
	// events, and cached runs stay resumable.
	if *f.timeout > 0 {
		var cancelTimeout context.CancelFunc
		ctx, cancelTimeout = context.WithTimeout(ctx, *f.timeout)
		defer cancelTimeout()
	}

	r := exp.NewRunner()
	r.Warmup, r.Measure, r.Parallelism = *f.warmup, *f.measure, *f.par
	r.Seed = *f.seed
	r.Resume = *f.resume
	if *f.cacheDir != "" {
		cache, err := exp.NewDiskCache(*f.cacheDir)
		if err != nil {
			fatal(err)
		}
		r.Cache = cache
	}
	if *f.verbose {
		r.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}
	// Sweep throughput summary: stderr only, so stdout (figures, tables,
	// JSON series) stays a pure function of config and seed.
	defer printAggregate(r)

	if *f.exp == "adhoc" {
		if err := runAdhoc(ctx, r, f); err != nil {
			runFailed(r, f, err)
		}
		return
	}

	var results []*exp.FigureResult
	for _, e := range selected {
		fig, err := e.run(ctx, r, f)
		if err != nil {
			runFailed(r, f, err)
		}
		results = append(results, fig)
		if *f.format == "csv" {
			fmt.Println(fig.Table.CSV())
		} else {
			fmt.Println(fig.Table.Markdown())
		}
		for _, note := range fig.Notes {
			fmt.Printf("> %s\n", note)
		}
		fmt.Println()
	}

	if *f.jsonPath != "" {
		data, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*f.jsonPath, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *f.jsonPath)
	}
}

// runAdhoc runs the one simulation the adhoc flags name and prints its
// report.
func runAdhoc(ctx context.Context, r *exp.Runner, f *simFlags) error {
	variant, err := config.ParseVariant(*f.variant)
	if err != nil {
		return err
	}
	if *f.tracePath != "" {
		r.Tracer = obs.New(obs.DefaultCapacity, *f.traceSmpl)
	}
	res, err := r.RunCtx(ctx, exp.Spec{Workload: *f.workload, Variant: variant,
		WriteToReadRatio: *f.ratio, WritePausing: *f.pausing,
		EnduranceBudget: *f.endurance, DriftProb: *f.drift, VerifyWrites: *f.verify})
	if err != nil {
		return err
	}
	if r.Tracer != nil {
		if err := writeTrace(r.Tracer, *f.tracePath); err != nil {
			return err
		}
	}
	fmt.Printf("workload          %s\n", res.Workload)
	fmt.Printf("variant           %s\n", res.Variant)
	fmt.Printf("IPC (sum)         %.3f\n", res.IPCSum)
	fmt.Printf("RPKI / WPKI       %.2f / %.2f\n", res.RPKI, res.WPKI)
	fmt.Printf("IRLP avg / max    %.2f / %d\n", res.IRLPAvg, res.IRLPMax)
	fmt.Printf("read latency      %.1f ns (p95 %.1f ns)\n",
		res.Mem.ReadLatency.MeanNS(), res.Mem.ReadLatency.PercentileNS(95))
	fmt.Printf("write throughput  %.2f writes/us\n", res.Mem.WriteThroughput())
	fmt.Printf("reads delayed     %.1f%%\n",
		100*float64(res.Mem.ReadsDelayedByWrite.Value())/float64(res.Mem.Reads.Value()+1))
	fmt.Printf("RoW served        %d (verifies %d, faulty %d)\n",
		res.Mem.RoWServed.Value(), res.Mem.RoWVerifies.Value(), res.Mem.RoWFaulty.Value())
	fmt.Printf("WoW overlapped    %d\n", res.Mem.WoWOverlapped.Value())
	fmt.Printf("rollbacks         %d\n", res.Rollbacks)
	fmt.Printf("wear imbalance    %.3f (CV of per-chip writes)\n", res.WearCV)
	fmt.Printf("write pauses      %d\n", res.Mem.WritePauses.Value())
	// Follow-on variant lines print only when the capability is on, so
	// the six paper variants' reports stay byte-identical.
	if feat := res.Variant.Features(); feat.PartitionRoW {
		fmt.Printf("part overlaps     %d reads, %d writes\n",
			res.Mem.PartOverlapReads.Value(), res.Mem.PartOverlapWrites.Value())
	} else if feat.ContentAware {
		fmt.Printf("bits per write    %.1f SET, %.1f RESET (mean)\n",
			res.Mem.SetBits.MeanValue(), res.Mem.ResetBits.MeanValue())
	}
	if *f.endurance > 0 || *f.drift > 0 || *f.verify {
		fmt.Printf("injected faults   %d stuck-at, %d drift flips\n", res.InjectedStuck, res.InjectedDrift)
		fmt.Printf("read corrections  SECDED %d (check-only %d), PCC rebuilt %d, uncorrectable %d\n",
			res.Mem.SECDEDCorrected.Value(), res.Mem.SECDEDCheckFixed.Value(),
			res.Mem.PCCRecovered.Value(), res.Mem.UncorrectedReads.Value())
		fmt.Printf("verify path       %d verified, %d read-backs, %d retries, %d remaps (%d failed)\n",
			res.Mem.WriteVerifies.Value(), res.Mem.VerifyReads.Value(),
			res.Mem.WriteRetries.Value(), res.Mem.WriteRemaps.Value(), res.Mem.RemapFailures.Value())
		if res.Mem.WriteVerifies.Value() > 0 {
			fmt.Printf("verify overhead   %.1f ns/write (p95 %.1f ns)\n",
				res.Mem.VerifyLatency.MeanNS(), res.Mem.VerifyLatency.PercentileNS(95))
		}
	}
	fmt.Printf("energy            %s\n", res.Energy)
	return nil
}

// writeTrace serializes the run's timeline as Chrome trace_event JSON
// (load it at chrome://tracing or https://ui.perfetto.dev). Trace
// bookkeeping goes to stderr so stdout stays the run report alone.
func writeTrace(tr *obs.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("writing trace %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	if d := tr.Dropped(); d > 0 {
		fmt.Fprintf(os.Stderr, "pcmapsim: trace ring overflowed; the %d oldest records were dropped (the trace covers the end of the run)\n", d)
	}
	fmt.Fprintf(os.Stderr, "pcmapsim: wrote %s (%d timeline records)\n", path, tr.Len())
	return nil
}

// printAggregate emits the one-line sweep throughput summary to stderr.
func printAggregate(r *exp.Runner) {
	sims, events, wall := r.Totals()
	if hits := r.CacheHits(); hits > 0 {
		fmt.Fprintf(os.Stderr, "pcmapsim: %d runs loaded from cache, %d simulated\n", hits, sims)
	}
	if sims == 0 {
		return
	}
	rate := 0.0
	if wall > 0 {
		rate = float64(events) / wall.Seconds()
	}
	fmt.Fprintf(os.Stderr, "pcmapsim: %d sims, %d events, %d instructions, %.1fM events/sec per sim thread\n",
		sims, events, r.Instructions(), rate/1e6)
}

// runFailed maps a failed run or sweep to its exit: a signal exits 130
// and -timeout 1, each with a resume hint, and any other error 1.
func runFailed(r *exp.Runner, f *simFlags, err error) {
	switch {
	case errors.Is(err, context.Canceled):
		interrupted(r, *f.cacheDir)
	case errors.Is(err, context.DeadlineExceeded):
		timedOut(r, *f.timeout, *f.cacheDir)
	}
	fatal(err)
}

// timedOut reports a sweep stopped by -timeout and exits 1. Like a
// signal, the deadline leaves completed runs in the cache, so -resume
// picks up where the clock ran out.
func timedOut(r *exp.Runner, d time.Duration, cacheDir string) {
	sims, _, _ := r.Totals()
	msg := fmt.Sprintf("pcmapsim: -timeout %s elapsed after %d completed sims", d, sims)
	if cacheDir != "" {
		msg += fmt.Sprintf("; re-run with -cache %s -resume to continue", cacheDir)
	}
	fmt.Fprintln(os.Stderr, msg)
	exit(1)
}

// interrupted reports a signal-cancelled sweep and exits 130 (the
// conventional SIGINT status). Completed runs are already on disk when
// -cache was given, so the user can re-run with -resume.
func interrupted(r *exp.Runner, cacheDir string) {
	sims, _, _ := r.Totals()
	msg := fmt.Sprintf("pcmapsim: interrupted after %d completed sims", sims)
	if cacheDir != "" {
		msg += fmt.Sprintf("; re-run with -cache %s -resume to continue", cacheDir)
	}
	fmt.Fprintln(os.Stderr, msg)
	exit(130)
}

// writeHeapProfile snapshots the heap at exit for -memprofile.
func writeHeapProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pcmapsim: memprofile:", err)
		return
	}
	defer f.Close()
	runtime.GC() // materialize up-to-date allocation statistics
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "pcmapsim: memprofile:", err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pcmapsim:", err)
	exit(1)
}

// stopProfiles finishes -cpuprofile and -memprofile once they have
// started. os.Exit skips deferred calls, so every exit path calls it:
// main's return through a defer, the others through exit.
var stopProfiles = func() {}

// exit ends the process with code once the profiles are written.
func exit(code int) {
	stopProfiles()
	os.Exit(code)
}
