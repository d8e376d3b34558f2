package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"pcmap/internal/config"
	"pcmap/internal/exp"
	"pcmap/internal/system"
	"pcmap/internal/workloads"
)

// workload is one named benchmark input. A single-simulation workload
// runs one system.New + Run per repetition; the sweep workload runs
// exp.Runner.RunAll over the evaluation set.
type workload struct {
	name string

	mix     string // workloads mix name; empty for the sweep
	variant string // config.VariantByName name; the sweep uses sweepVariants

	warmup, measure uint64 // per-core instruction budgets at scale 1

	verify    bool    // program-and-verify write path
	endurance uint64  // system.WithFaultModel endurance budget (0 = off)
	drift     float64 // system.WithFaultModel drift probability
}

// sweepVariants are the variants sweep-eval runs each evaluation
// workload under.
var sweepVariants = []string{"Baseline", "RWoW-RDE"}

// benchWorkloads are the workloads in the order a full run measures
// them. BENCHMARK.json and README.md record why each was chosen.
var benchWorkloads = []workload{
	{name: "mt-memory", mix: "canneal", variant: "RWoW-RDE", warmup: 40_000, measure: 1_500_000},
	{name: "mp-compute", mix: "gromacs", variant: "RWoW-RDE", warmup: 40_000, measure: 4_000_000},
	{name: "write-verify", mix: "MP4", variant: "RWoW-DCA", warmup: 40_000, measure: 1_200_000,
		verify: true, endurance: 1, drift: 5e-3},
	{name: "sweep-eval", warmup: 20_000, measure: 150_000},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range benchWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) sweep() bool { return w.mix == "" }

// budgets returns the per-core warmup and measure budgets at scale.
func (w workload) budgets(scale float64) (warmup, measure uint64) {
	f := func(n uint64) uint64 { return max(1000, uint64(float64(n)*scale)) }
	return f(w.warmup), f(w.measure)
}

// sims is how many simulations one repetition runs.
func (w workload) sims() int {
	if w.sweep() {
		return len(workloads.EvaluationSet()) * len(sweepVariants)
	}
	return 1
}

// firstMix is the mix of the workload's first simulation: the set-up
// probe builds it and its generators feed the layer drivers.
func (w workload) firstMix() string {
	if w.sweep() {
		return workloads.EvaluationSet()[0]
	}
	return w.mix
}

// config resolves the machine configuration of the workload's first
// simulation.
func (w workload) config(seed uint64) (*config.Config, error) {
	name := w.variant
	if w.sweep() {
		name = sweepVariants[0]
	}
	v, ok := config.VariantByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown variant %q", name)
	}
	cfg := config.Default().WithVariant(v)
	cfg.Seed = seed
	cfg.Memory.VerifyWrites = w.verify
	return cfg, nil
}

// options are the system.New options of the workload's first
// simulation.
func (w workload) options(seed uint64) ([]system.Option, error) {
	cfg, err := w.config(seed)
	if err != nil {
		return nil, err
	}
	opts := []system.Option{system.WithConfig(cfg), system.WithWorkload(w.firstMix())}
	if w.endurance > 0 || w.drift > 0 {
		opts = append(opts, system.WithFaultModel(w.endurance, w.drift))
	}
	return opts, nil
}

// sweepSpecs lists the sweep's simulations in the order its digest
// covers them.
func sweepSpecs(seed uint64) ([]exp.Spec, error) {
	var specs []exp.Spec
	for _, name := range sweepVariants {
		v, ok := config.VariantByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown variant %q", name)
		}
		for _, mix := range workloads.EvaluationSet() {
			specs = append(specs, exp.Spec{Workload: mix, Variant: v, Seed: seed})
		}
	}
	return specs, nil
}

// sweepWorkers is the runner parallelism of sweep-eval: two workers,
// fewer on a one-CPU host, so the load never exceeds nproc threads.
func sweepWorkers() int { return min(2, runtime.NumCPU()) }

// repResult is what one repetition (one child process) reports. Times
// are host seconds.
type repResult struct {
	Digest string  `json:"digest"`
	Sims   int     `json:"sims"`
	Instr  float64 `json:"instr"` // simulated instructions, all cores, warmup and measure
	Events uint64  `json:"events"`

	SetupS   float64 `json:"setup_s"`    // system.New
	SimS     float64 `json:"sim_s"`      // New+Run, or RunAll
	RunS     float64 `json:"run_s"`      // host time that stepped Events
	WallS    float64 `json:"wall_s"`     // the whole timed section
	SimWallS float64 `json:"sim_wall_s"` // summed per-simulation wall
	Workers  int     `json:"workers"`

	CacheEntries int `json:"cache_entries"`

	AllocBytes uint64 `json:"alloc_bytes"`
	Mallocs    uint64 `json:"mallocs"`
	GCCycles   uint32 `json:"gc_cycles"`
	GCPauseNS  uint64 `json:"gc_pause_ns"`

	// Work holds the exact simulated work counts (metric name → value).
	Work map[string]float64 `json:"work"`
	// Profile holds the traced repetition's per-bucket CPU samples and
	// allocated bytes; nil when untraced.
	Profile *layerProfile `json:"profile,omitempty"`

	MaxRSSBytes uint64  `json:"-"` // filled in by the parent from rusage
	Speed       float64 `json:"-"` // host speed around the repetition, filled in by the parent
}

// heapDelta records the runtime's allocation counters over the timed
// section.
type heapDelta struct{ before, after runtime.MemStats }

func (h *heapDelta) fill(r *repResult) {
	r.AllocBytes = h.after.TotalAlloc - h.before.TotalAlloc
	r.Mallocs = h.after.Mallocs - h.before.Mallocs
	r.GCCycles = h.after.NumGC - h.before.NumGC
	r.GCPauseNS = h.after.PauseTotalNs - h.before.PauseTotalNs
}

// runRep runs one repetition of w in this process.
func runRep(w workload, seed uint64, scale float64) (repResult, error) {
	if w.sweep() {
		return runSweep(w, seed, scale)
	}
	return runSingle(w, seed, scale)
}

func runSingle(w workload, seed uint64, scale float64) (repResult, error) {
	r := repResult{Sims: 1, Workers: 1}
	opts, err := w.options(seed)
	if err != nil {
		return r, err
	}
	warmup, measure := w.budgets(scale)
	var (
		res        *system.Results
		heap       heapDelta
		newT, runT time.Duration
	)
	wall := timed(func(lap func() time.Duration) {
		runtime.ReadMemStats(&heap.before)
		var sys *system.System
		sys, err = system.New(opts...)
		newT = lap()
		if err != nil {
			return
		}
		res, err = sys.Run(warmup, measure)
		runT = lap() - newT
		sys.Release()
		if err == nil {
			_, err = system.EncodeResults(res)
		}
		runtime.ReadMemStats(&heap.after)
	})
	if err != nil {
		return r, err
	}
	heap.fill(&r)
	r.SetupS, r.RunS, r.WallS = newT.Seconds(), runT.Seconds(), wall.Seconds()
	r.SimS = r.SetupS + r.RunS
	r.SimWallS = r.SimS
	r.Instr = instructions(res, warmup)
	r.Events = res.Events
	r.Work = workCounts([]*system.Results{res}, []float64{r.Instr}, r.Events)
	r.Digest, err = digest(res)
	return r, err
}

func runSweep(w workload, seed uint64, scale float64) (repResult, error) {
	r := repResult{Sims: w.sims(), Workers: sweepWorkers()}
	specs, err := sweepSpecs(seed)
	if err != nil {
		return r, err
	}
	opts, err := w.options(seed)
	if err != nil {
		return r, err
	}
	dir, err := os.MkdirTemp("", "pcmapbench-sweep-")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)

	// Set-up probe: the sweep's first system, built cold and released
	// before the sweep starts, as the sweep's own first simulation is.
	setup := timed(func(func() time.Duration) {
		var sys *system.System
		if sys, err = system.New(opts...); err == nil {
			sys.Release()
		}
	})
	if err != nil {
		return r, err
	}

	warmup, measure := w.budgets(scale)
	runner := exp.NewRunner()
	runner.Warmup, runner.Measure = warmup, measure
	runner.Parallelism = r.Workers
	var (
		heap  heapDelta
		cache *exp.DiskCache
		sweep time.Duration
	)
	wall := timed(func(lap func() time.Duration) {
		runtime.ReadMemStats(&heap.before)
		if cache, err = exp.NewDiskCache(dir); err != nil {
			return
		}
		runner.Cache = cache
		start := lap()
		err = runner.RunAll(context.Background(), specs)
		sweep = lap() - start
		runtime.ReadMemStats(&heap.after)
	})
	if err != nil {
		return r, err
	}
	heap.fill(&r)
	r.SetupS, r.SimS, r.WallS = setup.Seconds(), sweep.Seconds(), wall.Seconds()
	sims, events, simsWall := runner.Totals()
	if int(sims) != r.Sims {
		return r, fmt.Errorf("runner executed %d simulations, want %d", sims, r.Sims)
	}
	r.RunS, r.SimWallS, r.Events = simsWall.Seconds(), simsWall.Seconds(), events
	if r.CacheEntries, err = cache.Len(); err != nil {
		return r, err
	}
	if r.CacheEntries != r.Sims {
		return r, fmt.Errorf("disk cache holds %d entries, want %d", r.CacheEntries, r.Sims)
	}

	results := make([]*system.Results, len(specs))
	instr := make([]float64, len(specs))
	h := sha256.New()
	for i, s := range specs {
		res, err := runner.Run(s) // memoized by RunAll
		if err != nil {
			return r, err
		}
		results[i], instr[i] = res, instructions(res, warmup)
		r.Instr += instr[i]
		d, err := digest(res)
		if err != nil {
			return r, err
		}
		h.Write([]byte(d))
	}
	r.Work = workCounts(results, instr, r.Events)
	r.Digest = hex.EncodeToString(h.Sum(nil))
	return r, nil
}

// instructions counts a run's simulated instructions over both phases:
// every core retires warmup instructions before the measured window.
func instructions(res *system.Results, warmup uint64) float64 {
	return float64(uint64(len(res.IPCPerCore))*warmup + res.Instructions)
}

// digestView is the part of Results the correctness digest covers. It
// leaves out Events, so a host optimization that removes engine events
// does not change the digest, and the mem.Metrics internals, whose
// layout is not part of the public result.
type digestView struct {
	Workload       string
	Variant        string
	IPCPerCore     []float64
	IPCSum         float64
	Instructions   uint64
	IRLPAvg        float64
	IRLPMax        int
	WearCV         float64
	RPKI, WPKI     float64
	Rollbacks      uint64
	RoWVerifies    uint64
	MaxRollbackPct float64
	L2MissRatio    float64
	LLCMissRatio   float64
	InjectedStuck  uint64
	InjectedDrift  uint64
	Energy         string
}

// digest is the SHA-256 of the run's digestView.
func digest(res *system.Results) (string, error) {
	b, err := json.Marshal(digestView{
		Workload: res.Workload, Variant: res.Variant.String(),
		IPCPerCore: res.IPCPerCore, IPCSum: res.IPCSum, Instructions: res.Instructions,
		IRLPAvg: res.IRLPAvg, IRLPMax: res.IRLPMax, WearCV: res.WearCV,
		RPKI: res.RPKI, WPKI: res.WPKI,
		Rollbacks: res.Rollbacks, RoWVerifies: res.RoWVerifies, MaxRollbackPct: res.MaxRollbackPct,
		L2MissRatio: res.L2MissRatio, LLCMissRatio: res.LLCMissRatio,
		InjectedStuck: res.InjectedStuck, InjectedDrift: res.InjectedDrift,
		Energy: res.Energy,
	})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// workCounts folds the runs' top-level Results into the exact work
// metrics. Counts are summed; ratios are weighted by each run's
// instructions.
func workCounts(results []*system.Results, instr []float64, events uint64) map[string]float64 {
	var total, rpki, wpki, irlp, l2, llc, faults, rollbacks float64
	for i, res := range results {
		wt := instr[i]
		total += wt
		rpki += wt * res.RPKI
		wpki += wt * res.WPKI
		irlp += wt * res.IRLPAvg
		l2 += wt * res.L2MissRatio
		llc += wt * res.LLCMissRatio
		faults += float64(res.InjectedStuck + res.InjectedDrift)
		rollbacks += float64(res.Rollbacks)
	}
	return map[string]float64{
		"sim.events_per_kinstr": float64(events) / (total / 1000),
		"core.rpki":             rpki / total,
		"core.wpki":             wpki / total,
		"core.irlp_avg":         irlp / total,
		"cache.l2_miss_ratio":   l2 / total,
		"cache.llc_miss_ratio":  llc / total,
		"pcm.faults_injected":   faults,
		"cpu.rollbacks":         rollbacks,
	}
}
