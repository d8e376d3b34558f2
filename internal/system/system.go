// Package system assembles the full simulated machine of Table I —
// cores, cache hierarchy, NoC, directory, and PCM main memory — and
// runs workload mixes on it with a warmup/measure protocol.
package system

import (
	"context"
	"fmt"

	"pcmap/internal/cache"
	"pcmap/internal/config"
	"pcmap/internal/core"
	"pcmap/internal/cpu"
	"pcmap/internal/energy"
	"pcmap/internal/mem"
	"pcmap/internal/obs"
	"pcmap/internal/sim"
	"pcmap/internal/workloads"
)

// System is one fully assembled machine.
type System struct {
	Eng   *sim.Engine
	Cfg   *config.Config
	Mem   *core.Memory
	Hier  *cache.Hierarchy
	Cores []*cpu.Core
	Mix   workloads.Mix

	// feeds carry each core's op stream; RunCtx attaches a producer
	// goroutine to them for the length of the run.
	feeds []*workloads.Feed

	// Tracer is the attached timeline tracer, nil when tracing is off.
	Tracer *obs.Tracer
}

// assemble builds the machine proper: engine, memory, hierarchy, cores,
// generators, prewarm. Instrumentation is layered on afterwards by New.
func assemble(cfg *config.Config, mix workloads.Mix) (*System, error) {
	eng := sim.NewEngine()
	memory, err := core.NewMemory(eng, cfg)
	if err != nil {
		return nil, err
	}
	hier := cache.NewHierarchy(eng, cfg, memory)
	s := &System{Eng: eng, Cfg: cfg, Mem: memory, Hier: hier, Mix: mix}

	var shared *workloads.SharedRegion
	if mix.Multithreaded {
		shared = workloads.NewSharedRegion()
	}
	rng := sim.NewRNG(cfg.Seed ^ 0x5eedbeef00c0ffee)
	var gens []*workloads.Generator
	for i, pname := range mix.PerCore {
		p := workloads.MustByName(pname)
		gen := workloads.NewGenerator(p, i, rng.Fork(), shared)
		gens = append(gens, gen)
		feed := workloads.NewFeed(gen)
		s.feeds = append(s.feeds, feed)
		s.Cores = append(s.Cores, cpu.NewCore(eng, cfg, i, hier, feed, rng.Fork()))
	}
	prewarm(hier, gens, shared)
	return s, nil
}

// prewarm functionally installs the workloads' cache-resident reuse
// pools (DESIGN.md: stands in for the paper's 200M-instruction warmup).
func prewarm(hier *cache.Hierarchy, gens []*workloads.Generator, shared *workloads.SharedRegion) {
	for _, g := range gens {
		base, lines := g.LLCPoolRange()
		for i := 0; i < lines; i++ {
			hier.PrewarmLLC(base + uint64(i)*64)
		}
		base, lines = g.L2PoolRange()
		for i := 0; i < lines; i++ {
			hier.PrewarmL2(base + uint64(i)*64)
		}
	}
	if shared != nil {
		for i := uint64(0); i < shared.Lines; i++ {
			hier.PrewarmLLC(shared.Base + i*64)
		}
	}
}

// Results carries everything the experiment harness reports for one run.
type Results struct {
	Workload string
	Variant  config.Variant

	IPCPerCore []float64
	IPCSum     float64

	Mem     *mem.Metrics
	IRLPAvg float64
	IRLPMax int
	WearCV  float64

	Instructions uint64
	RPKI, WPKI   float64

	// Events is the number of engine events executed by this run
	// (warmup and measurement), the denominator of the harness's
	// events/sec throughput reporting.
	Events uint64

	Rollbacks, RoWVerifies uint64
	MaxRollbackPct         float64 // rollbacks / RoW reads (Table IV's "% of max rollbacks")

	L2MissRatio, LLCMissRatio float64

	// InjectedStuck and InjectedDrift count the fault model's injected
	// errors over the whole run (injection state is cumulative, unlike
	// the windowed metrics); zero when fault injection is off.
	InjectedStuck, InjectedDrift uint64

	// Energy is the measured-phase PCM energy breakdown (rendered).
	Energy string
}

// Release returns the system's pooled resources — the cache levels'
// slab-backed state arrays and the op feeds' batches — for reuse by the
// next System. Call it once after the final Run; the system must not be
// used afterwards. Sweeps that build many systems sequentially (the
// figure experiments, benchmarks) recycle tens of MB per run this way.
func (s *System) Release() {
	if s.Hier != nil {
		s.Hier.Release()
		s.Hier = nil
	}
	for _, f := range s.feeds {
		f.Release()
	}
	s.feeds = nil
}

// Run executes warmup instructions per core, resets statistics, then
// runs measure instructions per core and collects results. It returns
// an error if the simulation wedges (requests or cores stuck).
func (s *System) Run(warmup, measure uint64) (*Results, error) {
	return s.RunCtx(context.Background(), warmup, measure)
}

// cancelCheckInterval is how many engine events execute between
// context-cancellation checks in RunCtx. Checking is off the hot path
// (one ctx.Err() per interval), and an interval this small still bounds
// the latency of honoring a deadline to well under a millisecond of
// wall time at the engine's measured event rates.
const cancelCheckInterval = 8192

// RunCtx is Run with cooperative cancellation: when ctx carries a
// deadline or is cancelled, the simulation stops between events (every
// cancelCheckInterval steps) and returns ctx's error. A background
// context takes the exact same single-call engine path as Run, so
// uncancelled runs stay bit-identical. A cancelled run returns no
// Results — partial simulation state is not a meaningful measurement.
//
// For the length of the call a producer goroutine generates the cores'
// op streams ahead of them (see workloads.Feed); it is stopped and
// joined before RunCtx returns, whatever the outcome. The streams do
// not depend on the host schedule, so neither do the Results.
func (s *System) RunCtx(ctx context.Context, warmup, measure uint64) (*Results, error) {
	prod := workloads.Produce(s.feeds...)
	defer prod.Stop()
	steps0 := s.Eng.Steps()
	if err := s.runPhase(ctx, warmup); err != nil {
		return nil, fmt.Errorf("system: warmup: %w", err)
	}
	s.Mem.ResetMetrics()
	var instr0 uint64
	for _, c := range s.Cores {
		c.ResetWindow()
		instr0 += c.Instructions()
	}
	roll0, ver0 := s.rollbackCounts()
	if err := s.continuePhase(ctx, measure); err != nil {
		return nil, fmt.Errorf("system: measure: %w", err)
	}

	r := &Results{Workload: s.Mix.Name, Variant: s.Cfg.Variant}
	for _, c := range s.Cores {
		ipc := c.IPC()
		r.IPCPerCore = append(r.IPCPerCore, ipc)
		r.IPCSum += ipc
		r.Instructions += c.Instructions()
	}
	r.Instructions -= instr0
	r.Mem = s.Mem.Metrics()
	r.IRLPAvg, r.IRLPMax = s.Mem.IRLP()
	r.WearCV = s.Mem.WearImbalance()
	if r.Instructions > 0 {
		ki := float64(r.Instructions) / 1000
		r.RPKI = float64(r.Mem.Reads.Value()) / ki
		r.WPKI = float64(r.Mem.Writes.Value()) / ki
	}
	roll1, ver1 := s.rollbackCounts()
	r.Rollbacks = roll1 - roll0
	r.RoWVerifies = ver1 - ver0
	if r.RoWVerifies > 0 {
		r.MaxRollbackPct = float64(r.Rollbacks) / float64(r.RoWVerifies)
	}
	r.L2MissRatio = s.Hier.L2.MissRatio()
	r.LLCMissRatio = s.Hier.LLC.MissRatio()
	r.InjectedStuck, r.InjectedDrift = s.Mem.FaultCounts()
	r.Events = s.Eng.Steps() - steps0
	r.Energy = s.Mem.Energy(energy.Default()).String()
	return r, nil
}

func (s *System) rollbackCounts() (rollbacks, verifies uint64) {
	for _, c := range s.Cores {
		rollbacks += c.Rollbacks
		verifies += c.VerifiesSeen
	}
	return
}

func (s *System) runPhase(ctx context.Context, budget uint64) error {
	remaining := len(s.Cores)
	for _, c := range s.Cores {
		c.Start(budget, func() { remaining-- })
	}
	if err := s.runEngine(ctx); err != nil {
		return err
	}
	if remaining != 0 {
		return fmt.Errorf("%d cores wedged (deadlock?)", remaining)
	}
	return nil
}

func (s *System) continuePhase(ctx context.Context, extra uint64) error {
	remaining := len(s.Cores)
	for _, c := range s.Cores {
		c.Continue(extra, func() { remaining-- })
	}
	if err := s.runEngine(ctx); err != nil {
		return err
	}
	if remaining != 0 {
		return fmt.Errorf("%d cores wedged (deadlock?)", remaining)
	}
	return nil
}

// runEngine drives the engine until no events remain, honoring ctx. A
// context that can never be cancelled (Done() == nil, e.g.
// context.Background) takes the plain Run path so the uncancellable
// case pays nothing and behaves exactly as before.
func (s *System) runEngine(ctx context.Context) error {
	if ctx == nil || ctx.Done() == nil {
		s.Eng.Run()
		return nil
	}
	for {
		for i := 0; i < cancelCheckInterval; i++ {
			if !s.Eng.Step() {
				return nil
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
}
