// Benchmarks that regenerate the paper's evaluation (one per figure
// and table, Section VI) plus ablations of PCMap's design choices and
// micro-benchmarks of the hot substrates. Figure benches run reduced
// instruction budgets per iteration so `go test -bench=.` stays
// tractable; cmd/pcmapsim runs the full-budget versions.
package pcmap_test

import (
	"testing"

	"pcmap/internal/cache"
	"pcmap/internal/coherence"
	"pcmap/internal/config"
	"pcmap/internal/ecc"
	"pcmap/internal/exp"
	"pcmap/internal/mem"
	"pcmap/internal/obs"
	"pcmap/internal/pcm"
	"pcmap/internal/sim"
	"pcmap/internal/stats"
	"pcmap/internal/system"
	"pcmap/internal/workloads"

	pcmcore "pcmap/internal/core"
)

// benchRunner builds a reduced-budget experiment runner.
func benchRunner() *exp.Runner {
	r := exp.NewRunner()
	r.Warmup, r.Measure = 5_000, 40_000
	r.Parallelism = 1 // deterministic wall-clock per iteration
	return r
}

// runSystem executes one workload/variant pair at bench budgets.
func runSystem(b *testing.B, workload string, v config.Variant) *system.Results {
	b.Helper()
	s, err := system.New(system.WithConfig(config.Default().WithVariant(v)), system.WithWorkload(workload))
	if err != nil {
		b.Fatal(err)
	}
	res, err := s.Run(5_000, 40_000)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFig1 regenerates Figure 1's two series for one SPEC program
// per iteration (reads delayed by writes; latency vs symmetric PCM).
func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		asym, err := r.Run(exp.Spec{Workload: "cactusADM", Variant: config.Baseline})
		if err != nil {
			b.Fatal(err)
		}
		symm, err := r.Run(exp.Spec{Workload: "cactusADM", Variant: config.Baseline, Symmetric: true})
		if err != nil {
			b.Fatal(err)
		}
		delayed := float64(asym.Mem.ReadsDelayedByWrite.Value()) / float64(asym.Mem.Reads.Value()+1)
		b.ReportMetric(100*delayed, "%reads-delayed")
		b.ReportMetric(asym.Mem.ReadLatency.MeanNS()/symm.Mem.ReadLatency.MeanNS(), "latency-vs-symmetric")
	}
}

// BenchmarkFig2 regenerates Figure 2's dirty-word distribution for the
// paper's two anchor programs.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cactus := runSystem(b, "cactusADM", config.Baseline)
		omnet := runSystem(b, "omnetpp", config.Baseline)
		b.ReportMetric(100*cactus.Mem.DirtyWords.Fraction(1), "%cactus-1word")
		b.ReportMetric(100*omnet.Mem.DirtyWords.Fraction(1), "%omnetpp-1word")
	}
}

// BenchmarkFig8 regenerates Figure 8's IRLP comparison (baseline vs
// full PCMap) on the most intense Table II workload.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := runSystem(b, "canneal", config.Baseline)
		full := runSystem(b, "canneal", config.RWoWRDE)
		b.ReportMetric(base.IRLPAvg, "IRLP-baseline")
		b.ReportMetric(full.IRLPAvg, "IRLP-pcmap")
	}
}

// BenchmarkFig9 regenerates Figure 9's write-throughput improvement on
// the write-bound MP4 mix.
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := runSystem(b, "MP4", config.Baseline)
		full := runSystem(b, "MP4", config.RWoWRDE)
		b.ReportMetric(full.Mem.WriteThroughput()/base.Mem.WriteThroughput(), "write-throughput-x")
	}
}

// BenchmarkFig10 regenerates Figure 10's effective read latency
// normalization.
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := runSystem(b, "MP6", config.Baseline)
		full := runSystem(b, "MP6", config.RWoWRDE)
		b.ReportMetric(full.Mem.ReadLatency.MeanNS()/base.Mem.ReadLatency.MeanNS(), "read-latency-norm")
	}
}

// BenchmarkFig11 regenerates Figure 11's IPC improvement for one MT
// and one MP workload.
func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, w := range []string{"canneal", "MP1"} {
			base := runSystem(b, w, config.Baseline)
			full := runSystem(b, w, config.RWoWRDE)
			b.ReportMetric(100*(full.IPCSum/base.IPCSum-1), "%ipc-"+w)
		}
	}
}

// BenchmarkTable2 checks the RPKI/WPKI calibration against Table II.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runSystem(b, "MP4", config.Baseline)
		b.ReportMetric(res.RPKI, "RPKI(target-8.05)")
		b.ReportMetric(res.WPKI, "WPKI(target-5.65)")
	}
}

// BenchmarkTable3 regenerates one cell of the Table III sensitivity
// sweep (write-to-read ratio 8x).
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		base, err := r.Run(exp.Spec{Workload: "MP6", Variant: config.Baseline, WriteToReadRatio: 8})
		if err != nil {
			b.Fatal(err)
		}
		full, err := r.Run(exp.Spec{Workload: "MP6", Variant: config.RWoWRDE, WriteToReadRatio: 8})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*(full.IPCSum/base.IPCSum-1), "%ipc-at-8x")
	}
}

// BenchmarkTable4 regenerates the rollback-cost comparison on canneal.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		faulty, err := r.Run(exp.Spec{Workload: "canneal", Variant: config.RWoWRDE, FaultMode: "always"})
		if err != nil {
			b.Fatal(err)
		}
		clean, err := r.Run(exp.Spec{Workload: "canneal", Variant: config.RWoWRDE, FaultMode: "never"})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*faulty.MaxRollbackPct, "%rollbacks")
		b.ReportMetric(100*(clean.IPCSum/faulty.IPCSum-1), "%rollback-cost")
	}
}

// --- Ablations of the design choices DESIGN.md calls out ---

// BenchmarkAblationRotation isolates the two rotation schemes at fixed
// RoW+WoW: the Section IV-C2 contribution.
func BenchmarkAblationRotation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		nr := runSystem(b, "MP4", config.RWoWNR)
		rd := runSystem(b, "MP4", config.RWoWRD)
		rde := runSystem(b, "MP4", config.RWoWRDE)
		b.ReportMetric(nr.IRLPAvg, "IRLP-norotation")
		b.ReportMetric(rd.IRLPAvg, "IRLP-data-rotation")
		b.ReportMetric(rde.IRLPAvg, "IRLP-full-rotation")
		b.ReportMetric(rde.WearCV, "wearCV-full-rotation")
	}
}

// BenchmarkAblationRoWMultiWord measures the Section IV-B4 extension:
// splitting multi-word writes into serial single-word RoW steps.
func BenchmarkAblationRoWMultiWord(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, multi := range []bool{false, true} {
			cfg := config.Default().WithVariant(config.RWoWRDE)
			cfg.Memory.RoWMultiWord = multi
			s, err := system.New(system.WithConfig(cfg), system.WithWorkload("canneal"))
			if err != nil {
				b.Fatal(err)
			}
			res, err := s.Run(5_000, 40_000)
			if err != nil {
				b.Fatal(err)
			}
			name := "ipc-1word-row"
			if multi {
				name = "ipc-multiword-row"
			}
			b.ReportMetric(res.IPCSum, name)
		}
	}
}

// BenchmarkAblationDrainThreshold sweeps the write-drain high-water
// mark (the alpha of Section II-B).
func BenchmarkAblationDrainThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, alpha := range []float64{0.6, 0.8, 0.95} {
			cfg := config.Default().WithVariant(config.RWoWRDE)
			cfg.Memory.DrainHighPct = alpha
			s, err := system.New(system.WithConfig(cfg), system.WithWorkload("MP6"))
			if err != nil {
				b.Fatal(err)
			}
			res, err := s.Run(5_000, 40_000)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.IPCSum, ipcName(alpha))
		}
	}
}

func ipcName(alpha float64) string {
	switch alpha {
	case 0.6:
		return "ipc-alpha60"
	case 0.8:
		return "ipc-alpha80"
	default:
		return "ipc-alpha95"
	}
}

// BenchmarkAblationStatusPoll measures the DIMM-register polling cost.
func BenchmarkAblationStatusPoll(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, cycles := range []mem.Cycles{0, 2, 8} {
			cfg := config.Default().WithVariant(config.RWoWRDE)
			cfg.Memory.StatusPollCycles = cycles
			s, err := system.New(system.WithConfig(cfg), system.WithWorkload("MP1"))
			if err != nil {
				b.Fatal(err)
			}
			res, err := s.Run(5_000, 40_000)
			if err != nil {
				b.Fatal(err)
			}
			switch cycles {
			case 0:
				b.ReportMetric(res.IPCSum, "ipc-poll0")
			case 2:
				b.ReportMetric(res.IPCSum, "ipc-poll2")
			default:
				b.ReportMetric(res.IPCSum, "ipc-poll8")
			}
		}
	}
}

// BenchmarkAblationConcurrentWrites sweeps the WoW scheduler's
// outstanding-write bound.
func BenchmarkAblationConcurrentWrites(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, n := range []int{1, 2, 4} {
			cfg := config.Default().WithVariant(config.RWoWRDE)
			cfg.Memory.MaxConcurrentWrites = n
			s, err := system.New(system.WithConfig(cfg), system.WithWorkload("MP4"))
			if err != nil {
				b.Fatal(err)
			}
			res, err := s.Run(5_000, 40_000)
			if err != nil {
				b.Fatal(err)
			}
			switch n {
			case 1:
				b.ReportMetric(res.Mem.WriteThroughput(), "wthr-max1")
			case 2:
				b.ReportMetric(res.Mem.WriteThroughput(), "wthr-max2")
			default:
				b.ReportMetric(res.Mem.WriteThroughput(), "wthr-max4")
			}
		}
	}
}

// --- Micro-benchmarks of the substrates ---

// BenchmarkSECDEDEncode measures the Hamming(72,64) encoder.
func BenchmarkSECDEDEncode(b *testing.B) {
	rng := sim.NewRNG(1)
	words := make([]uint64, 1024)
	for i := range words {
		words[i] = rng.Uint64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint8
	for i := 0; i < b.N; i++ {
		sink ^= ecc.Encode64(words[i&1023])
	}
	_ = sink
}

// BenchmarkSECDEDCorrect measures single-bit correction.
func BenchmarkSECDEDCorrect(b *testing.B) {
	data := uint64(0x0123456789abcdef)
	check := ecc.Encode64(data)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		corrupt := data ^ (1 << uint(i&63))
		if got, _ := ecc.Check64(corrupt, check); got != data {
			b.Fatal("correction failed")
		}
	}
}

// BenchmarkSECDEDDecodeClean measures the fault-free decode path — the
// common case on every memory read when fault injection is off.
func BenchmarkSECDEDDecodeClean(b *testing.B) {
	rng := sim.NewRNG(2)
	words := make([]uint64, 1024)
	checks := make([]uint8, 1024)
	for i := range words {
		words[i] = rng.Uint64()
		checks[i] = ecc.Encode64(words[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, st := ecc.Check64(words[i&1023], checks[i&1023]); st != ecc.OK {
			b.Fatal("clean word flagged")
		}
	}
}

// BenchmarkPCCReconstruct measures the RoW XOR reconstruction path.
func BenchmarkPCCReconstruct(b *testing.B) {
	var line [64]byte
	rng := sim.NewRNG(3)
	for i := range line {
		line[i] = byte(rng.Uint64())
	}
	pcc := ecc.PCCLine(&line)
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= ecc.ReconstructWord(&line, i&7, pcc)
	}
	_ = sink
}

// BenchmarkPCCUpdate measures the incremental parity update issued on
// every single-word write.
func BenchmarkPCCUpdate(b *testing.B) {
	rng := sim.NewRNG(4)
	var pcc [8]byte
	for i := range pcc {
		pcc[i] = byte(rng.Uint64())
	}
	oldWord, newWord := rng.Uint64(), rng.Uint64()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pcc = ecc.UpdatePCC(pcc, oldWord, newWord)
	}
	_ = pcc
}

// BenchmarkEngine measures raw event throughput of the simulator core.
func BenchmarkEngine(b *testing.B) {
	eng := sim.NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			eng.Schedule(sim.MemCycle, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.Schedule(0, tick)
	eng.Run()
}

// BenchmarkEngineTimer measures the pre-bound recurring-callback path
// every per-cycle component loop uses; steady state must not allocate.
func BenchmarkEngineTimer(b *testing.B) {
	eng := sim.NewEngine()
	n := 0
	var tm *sim.Timer
	tm = eng.NewTimer(func() {
		n++
		if n < b.N {
			tm.Schedule(sim.MemCycle)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	tm.Schedule(0)
	eng.Run()
}

// BenchmarkEngineTraceDisabled measures the event hot loop with the
// observability layer present but disabled: a nil tracer's emission
// methods and an engine without a step hook. The ledger pins this at
// 0 allocs/op — the disabled-tracer contract (tracing off must cost
// one predictable branch per call site, never an allocation).
func BenchmarkEngineTraceDisabled(b *testing.B) {
	eng := sim.NewEngine()
	var tr *obs.Tracer // disabled: every method is a nil-receiver no-op
	n := 0
	var tick func()
	tick = func() {
		n++
		tr.Span(0, 0, eng.Now(), sim.MemCycle)
		tr.Instant(0, 0, eng.Now())
		tr.Count(0, 0, eng.Now(), int64(n))
		if n < b.N {
			eng.Schedule(sim.MemCycle, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.Schedule(0, tick)
	eng.Run()
}

// BenchmarkRNGUint64 measures the SplitMix64 core every stochastic
// decision in the workload generators draws from.
func BenchmarkRNGUint64(b *testing.B) {
	rng := sim.NewRNG(6)
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= rng.Uint64()
	}
	_ = sink
}

// BenchmarkRNGExp measures exponential inter-arrival sampling.
func BenchmarkRNGExp(b *testing.B) {
	rng := sim.NewRNG(7)
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += rng.Exp(100)
	}
	_ = sink
}

// BenchmarkRNGPick measures weighted choice over a Table II-sized
// category distribution.
func BenchmarkRNGPick(b *testing.B) {
	rng := sim.NewRNG(8)
	weights := []float64{0.35, 0.25, 0.15, 0.10, 0.08, 0.05, 0.02}
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += rng.Pick(weights)
	}
	_ = sink
}

// BenchmarkCacheLoadHit measures the L1-hit load path — the single
// most frequent operation in any simulation. The ledger pins it at 0
// allocs/op: hits touch only the SoA state arrays, never the fetch or
// request pools.
func BenchmarkCacheLoadHit(b *testing.B) {
	cfg := config.Default().WithVariant(config.RWoWRDE)
	eng := sim.NewEngine()
	m, err := pcmcore.NewMemory(eng, cfg)
	if err != nil {
		b.Fatal(err)
	}
	h := cache.NewHierarchy(eng, cfg, m)
	const addr = 0x880000
	h.Load(0, addr, false, 0)
	eng.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Load(0, addr, false, uint64(i+1))
	}
}

// BenchmarkStoreGetWarm measures pcm.Store access to lines already
// written — the steady state of every write-back after the footprint
// is touched. Pinned at 0 allocs/op: lines live by value in the store's
// flat table, which allocates only when it doubles.
func BenchmarkStoreGetWarm(b *testing.B) {
	s := pcm.NewStore()
	const lines = 1 << 12
	for i := uint64(0); i < lines; i++ {
		s.Get(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Get(uint64(i) & (lines - 1))
	}
}

// BenchmarkStoreWriteScattered measures warm pcm.Store.WriteWords on
// lines 64 apart, one per 4 KB region: how write-backs land on the
// store (about 1.05 written lines per 64-line region on canneal).
// Pinned at 0 allocs/op.
func BenchmarkStoreWriteScattered(b *testing.B) {
	rng := sim.NewRNG(5)
	s := pcm.NewStore()
	const lines = 1 << 12
	var data [256][ecc.LineBytes]byte
	for i := range data {
		for j := range data[i] {
			data[i][j] = byte(rng.Uint64())
		}
	}
	for i := uint64(0); i < lines; i++ {
		s.WriteWords(i*64, 0xff, &data[i&255])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.WriteWords((uint64(i)&(lines-1))*64, uint8(i)|1, &data[(i+1)&255])
	}
}

// BenchmarkAnalyzeLineWrite measures the DCA content-analysis kernel:
// the per-write SET/RESET bit census RWoW-DCA folds over a masked line
// with OnesCount64. It runs on the applyWrite hot path whenever the
// ContentAware feature is on, so the ledger pins it at 0 allocs/op.
func BenchmarkAnalyzeLineWrite(b *testing.B) {
	rng := sim.NewRNG(9)
	s := pcm.NewStore()
	const lines = 1 << 10
	var news [lines][ecc.LineBytes]byte
	for i := uint64(0); i < lines; i++ {
		line := s.Get(i)
		for j := range line.Data {
			line.Data[j] = byte(rng.Uint64())
		}
		for j := range news[i] {
			news[i][j] = byte(rng.Uint64())
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		idx := uint64(i) & (lines - 1)
		old := s.Peek(idx)
		f := pcm.AnalyzeLineWrite(&old.Data, &news[idx], uint8(i)|1)
		sink += f.Sets + f.Resets
	}
	_ = sink
}

// BenchmarkGeneratorNext measures steady-state op generation including
// the per-line write-pattern memo. Warm (footprint's patterns sampled)
// it must not allocate: the memo map is clear()ed at its cap, never
// reallocated.
func BenchmarkGeneratorNext(b *testing.B) {
	p := workloads.MustByName("canneal")
	g := workloads.NewGenerator(p, 0, sim.NewRNG(17), nil)
	var op workloads.Op
	for i := 0; i < 200_000; i++ {
		g.Next(&op)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next(&op)
	}
}

// BenchmarkFeedNext measures a core's op feed as System.RunCtx runs
// it, with a producer goroutine filling batches ahead: the consuming
// side's per-op cost plus one channel hand-off per batch. Pinned at 0
// allocs/op: the feed and its producer pass the same batches back and
// forth.
func BenchmarkFeedNext(b *testing.B) {
	p := workloads.MustByName("canneal")
	f := workloads.NewFeed(workloads.NewGenerator(p, 0, sim.NewRNG(17), nil))
	var op workloads.Op
	for i := 0; i < 200_000; i++ {
		f.Next(&op)
	}
	prod := workloads.Produce(f)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Next(&op)
	}
	b.StopTimer()
	prod.Stop()
	f.Release()
}

// BenchmarkDirectory measures coherence directory lookups: a
// Load/Store/Evict mix over 128K lines, the L2's line count, with the
// table already grown to hold them. Pinned at 0 allocs/op: entries
// live by value in the table.
func BenchmarkDirectory(b *testing.B) {
	const lines = 128 << 10
	d := coherence.NewDirectory()
	for i := uint64(0); i < lines; i++ {
		d.Load(i*64, int(i%8))
	}
	rng := sim.NewRNG(11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(rng.Intn(lines)) * 64
		core := i & 7
		switch i & 3 {
		case 0, 1:
			d.Load(addr, core)
		case 2:
			d.Store(addr, core)
		default:
			d.Evict(addr, core)
		}
	}
}

// BenchmarkIRLPStream measures IRLP accounting as the controller
// drives it: one Advance per request, then a read's nine chip services
// or (every fourth request) a write window with two essential chips.
// Pinned at 0 allocs/op: the heap holds only in-flight edges, so it
// stops growing once warm.
func BenchmarkIRLPStream(b *testing.B) {
	x := stats.NewIRLP()
	read, prog := sim.Nanosecond.Times(60), sim.Nanosecond.Times(400)
	var now sim.Time
	step := func(i int) {
		now += sim.Nanosecond.Times(10)
		x.Advance(now, 8)
		if i&3 == 0 {
			t0 := now + sim.Nanosecond.Times(20)
			x.AddWriteWindow(t0, t0+prog)
			x.AddChipService(t0, t0+prog)
			x.AddChipService(t0, t0+prog/2)
			return
		}
		for c := 0; c < 9; c++ {
			x.AddChipService(now, now+read)
		}
	}
	for i := 0; i < 1024; i++ {
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
}

// BenchmarkControllerRequests measures end-to-end requests/second
// through a full PCMap controller (open loop, mixed traffic).
func BenchmarkControllerRequests(b *testing.B) {
	cfg := config.Default().WithVariant(config.RWoWRDE)
	eng := sim.NewEngine()
	m, err := pcmcore.NewMemory(eng, cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(rng.Intn(1<<20)) * 64
		var req *mem.Request
		if i%3 == 0 {
			req = &mem.Request{Kind: mem.Read, Addr: addr}
		} else {
			req = &mem.Request{Kind: mem.Write, Addr: addr, Mask: 1 << uint(i&7)}
		}
		for !m.Submit(req) {
			if !eng.Step() {
				b.Fatal("engine drained with full queues")
			}
		}
	}
	eng.Run()
}

// BenchmarkControllerVerify measures the program-and-verify write path
// (RWoW-DCA with VerifyWrites, no faults) through a full controller,
// with a fixed pool of requests recycled at their last event so the
// benchmark loop allocates nothing. One op is one read and two masked
// writes: at one request per op, a closure per verified write would
// average under one alloc/op and truncate to 0. After the warmup every
// read, write and verify read-back rides the controller's pooled
// records, and the ledger pins it at 0 allocs/op.
func BenchmarkControllerVerify(b *testing.B) {
	const inflight, lines = 64, 1024
	cfg := config.Default().WithVariant(config.RWoWDCA)
	cfg.Memory.VerifyWrites = true
	eng := sim.NewEngine()
	m, err := pcmcore.NewMemory(eng, cfg)
	if err != nil {
		b.Fatal(err)
	}
	free := make([]*mem.Request, 0, inflight)
	recycle := func(r *mem.Request) {
		r.Data, r.Err = nil, nil
		r.Arrive, r.Issue, r.Done = 0, 0, 0
		r.Started, r.Reconstructed, r.DelayedByWrite = false, false, false
		free = append(free, r)
	}
	for i := 0; i < inflight; i++ {
		r := &mem.Request{}
		r.OnDone = func(r *mem.Request) {
			if !r.Reconstructed {
				recycle(r)
			}
		}
		r.OnVerify = func(r *mem.Request, _ bool) { recycle(r) }
		free = append(free, r)
	}
	rng := sim.NewRNG(5)
	step := func(i int) {
		for len(free) == 0 {
			if !eng.Step() {
				b.Fatal("requests outstanding with no pending events")
			}
		}
		r := free[len(free)-1]
		free = free[:len(free)-1]
		r.Kind, r.Addr, r.Mask, r.Core = mem.Read, uint64(rng.Intn(lines))*64, 0, -1
		if i%3 != 0 {
			r.Kind, r.Mask = mem.Write, 1<<uint(i&7)
		}
		for !m.Submit(r) {
			if !eng.Step() {
				b.Fatal("queue full with no pending events")
			}
		}
		eng.Step()
	}
	for i := 0; i < 20*lines; i++ {
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 3; k++ {
			step(3*i + k)
		}
	}
}
