// The benchmark ledger's suite (BENCH_3.json, checked by
// `scripts/bench.sh -check`): micro-benchmarks of the hot substrates,
// two end-to-end controller benches, and one reduced-budget figure run.
// The paper's evaluation itself is defined once, in internal/exp, and
// regenerated by cmd/pcmapsim.
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

// BenchmarkFig1 runs Figure 1's two simulations for one SPEC program
// per iteration (asymmetric and symmetric PCM): the ledger's end-to-end
// bench, so its allocs/op and B/op gate the whole simulator. The
// figure's values come from `pcmapsim -exp fig1`.
//
// The first iteration in a process also fills the process-wide table
// pools (about 34 MB). It runs before the timer starts, so B/op is the
// steady state at every b.N: otherwise a slow host whose first
// iteration passes the benchtime reports that fill as the per-op cost.
func BenchmarkFig1(b *testing.B) {
	fig1 := func() {
		r := benchRunner()
		if _, err := r.Run(exp.Spec{Workload: "cactusADM", Variant: config.Baseline}); err != nil {
			b.Fatal(err)
		}
		if _, err := r.Run(exp.Spec{Workload: "cactusADM", Variant: config.Baseline, Symmetric: true}); err != nil {
			b.Fatal(err)
		}
	}
	fig1()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig1()
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
