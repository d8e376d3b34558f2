package main

import (
	"fmt"
	"testing"

	"pcmap/internal/cache"
	"pcmap/internal/coherence"
	"pcmap/internal/config"
	"pcmap/internal/core"
	"pcmap/internal/ecc"
	"pcmap/internal/mem"
	"pcmap/internal/noc"
	"pcmap/internal/pcm"
	"pcmap/internal/sim"
	"pcmap/internal/stats"
	"pcmap/internal/system"
	"pcmap/internal/workloads"
)

// driverDef is one layer driver: a testing.B loop over one layer's
// public methods, fed from the workload's own generators. Its metric
// is the time per loop iteration in unit (div nanoseconds each); every
// driver also reports <layer>.allocs_per_call.
type driverDef struct {
	layer, metric, unit string
	div                 float64
	// setup builds the driver's state once; the returned body runs under
	// testing.Benchmark, which calls it with growing b.N.
	setup func(in *driverInput) (func(b *testing.B), error)
}

var drivers = []driverDef{
	{"workloads", "ns_per_op", "ns", 1, driveGenerator},
	{"coherence", "ns_per_op", "ns", 1, driveDirectory},
	{"noc", "ns_per_send", "ns", 1, driveMesh},
	{"cache", "ns_per_access", "ns", 1, driveHierarchy},
	{"core", "ns_per_request", "ns", 1, driveMemory},
	{"pcm", "ns_per_write", "ns", 1, driveStore},
	{"ecc", "ns_per_word", "ns", 1, driveSECDED},
	{"stats", "ns_per_window", "ns", 1, driveIRLP},
	{"sim", "ns_per_event", "ns", 1, driveEngine},
	{"system", "encode_ms", "ms", 1e6, driveEncode},
}

// coreOp is one generated memory operation and the core that issued it.
type coreOp struct {
	core int
	op   workloads.Op
}

// driverInput is what the drivers share: the workload's configuration,
// its generators, and operation streams drawn from them.
type driverInput struct {
	cfg  *config.Config
	seed uint64
	gens []*workloads.Generator
	// ops interleaves the generators' operations round-robin by core;
	// memOps is the PCM-bound subset (the streamed, non-temporal
	// operations); writes is memOps' stores.
	ops, memOps, writes []coreOp
	// res is a short run's Results, the input of the encode driver.
	res *system.Results
}

const (
	driverOps    = 1 << 16
	driverMemOps = 1 << 12
	// maxGenerated bounds the search for PCM-bound operations in
	// workloads that rarely miss.
	maxGenerated = 1 << 25
)

// newDriverInput draws the drivers' inputs from the generators of the
// workload's first simulation, seeded by seed.
func newDriverInput(w workload, seed uint64) (*driverInput, error) {
	cfg, err := w.config(seed)
	if err != nil {
		return nil, err
	}
	mix, ok := workloads.MixByName(w.firstMix())
	if !ok {
		return nil, fmt.Errorf("unknown mix %q", w.firstMix())
	}
	in := &driverInput{cfg: cfg, seed: seed}
	var shared *workloads.SharedRegion
	if mix.Multithreaded {
		shared = workloads.NewSharedRegion()
	}
	rng := sim.NewRNG(seed)
	for i, name := range mix.PerCore {
		in.gens = append(in.gens, workloads.NewGenerator(workloads.MustByName(name), i, rng.Fork(), shared))
	}
	var op workloads.Op
	for n := 0; n < maxGenerated && (len(in.ops) < driverOps || len(in.memOps) < driverMemOps); n++ {
		c := n % len(in.gens)
		in.gens[c].Next(&op)
		o := coreOp{c, op}
		if len(in.ops) < driverOps {
			in.ops = append(in.ops, o)
		}
		if op.NonTemporal && len(in.memOps) < driverMemOps {
			in.memOps = append(in.memOps, o)
			if op.Store {
				in.writes = append(in.writes, o)
			}
		}
	}
	if len(in.writes) == 0 {
		return nil, fmt.Errorf("mix %s generated no PCM-bound stores", mix.Name)
	}

	opts, err := w.options(seed)
	if err != nil {
		return nil, err
	}
	sys, err := system.New(opts...)
	if err != nil {
		return nil, err
	}
	defer sys.Release()
	in.res, err = sys.Run(2_000, 20_000)
	return in, err
}

// runDrivers runs every driver for about benchtime each and returns
// their metrics.
func runDrivers(in *driverInput, benchtime string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, d := range drivers {
		body, err := d.setup(in)
		if err != nil {
			return nil, fmt.Errorf("%s driver: %w", d.layer, err)
		}
		failed := false
		r := benchmark(benchtime, func(b *testing.B) {
			defer func() { failed = failed || b.Failed() }()
			body(b)
		})
		if failed || r.N == 0 {
			return nil, fmt.Errorf("%s driver failed", d.layer)
		}
		out[d.layer+"."+d.metric] = float64(r.T.Nanoseconds()) / float64(r.N) / d.div
		out[d.layer+".allocs_per_call"] = float64(r.MemAllocs) / float64(r.N)
	}
	return out, nil
}

// Sinks keep the compiler from discarding the drivers' results.
var (
	sinkOp   workloads.Op
	sinkTime sim.Time
	sinkInt  int
)

// cursor walks an input stream cyclically across the b.N loops of
// successive testing.Benchmark calls.
type cursor struct{ i int }

func (c *cursor) next(ops []coreOp) *coreOp {
	o := &ops[c.i%len(ops)]
	c.i++
	return o
}

// driveGenerator: workloads.Generator.Next, round-robin over the cores.
func driveGenerator(in *driverInput) (func(b *testing.B), error) {
	k := 0
	return func(b *testing.B) {
		var op workloads.Op
		for i := 0; i < b.N; i++ {
			in.gens[k%len(in.gens)].Next(&op)
			k++
		}
		sinkOp = op
	}, nil
}

// driveDirectory: one coherence.Directory Load or Store per operation,
// plus the Evict of the line accessed a window earlier, which bounds
// the directory to the lines an L1 could still hold.
func driveDirectory(in *driverInput) (func(b *testing.B), error) {
	const window = 512
	d := coherence.NewDirectory()
	var ring [window]coreOp
	var c cursor
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k := c.i
			o := c.next(in.ops)
			line := o.op.Addr &^ 63
			if o.op.Store {
				d.Store(line, o.core)
			} else {
				d.Load(line, o.core)
			}
			old := &ring[k%window]
			if k >= window {
				d.Evict(old.op.Addr&^63, old.core)
			}
			*old = *o
		}
	}, nil
}

// driveMesh: noc.Mesh.Send from the issuing core to the L2 bank of the
// line, departing after the operation's instruction gap.
func driveMesh(in *driverInput) (func(b *testing.B), error) {
	m := noc.New(in.cfg.NoC)
	var t sim.Time
	var c cursor
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			o := c.next(in.ops)
			bytes := 16
			if o.op.Store {
				bytes = config.LineBytes
			}
			t += sim.CPUCycle.Times(o.op.Gap)
			sinkTime = m.Send(m.CoreNode(o.core), m.BankNode(int(o.op.Addr>>6)&7), bytes, t)
		}
	}, nil
}

// driveHierarchy: cache.Hierarchy Load and Store over a core.Memory,
// with the generators' reuse pools prewarmed as system.New does. A
// stalled access steps the engine until it is accepted.
func driveHierarchy(in *driverInput) (func(b *testing.B), error) {
	eng := sim.NewEngine()
	m, err := core.NewMemory(eng, in.cfg)
	if err != nil {
		return nil, err
	}
	h := cache.NewHierarchy(eng, in.cfg, m)
	for _, g := range in.gens {
		base, lines := g.LLCPoolRange()
		for i := 0; i < lines; i++ {
			h.PrewarmLLC(base + uint64(i)*64)
		}
		base, lines = g.L2PoolRange()
		for i := 0; i < lines; i++ {
			h.PrewarmL2(base + uint64(i)*64)
		}
	}
	var c cursor
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			seq := uint64(c.i)
			o := c.next(in.ops)
			for {
				var res cache.Result
				if o.op.Store {
					res = h.Store(o.core, o.op.Addr, o.op.EssMask, o.op.NonTemporal)
				} else {
					res, _ = h.Load(o.core, o.op.Addr, o.op.NonTemporal, seq)
				}
				if res != cache.Stalled {
					break
				}
				if !eng.Step() {
					b.Fatal("hierarchy stalled with no pending events")
				}
			}
		}
	}, nil
}

// driveMemory: core.Memory.Submit of the PCM-bound operations (loads
// as reads, stores as write-backs of their dirty words) plus one engine
// Step per request. Requests are recycled on completion, after the
// deferred verification of a read served by reconstruction.
func driveMemory(in *driverInput) (func(b *testing.B), error) {
	const inflight = 64
	eng := sim.NewEngine()
	m, err := core.NewMemory(eng, in.cfg)
	if err != nil {
		return nil, err
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
	var c cursor
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for len(free) == 0 {
				if !eng.Step() {
					b.Fatal("requests outstanding with no pending events")
				}
			}
			r := free[len(free)-1]
			free = free[:len(free)-1]
			o := c.next(in.memOps)
			r.Kind, r.Addr, r.Mask, r.Core = mem.Read, o.op.Addr&^63, 0, -1
			if o.op.Store {
				r.Kind, r.Mask = mem.Write, o.op.EssMask
			}
			for !m.Submit(r) {
				if !eng.Step() {
					b.Fatal("queue full with no pending events")
				}
			}
			eng.Step()
		}
	}, nil
}

// driveStore: pcm.Store.Get of each PCM-bound store's line plus the
// AnalyzeLineWrite bit census of its dirty words against new content.
func driveStore(in *driverInput) (func(b *testing.B), error) {
	s := pcm.NewStore()
	rng := sim.NewRNG(in.seed)
	var news [256][ecc.LineBytes]byte
	for i := range news {
		for j := 0; j < ecc.LineBytes; j += 8 {
			ecc.SetWord(&news[i], j/8, rng.Uint64())
		}
	}
	var c cursor
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k := c.i
			o := c.next(in.writes)
			l := s.Get(o.op.Addr >> 6)
			f := pcm.AnalyzeLineWrite(&l.Data, &news[k&255], o.op.EssMask)
			sinkInt += f.Sets + f.Resets
		}
	}, nil
}

// driveSECDED: ecc.Encode64 plus Check64 per word; every 16th word has
// a flipped bit, so the correction path runs too.
func driveSECDED(in *driverInput) (func(b *testing.B), error) {
	rng := sim.NewRNG(in.seed)
	var words [1024]uint64
	for i := range words {
		words[i] = rng.Uint64()
	}
	k := 0
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w := words[k&1023]
			check := ecc.Encode64(w)
			read := w
			if k&15 == 0 {
				read ^= 1 << uint(k&63)
			}
			if got, _ := ecc.Check64(read, check); got != w {
				b.Fatal("SECDED returned wrong data")
			}
			k++
		}
	}, nil
}

// driveIRLP: one stats.IRLP.AddWriteWindow per PCM-bound store and one
// AddChipService per dirty word, with a Finalize and Reset every 4096
// windows.
func driveIRLP(in *driverInput) (func(b *testing.B), error) {
	x := stats.NewIRLP()
	prog := in.cfg.Memory.Timing.CellSET.Time()
	var t sim.Time
	var c cursor
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k := c.i
			o := c.next(in.writes)
			t += sim.CPUCycle.Times(o.op.Gap + 1)
			x.AddWriteWindow(t, t+prog)
			for m := o.op.EssMask; m != 0; m &= m - 1 {
				x.AddChipService(t, t+prog)
			}
			if k%4096 == 4095 {
				x.Finalize(in.cfg.Memory.DataChips)
				x.Reset()
			}
		}
	}, nil
}

// driveEngine: sim.Engine.Schedule of an event one instruction gap
// ahead plus one Step, over a standing queue of 64 events.
func driveEngine(in *driverInput) (func(b *testing.B), error) {
	eng := sim.NewEngine()
	fn := func() {}
	var c cursor
	for i := 0; i < 64; i++ {
		eng.Schedule(sim.CPUCycle.Times(c.next(in.ops).op.Gap+1), fn)
	}
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng.Schedule(sim.CPUCycle.Times(c.next(in.ops).op.Gap+1), fn)
			eng.Step()
		}
	}, nil
}

// driveEncode: system.EncodeResults of a short run of the workload.
func driveEncode(in *driverInput) (func(b *testing.B), error) {
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := system.EncodeResults(in.res); err != nil {
				b.Fatal(err)
			}
		}
	}, nil
}
