package workloads

import (
	"math"
	"sync"

	"pcmap/internal/flat"
	"pcmap/internal/sim"
)

// Op is one memory operation emitted by a workload stream, preceded by
// Gap non-memory instructions.
type Op struct {
	Gap         int
	Store       bool
	Addr        uint64
	EssMask     uint8 // stores: words whose values change (0 = silent)
	NonTemporal bool  // stores: bypass allocation (streaming store)
}

// SharedRegion is the address region an MT program's threads share.
// All generators of one workload reference the same instance, so
// stores from one core hit lines other cores have cached — the
// coherence traffic source.
type SharedRegion struct {
	Base  uint64
	Lines uint64
}

// Generator produces one core's memory-operation stream for a profile.
type Generator struct {
	P    Profile
	rng  *sim.RNG
	core int

	// Derived per-op probabilities (see calibration note below).
	pMemLoad  float64 // load goes to the streamed PCM-bound region
	pMemStore float64 // store goes to the PCM-bound region
	allocFrac float64 // PCM-bound stores that write-allocate (vs NT)
	gaps      *sim.GapTable

	base     uint64 // private region base
	poolBase uint64 // reuse pools (set-skewed per core)
	memPtr   uint64
	recent   [16]uint64
	nRecent  int

	// queued holds a follow-up op (the RFO read of a write-allocated
	// streaming store) emitted on the next call.
	queued    Op
	hasQueued bool

	patterns   *flat.Table[uint8] // write pattern per line, from memoPool
	lastOffset int

	shared *SharedRegion
}

// Region geometry (lines): the reuse pools behind the derived bucket
// probabilities. The L2 pool fits comfortably in one core's L2 share;
// the LLC pool fits the DRAM cache but not the L2.
const (
	l2PoolLines  = 6 << 10  // 384 KB per core
	llcPoolLines = 64 << 10 // 4 MB per core
	sharedLines  = 32 << 10 // 2 MB hot shared set

	// poolSkewLines staggers each core's pool region so different
	// cores' pools map to different cache sets (the private-region
	// bases differ only above the set-index bits; without the skew all
	// eight pools would pile onto the same sets and fill them
	// completely, turning every other fill into a thrash chain).
	poolSkewLines = l2PoolLines + llcPoolLines + 1<<10

	// memoLines caps a generator's write-pattern memo.
	memoLines = 1 << 16
)

// memoPool recycles write-pattern memos across systems, as batchPool
// recycles batches: a sweep builds one system after another, and each
// generator's memo grows to memoLines lines. Feed.Release returns a
// memo cleared, so a memo from the pool is always empty. A memo's slot
// count cannot reach any output, since a flat.Table has no iteration.
var memoPool = sync.Pool{New: func() any { return new(flat.Table[uint8]) }}

// gapTables holds one GapTable per mean gap for the whole process, so
// a profile's buckets are filled once, not once per simulation. It
// holds at most maxGapTables tables; beyond that a generator gets a
// table of its own.
var gapTables = struct {
	mu sync.Mutex
	//pcmaplint:guardedby mu
	m map[uint64]*sim.GapTable // keyed by the mean's bits
}{m: map[uint64]*sim.GapTable{}}

const maxGapTables = 64

// gapTable returns the process's table of gaps with the given mean.
func gapTable(mean float64) *sim.GapTable {
	gapTables.mu.Lock()
	defer gapTables.mu.Unlock()
	k := math.Float64bits(mean)
	t := gapTables.m[k]
	if t == nil {
		t = sim.NewGapTable(mean)
		if len(gapTables.m) < maxGapTables {
			gapTables.m[k] = t
		}
	}
	return t
}

// NewGenerator builds the stream for one core. Cores of a
// multiprogrammed mix pass shared == nil; threads of a multithreaded
// program share one SharedRegion.
func NewGenerator(p Profile, core int, rng *sim.RNG, shared *SharedRegion) *Generator {
	g := &Generator{
		P:        p,
		rng:      rng,
		core:     core,
		base:     uint64(core+1) << 29, // 512 MB apart, private
		patterns: memoPool.Get().(*flat.Table[uint8]),
		shared:   shared,
	}
	g.poolBase = g.base + (p.FootprintLines+uint64(core)*poolSkewLines)*64
	// Calibration: with L loads and S stores per kilo-instruction,
	// write-allocated PCM-bound stores produce one RFO read and one
	// eventual write-back each, so
	//
	//	RPKI = L*pMemLoad + allocFrac*S*pMemStore
	//	WPKI = S*pMemStore
	//
	// When the paper's RPKI >= WPKI all PCM-bound stores allocate and
	// loads supply the difference; when WPKI > RPKI (freqmine) most
	// PCM-bound stores are modeled as non-temporal streaming stores.
	l := p.MemOpsPerKI * (1 - p.StoreFrac)
	s := p.MemOpsPerKI * p.StoreFrac
	if s > 0 {
		g.pMemStore = clamp01(p.WPKI / s)
	}
	if p.RPKI >= p.WPKI {
		g.allocFrac = 1
		if l > 0 {
			g.pMemLoad = clamp01((p.RPKI - p.WPKI) / l)
		}
	} else {
		if p.WPKI > 0 {
			g.allocFrac = clamp01(0.3 * p.RPKI / p.WPKI)
		}
		if l > 0 {
			g.pMemLoad = clamp01(0.7 * p.RPKI / l)
		}
	}
	g.gaps = gapTable(p.MeanGap())
	return g
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Next fills op with the stream's next operation.
//
// PCM-bound stores are modeled as streaming (non-temporal) writes so
// the write-back rate is independent of simulated length (the paper
// runs 1B instructions, long enough for LLC eviction steady state; our
// runs are ~1000x shorter, so waiting for a 256 MB LLC to age dirty
// lines out would silence WPKI entirely — see DESIGN.md). When the
// profile's calibration says the store would have write-allocated, the
// read-for-ownership is emitted explicitly as a follow-up load, which
// preserves the paper's read traffic.
func (g *Generator) Next(op *Op) {
	if g.hasQueued {
		*op = g.queued
		g.hasQueued = false
		return
	}
	*op = Op{Gap: g.gaps.Draw(g.rng)}
	op.Store = g.rng.Bool(g.P.StoreFrac)

	pMem := g.pMemLoad
	if op.Store {
		pMem = g.pMemStore
	}
	if g.rng.Float64() < pMem {
		op.Addr = g.nextStreamAddr()
		if op.Store {
			op.NonTemporal = true
			if g.rng.Bool(g.allocFrac) {
				// Write-allocate traffic: the RFO read (streaming too).
				g.queued = Op{Addr: op.Addr, NonTemporal: true}
				g.hasQueued = true
			}
		} else {
			op.NonTemporal = true
		}
	} else {
		op.Addr = g.nextReuseAddr()
		// Only reuse-pool lines enter the recency ring: streamed lines
		// are touched once by construction (that is what makes them
		// PCM-bound), so remembering them would synthesize bogus reuse
		// of lines the hierarchy deliberately bypassed.
		g.remember(op.Addr)
	}
	if op.Store {
		op.EssMask = g.patternFor(op.Addr &^ 63)
	}
}

// L2PoolRange returns the address range of the L2-resident reuse pool
// (for functional cache pre-warming).
func (g *Generator) L2PoolRange() (base uint64, lines int) {
	return g.poolBase, l2PoolLines
}

// LLCPoolRange returns the address range of the DRAM-cache-resident
// reuse pool.
func (g *Generator) LLCPoolRange() (base uint64, lines int) {
	return g.poolBase + l2PoolLines*64, llcPoolLines
}

// Shared returns the program's shared region (nil for multiprogrammed
// workloads).
func (g *Generator) Shared() *SharedRegion { return g.shared }

// nextStreamAddr walks the PCM-bound footprint: sequential with
// probability RowLocality, random jump otherwise.
func (g *Generator) nextStreamAddr() uint64 {
	if !g.rng.Bool(g.P.RowLocality) {
		g.memPtr = uint64(g.rng.Intn(int(g.P.FootprintLines)))
	}
	addr := g.base + (g.memPtr%g.P.FootprintLines)*64
	g.memPtr++
	return addr
}

// nextReuseAddr picks from the cache-resident pools (and, for MT
// programs, the shared hot set).
func (g *Generator) nextReuseAddr() uint64 {
	if g.shared != nil && g.rng.Bool(g.P.SharedFrac) {
		return g.shared.Base + uint64(g.rng.Intn(int(g.shared.Lines)))*64
	}
	total := g.P.L1Weight + g.P.L2Weight + g.P.LLCWeight
	x := g.rng.Float64() * total
	switch {
	case x < g.P.L1Weight && g.nRecent > 0:
		return g.recent[g.rng.Intn(g.nRecent)]
	case x < g.P.L1Weight+g.P.L2Weight:
		return g.poolBase + uint64(g.rng.Intn(l2PoolLines))*64
	default:
		return g.poolBase + (l2PoolLines+uint64(g.rng.Intn(llcPoolLines)))*64
	}
}

func (g *Generator) remember(addr uint64) {
	if g.nRecent < len(g.recent) {
		g.recent[g.nRecent] = addr
		g.nRecent++
		return
	}
	g.recent[g.rng.Intn(len(g.recent))] = addr
}

// patternFor returns the write pattern of the line at the given
// 64-byte-aligned address, sampling it on first touch: a dirty-word
// count from the Figure 2 distribution placed at a word offset that
// repeats the previous line's offset with probability SameOffsetCorr
// (Section IV-C2's observation).
func (g *Generator) patternFor(line uint64) uint8 {
	key := flat.Key(line >> 6)
	if m := g.patterns.Get(key); m != nil {
		return *m
	}
	k := g.rng.Pick(g.P.DirtyWordDist[:])
	base := g.lastOffset
	if !g.rng.Bool(g.P.SameOffsetCorr) {
		base = g.sampleOffset()
	}
	g.lastOffset = base
	var mask uint8
	for i := 0; i < k; i++ {
		mask |= 1 << uint((base+i)%8)
	}
	if g.patterns.Len() >= memoLines {
		// Bounded memory; patterns re-sample. Clearing keeps the
		// table's grown slots instead of handing a 64K-entry allocation
		// to the GC every time the cap is hit.
		g.patterns.Clear()
	}
	m, _ := g.patterns.Put(key)
	*m = mask
	return mask
}

// sampleOffset draws a pattern base offset from the profile's skewed
// distribution: P(k) ~ OffsetSkew^k (uniform when OffsetSkew >= 1 or
// unset).
func (g *Generator) sampleOffset() int {
	s := g.P.OffsetSkew
	if s <= 0 || s >= 1 {
		return g.rng.Intn(8)
	}
	var w [8]float64
	p := 1.0
	for i := range w {
		w[i] = p
		p *= s
	}
	return g.rng.Pick(w[:])
}

// NewSharedRegion places an MT program's shared hot set well above the
// private regions.
func NewSharedRegion() *SharedRegion {
	return &SharedRegion{Base: 7 << 30, Lines: sharedLines}
}
