package cache

import (
	"pcmap/internal/coherence"
	"pcmap/internal/config"
	"pcmap/internal/core"
	"pcmap/internal/flat"
	"pcmap/internal/mem"
	"pcmap/internal/noc"
	"pcmap/internal/sim"
)

// Result classifies where an access was satisfied.
type Result int

const (
	// HitL1: satisfied by the core's private L1.
	HitL1 Result = iota
	// HitL2: satisfied by the shared L2.
	HitL2
	// HitLLC: satisfied by the DRAM cache.
	HitLLC
	// GoesToMemory: a PCM fetch is in flight; the caller's onDone runs
	// at fill time.
	GoesToMemory
	// Bypassed: a non-temporal store went straight to PCM without
	// allocating in the hierarchy.
	Bypassed
	// Stalled: no MSHR or the write-back backlog is full; retry after
	// OnUnstall fires.
	Stalled
)

func (r Result) String() string {
	switch r {
	case HitL1:
		return "l1-hit"
	case HitL2:
		return "l2-hit"
	case HitLLC:
		return "llc-hit"
	case GoesToMemory:
		return "memory"
	case Bypassed:
		return "nt-bypass"
	case Stalled:
		return "stalled"
	default:
		return "unknown"
	}
}

// fillWaiter names one coalesced load to notify at fill time: the
// issuing core's fill handler receives the load's sequence number.
// A plain value pair instead of a captured closure keeps the miss
// path allocation-free.
type fillWaiter struct {
	core int
	seq  uint64
}

// fetch is one outstanding below-L2 miss; concurrent requests to the
// same line coalesce onto it (the MSHR function). Fetches live on a
// per-hierarchy free list: the embedded memory request and the
// callbacks bound to it are built once per pooled object and recycled
// when the fetch completes (after the deferred RoW verification when
// the read was served by reconstruction — the verify fan-out reads
// f.cores).
type fetch struct {
	h         *Hierarchy
	addr      uint64
	waiters   []fillWaiter
	cores     []int // coalesced cores, issuer first (fill and verify fan-out)
	store     bool  // triggered by a store: dirty the line at fill time
	storeMask uint8 // changed words to apply to L2 once the fill lands
	bypass    bool  // streaming access: do not pollute the DRAM cache
	req       mem.Request
	trySubmit func()
	next      *fetch // free-list link
}

// fetchDone is the fetch's pre-bound OnDone: land the fill, then
// recycle — unless the read was served by RoW reconstruction, in which
// case the deferred verification (OnVerify) still needs f.cores and
// performs the recycle itself.
func (f *fetch) fetchDone() {
	h := f.h
	h.finishFetch(f)
	if !f.req.Reconstructed {
		h.recycleFetch(f)
	}
}

// fetchVerified is the fetch's pre-bound OnVerify: fan the outcome out
// to every coalesced core, then recycle. The controller invokes
// OnVerify exactly once, only for reconstructed reads, and always
// after OnDone.
func (f *fetch) fetchVerified(rq *mem.Request, faulty bool) {
	h := f.h
	for _, c := range f.cores {
		if fn := h.verifyHandlers[c]; fn != nil {
			fn(faulty, rq.Done)
		}
	}
	h.recycleFetch(f)
}

// newFetch pops a recycled fetch or builds a fresh one with its
// callbacks pre-bound.
func (h *Hierarchy) newFetch() *fetch {
	f := h.fetchFree
	if f == nil {
		f = &fetch{h: h}
		f.req.OnDone = func(*mem.Request) { f.fetchDone() }
		f.req.OnVerify = func(rq *mem.Request, faulty bool) { f.fetchVerified(rq, faulty) }
		f.trySubmit = func() {
			if !f.h.Mem.Submit(&f.req) {
				f.h.Mem.OnSpace(mem.Read, f.req.Addr, f.trySubmit)
			}
		}
		return f
	}
	h.fetchFree = f.next
	f.next = nil
	return f
}

// recycleFetch clears the fetch (keeping slice capacity and the
// pre-bound callbacks) and pushes it on the free list.
func (h *Hierarchy) recycleFetch(f *fetch) {
	f.addr = 0
	f.waiters = f.waiters[:0]
	f.cores = f.cores[:0]
	f.store, f.bypass = false, false
	f.storeMask = 0
	resetRequest(&f.req)
	f.next = h.fetchFree
	h.fetchFree = f
}

// resetRequest clears a pooled request's per-access state, keeping the
// callbacks bound to it. Kind, Addr and Core are set on every reuse.
func resetRequest(r *mem.Request) {
	r.Mask, r.Data = 0, nil
	r.Arrive, r.Issue, r.Done = 0, 0, 0
	r.Started, r.Reconstructed, r.DelayedByWrite = false, false, false
	r.Err = nil
}

// wbReq is one pooled write-back request with its retry callback
// pre-bound (back-pressure re-submission), recycled when the write
// completes.
type wbReq struct {
	h     *Hierarchy
	req   mem.Request
	retry func()
	next  *wbReq
}

func (h *Hierarchy) newWB() *wbReq {
	w := h.wbFree
	if w == nil {
		w = &wbReq{h: h}
		w.req.OnDone = func(*mem.Request) { w.h.recycleWB(w) }
		w.retry = func() {
			if w.h.Mem.Submit(&w.req) {
				w.h.wbBacklog--
				w.h.unstall.Wake()
				return
			}
			w.h.Mem.OnSpace(mem.Write, w.req.Addr, w.retry)
		}
		return w
	}
	h.wbFree = w.next
	w.next = nil
	return w
}

func (h *Hierarchy) recycleWB(w *wbReq) {
	resetRequest(&w.req)
	w.next = h.wbFree
	h.wbFree = w
}

// Hierarchy wires the cache levels, the MOESI directory, the NoC and
// the PCM main memory together.
type Hierarchy struct {
	cfg  *config.Config
	eng  *sim.Engine
	Mem  *core.Memory
	Mesh *noc.Mesh
	Dir  *coherence.Directory

	L1  []*Cache // per-core L1D
	L2  *Cache
	LLC *Cache

	llcBankBusy []sim.Time
	llcBanks    int

	pending    flat.Table[*fetch] // outstanding fetches, keyed by line number
	pendingCap int
	wbBacklog  int
	wbCap      int
	unstall    sim.Waiters

	// Free lists for the per-miss and per-writeback request objects.
	fetchFree *fetch
	wbFree    *wbReq

	// verifyHandlers receive RoW verification outcomes per core (with
	// the load's completion time): the CPU model decides whether a
	// faulty outcome forces a rollback.
	verifyHandlers []func(faulty bool, loadDone sim.Time)

	// fillHandlers receive PCM fill completions per core: the sequence
	// number a core passed to Load comes back when the miss lands.
	fillHandlers []func(seq uint64)

	// Statistics.
	L1Hits, MemFetches, CoalescedMisses, InvalidationsSent uint64
}

// NewHierarchy builds the hierarchy for cfg on top of memory.
func NewHierarchy(eng *sim.Engine, cfg *config.Config, memory *core.Memory) *Hierarchy {
	h := &Hierarchy{
		cfg:         cfg,
		eng:         eng,
		Mem:         memory,
		Mesh:        noc.New(cfg.NoC),
		Dir:         coherence.NewDirectory(),
		L2:          New("L2", cfg.L2),
		LLC:         New("LLC", cfg.DRAMLLC),
		llcBanks:    cfg.LLCBanks,
		llcBankBusy: make([]sim.Time, cfg.LLCBanks),
		pendingCap:  cfg.L2MSHRs,
		wbCap:       4 * cfg.Memory.Channels,
	}
	for i := 0; i < cfg.Cores; i++ {
		h.L1 = append(h.L1, New("L1D", cfg.L1D))
	}
	h.verifyHandlers = make([]func(bool, sim.Time), cfg.Cores)
	h.fillHandlers = make([]func(uint64), cfg.Cores)
	return h
}

// Release returns the cache levels' state arrays to the slab pool and
// the directory's table to its pool. The hierarchy must not be used
// afterwards. Experiment harnesses call it between runs so
// back-to-back systems of the same geometry reuse one LLC's worth of
// arrays instead of growing the heap per run.
func (h *Hierarchy) Release() {
	for _, l1 := range h.L1 {
		l1.Release()
	}
	h.L2.Release()
	h.LLC.Release()
	h.Dir.Release()
}

// SetFillHandler registers the callback invoked when a PCM fill this
// core requested (via Load) lands, carrying the sequence number the
// core passed. One registration per core replaces a per-miss closure.
func (h *Hierarchy) SetFillHandler(corID int, fn func(seq uint64)) {
	h.fillHandlers[corID] = fn
}

// SetVerifyHandler registers the callback invoked when a RoW-served
// fetch this core consumed finishes its deferred SECDED verification.
func (h *Hierarchy) SetVerifyHandler(corID int, fn func(faulty bool, loadDone sim.Time)) {
	h.verifyHandlers[corID] = fn
}

// PrewarmLLC functionally installs a clean line in the DRAM cache
// (no timing, no PCM traffic). The experiment harness pre-warms the
// workloads' cache-resident reuse pools, standing in for the paper's
// 200M-instruction warmup, which our ~1000x shorter runs cannot
// reproduce by execution alone.
func (h *Hierarchy) PrewarmLLC(addr uint64) { h.LLC.Insert(line64(addr)) }

// PrewarmL2 functionally installs a clean line in the L2 (and LLC,
// keeping the lookup path consistent).
func (h *Hierarchy) PrewarmL2(addr uint64) {
	l := line64(addr)
	h.LLC.Insert(l)
	h.fillL2(l, false, 0)
}

func line64(addr uint64) uint64 { return addr &^ 63 }

// OnUnstall registers a one-shot callback fired when a Stalled access
// may be retried.
func (h *Hierarchy) OnUnstall(fn func()) { h.unstall.Add(fn) }

// cpuCycles converts a CPU-cycle count to simulated time.
func cpuCycles(n int) sim.Time { return sim.CPUCycle.Times(n) }

// l2PathLatency is the NoC round trip from the core to the L2 bank
// owning addr plus the L2 hit time.
func (h *Hierarchy) l2PathLatency(corID int, addr uint64) sim.Time {
	bank := int(addr>>6) & 7
	from := h.Mesh.CoreNode(corID)
	to := h.Mesh.BankNode(bank)
	req := h.Mesh.Send(from, to, 16, h.eng.Now()) // address packet
	resp := h.Mesh.Latency(to, from, config.LineBytes)
	return (req - h.eng.Now()) + cpuCycles(h.cfg.L2.HitCycles) + resp
}

// llcLatency models the NUCA DRAM cache: bank queueing plus the fixed
// access latency.
func (h *Hierarchy) llcLatency(afterL2 sim.Time, addr uint64) sim.Time {
	bank := int(addr>>6) & (h.llcBanks - 1)
	arrive := h.eng.Now() + afterL2
	start := arrive
	if h.llcBankBusy[bank] > start {
		start = h.llcBankBusy[bank]
	}
	const bankOccupancyCycles = 50
	h.llcBankBusy[bank] = start + cpuCycles(bankOccupancyCycles)
	return (start - arrive) + afterL2 + cpuCycles(h.cfg.DRAMLLC.HitCycles)
}

// fillL1 inserts a line into a core's L1, handling coherence eviction
// bookkeeping (L1s are write-through, so victims are always clean).
func (h *Hierarchy) fillL1(corID int, addr uint64) {
	v, had := h.L1[corID].Insert(h.L1[corID].Align(addr))
	if !had {
		return
	}
	// Drop the directory's sharer bit once neither 32B half of the
	// 64B coherence unit remains in this L1.
	base := line64(v.Addr)
	other := base
	if v.Addr == base {
		other = base + uint64(h.L1[corID].LineBytes())
	}
	if !h.L1[corID].Present(other) {
		h.Dir.Evict(base, corID)
	}
}

// fillL2 inserts a line into the L2, dirtied with essMask when dirty
// (a store's write-allocate), writing back a dirty victim to the LLC
// (or straight to PCM when the LLC does not hold it — the LLC is
// write-around for write-backs, see DESIGN.md) and maintaining L1
// inclusion.
func (h *Hierarchy) fillL2(addr uint64, dirty bool, essMask uint8) {
	v, had := h.L2.insert(addr, dirty, essMask)
	if !had {
		return
	}
	// Inclusive L2: shoot down any L1 copies of the victim.
	if sh := h.Dir.Sharers(v.Addr); sh != 0 {
		for c := 0; c < h.cfg.Cores; c++ {
			if sh&(1<<uint(c)) == 0 {
				continue
			}
			h.L1[c].Invalidate(v.Addr)
			h.L1[c].Invalidate(v.Addr + uint64(h.cfg.L1D.LineBytes))
			h.Dir.Evict(v.Addr, c)
			h.InvalidationsSent++
		}
	}
	if v.Dirty && !h.LLC.MarkDirty(v.Addr, v.EssMask) {
		h.submitWriteback(v.Addr, v.EssMask)
	}
}

// fillLLC inserts a line into the DRAM cache, pushing a dirty victim's
// essential words out to PCM.
func (h *Hierarchy) fillLLC(addr uint64) {
	v, had := h.LLC.Insert(addr)
	if had && v.Dirty {
		h.submitWriteback(v.Addr, v.EssMask)
	}
}

// submitWriteback sends a dirty line's essential words to PCM,
// buffering while the channel's write queue is full. Requests come
// from the write-back pool; the pre-bound OnDone recycles them at
// completion (every accepted write completes exactly once — the
// controller never merges queued writes).
func (h *Hierarchy) submitWriteback(addr uint64, essMask uint8) {
	w := h.newWB()
	w.req.Kind, w.req.Addr, w.req.Mask, w.req.Core = mem.Write, addr, essMask, -1
	if h.Mem.Submit(&w.req) {
		return
	}
	h.wbBacklog++
	h.Mem.OnSpace(mem.Write, addr, w.retry)
}

// Load performs a demand load. For HitL1/HitL2/HitLLC the returned
// latency is the access time and no fill notification happens. For
// GoesToMemory, the core's registered fill handler (SetFillHandler)
// runs with seq when the PCM fill completes. Stalled means no MSHR or
// write-back backlog slot was free; retry after OnUnstall. A stalled
// load is not side-effect free: it has already run Dir.Load, booked an
// address packet on the mesh and counted its L1, L2 and LLC misses, and
// the retry does all three again (ROADMAP.md, "Front-end accounting":
// stall retries). Non-temporal (streaming) loads fill L1/L2 but bypass
// the DRAM cache.
func (h *Hierarchy) Load(corID int, addr uint64, nonTemporal bool, seq uint64) (Result, sim.Time) {
	if h.L1[corID].Lookup(addr) {
		h.L1Hits++
		return HitL1, cpuCycles(h.cfg.L1D.HitCycles)
	}
	l := line64(addr)
	act := h.Dir.Load(l, corID)
	var fwd sim.Time
	if act.ForwardFrom >= 0 {
		// Cache-to-cache transfer across the mesh.
		fwd = h.Mesh.Latency(h.Mesh.CoreNode(act.ForwardFrom), h.Mesh.CoreNode(corID), config.LineBytes)
	}
	l2lat := h.l2PathLatency(corID, l)
	if h.L2.Lookup(l) {
		h.fillL1(corID, addr)
		return HitL2, l2lat + fwd
	}
	if h.LLC.Lookup(l) {
		lat := h.llcLatency(l2lat, l)
		h.fillL2(l, false, 0)
		h.fillL1(corID, addr)
		return HitLLC, lat + fwd
	}
	return h.startFetch(corID, addr, false, 0, nonTemporal, seq, true)
}

// Store performs a store: write-through past L1, write-allocate at L2.
// essMask marks the words whose values change (0 = silent store).
// nonTemporal stores bypass the hierarchy and stream straight to PCM.
// Stores never return a latency — they retire via the store buffer —
// but may return Stalled when no MSHR (or write-back backlog slot) is
// available.
func (h *Hierarchy) Store(corID int, addr uint64, essMask uint8, nonTemporal bool) Result {
	l := line64(addr)
	if nonTemporal && !h.L2.Present(l) && !h.LLC.Present(l) {
		// Streaming store to an uncached line: no allocation, direct
		// PCM write (with backpressure).
		if h.wbBacklog >= h.wbCap {
			return Stalled
		}
		h.invalidateForStore(corID, addr, h.Dir.Store(l, corID).Invalidate)
		h.submitWriteback(l, essMask)
		return Bypassed
	}
	act := h.Dir.Store(l, corID)
	h.invalidateForStore(corID, addr, act.Invalidate)
	// Write-through L1: refresh our own copy if present (no allocate).
	h.L1[corID].Touch(addr)
	if h.L2.MarkDirty(l, essMask) {
		return HitL2
	}
	// Write-allocate: fetch the line (from LLC or PCM), then dirty it.
	if h.LLC.Lookup(l) {
		h.llcLatency(0, l)
		h.fillL2(l, true, essMask)
		return HitLLC
	}
	res, _ := h.startFetch(corID, addr, true, essMask, false, 0, false)
	return res
}

// invalidateForStore shoots down remote L1 copies named by the
// directory (both 32B halves of the 64B coherence unit).
func (h *Hierarchy) invalidateForStore(corID int, addr uint64, mask uint16) {
	if mask == 0 {
		return
	}
	l := line64(addr)
	for c := 0; c < h.cfg.Cores; c++ {
		if mask&(1<<uint(c)) == 0 {
			continue
		}
		h.L1[c].Invalidate(l)
		h.L1[c].Invalidate(l + uint64(h.cfg.L1D.LineBytes))
		h.InvalidationsSent++
	}
}

// startFetch begins (or joins) a below-LLC miss. wantFill records the
// caller (a load) for a fill notification; store-initiated fetches
// pass false.
func (h *Hierarchy) startFetch(corID int, addr uint64, store bool, storeMask uint8, bypass bool, seq uint64, wantFill bool) (Result, sim.Time) {
	l := line64(addr)
	if p := h.pending.Get(flat.Key(l >> 6)); p != nil {
		f := *p
		h.CoalescedMisses++
		f.store = f.store || store
		f.storeMask |= storeMask
		f.cores = append(f.cores, corID)
		if wantFill {
			f.waiters = append(f.waiters, fillWaiter{core: corID, seq: seq})
		}
		return GoesToMemory, 0
	}
	if h.pending.Len() >= h.pendingCap || h.wbBacklog >= h.wbCap {
		return Stalled, 0
	}
	f := h.newFetch()
	f.addr = l
	f.store, f.storeMask, f.bypass = store, storeMask, bypass
	f.cores = append(f.cores, corID)
	if wantFill {
		f.waiters = append(f.waiters, fillWaiter{core: corID, seq: seq})
	}
	p, _ := h.pending.Put(flat.Key(l >> 6))
	*p = f
	h.MemFetches++
	f.req.Kind, f.req.Addr, f.req.Core = mem.Read, l, corID
	f.trySubmit()
	return GoesToMemory, 0
}

// finishFetch lands a PCM fill: LLC, L2 (with pending store dirt), L1,
// then wakes the coalesced waiters.
func (h *Hierarchy) finishFetch(f *fetch) {
	h.pending.Delete(flat.Key(f.addr >> 6))
	if !f.bypass {
		h.fillLLC(f.addr)
	}
	h.fillL2(f.addr, f.store, f.storeMask)
	h.fillL1(f.cores[0], f.addr) // the issuing core
	for _, w := range f.waiters {
		if fn := h.fillHandlers[w.core]; fn != nil {
			fn(w.seq)
		}
	}
	h.unstall.Wake()
}
