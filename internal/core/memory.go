package core

import (
	"fmt"
	"math"

	"pcmap/internal/config"
	"pcmap/internal/energy"
	"pcmap/internal/mem"
	"pcmap/internal/sim"
	"pcmap/internal/stats"
)

// Memory is the public facade over the channel controllers: it routes
// requests by physical address and aggregates metrics. This is the type
// CPU-side components and library users talk to.
type Memory struct {
	Eng   *sim.Engine
	Cfg   *config.Config
	AMap  *mem.AddrMap
	Ctrls []*Controller

	// OnSubmit, when non-nil, observes every successfully enqueued
	// request (the trace recorder's hook).
	OnSubmit func(*mem.Request)
}

// NewMemory builds the main memory system for cfg on eng.
func NewMemory(eng *sim.Engine, cfg *config.Config) (*Memory, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	amap, err := mem.NewAddrMap(cfg.Memory.Geometry())
	if err != nil {
		return nil, err
	}
	m := &Memory{Eng: eng, Cfg: cfg, AMap: amap}
	rng := sim.NewRNG(cfg.Seed ^ 0x9cbf1a3d5e7f0246)
	for ch := 0; ch < cfg.Memory.Channels; ch++ {
		m.Ctrls = append(m.Ctrls, NewController(eng, cfg, ch, amap, rng.Fork()))
	}
	return m, nil
}

// Channel returns the controller owning addr.
func (m *Memory) Channel(addr uint64) *Controller {
	return m.Ctrls[m.AMap.Decode(addr).Channel]
}

// Submit presents a request to the owning channel. It reports false
// when that channel's queue is full; use OnSpace to be notified.
func (m *Memory) Submit(r *mem.Request) bool {
	ok := m.Channel(r.Addr).Enqueue(r)
	if ok && m.OnSubmit != nil {
		m.OnSubmit(r)
	}
	return ok
}

// OnSpace registers a one-shot callback for queue space on addr's
// channel.
func (m *Memory) OnSpace(kind mem.Kind, addr uint64, fn func()) {
	m.Channel(addr).OnSpace(kind, fn)
}

// ResetMetrics discards all accumulated measurements (including IRLP
// interval records); used to drop the cache-warmup phase from the
// reported statistics, mirroring the paper's 200M-instruction warmup.
func (m *Memory) ResetMetrics() {
	for _, c := range m.Ctrls {
		c.Metrics.Reset()
	}
}

// Release returns every channel's line store and metrics block to
// their pools (see Controller.Release). The memory must not be used
// afterwards.
func (m *Memory) Release() {
	for _, c := range m.Ctrls {
		c.Release()
	}
}

// Metrics returns a merged copy of all channels' metrics. IRLP is not
// merged here (interval trackers finalize per rank); use IRLP().
func (m *Memory) Metrics() *mem.Metrics {
	// A fresh block, not a pooled one: the copy escapes into Results.
	out := mem.NewMetrics()
	for _, c := range m.Ctrls {
		out.Merge(c.Metrics)
	}
	return out
}

// IRLP finalizes and combines the per-rank IRLP trackers: the average
// is weighted by each rank's write-busy time, the max is the maximum
// instantaneous parallelism across ranks.
func (m *Memory) IRLP() (avg float64, max int) {
	var num, den float64
	for _, c := range m.Ctrls {
		t := c.Metrics.IRLP
		t.Finalize(m.Cfg.Memory.DataChips)
		busy := float64(t.WriteBusyTime().Ticks())
		num += t.Average() * busy
		den += busy
		if t.MaxBusy() > max {
			max = t.MaxBusy()
		}
	}
	if den > 0 {
		avg = num / den
	}
	return avg, max
}

// Energy reports the PCM energy of all ranks under the given model.
func (m *Memory) Energy(model energy.Model) energy.Breakdown {
	var total energy.Breakdown
	for _, c := range m.Ctrls {
		b := model.FromRank(c.Rank(), c.Metrics)
		total.ReadUJ += b.ReadUJ
		total.SetUJ += b.SetUJ
		total.ResetUJ += b.ResetUJ
		total.BusUJ += b.BusUJ
	}
	return total
}

// FaultCounts reports the total stuck-at cells and drift flips the
// fault model has injected across all channels (zero when fault
// injection is disabled). Experiments cross-check these against the
// read/verify paths' correction counters: every injected error must be
// corrected, retried away, or reported — never silently returned.
func (m *Memory) FaultCounts() (stuck, drift uint64) {
	for _, c := range m.Ctrls {
		if f := c.rank.Store.Faults; f != nil {
			stuck += f.InjectedStuck
			drift += f.InjectedDrift
		}
	}
	return
}

// WearImbalance reports the coefficient of variation of per-chip word
// writes across all ranks — rotation should drive it toward zero
// (Section IV-C2's lifetime argument).
func (m *Memory) WearImbalance() float64 {
	var counts []float64
	for _, c := range m.Ctrls {
		_, per := c.Rank().TotalWordWrites()
		for _, n := range per {
			counts = append(counts, float64(n))
		}
	}
	mean := stats.ArithMean(counts)
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, x := range counts {
		ss += (x - mean) * (x - mean)
	}
	return math.Sqrt(ss/float64(len(counts))) / mean
}

func (m *Memory) String() string {
	return fmt.Sprintf("pcm-memory(%s, %d channels)", m.Cfg.Variant, len(m.Ctrls))
}
