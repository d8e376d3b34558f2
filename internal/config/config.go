// Package config holds the configuration tree of the simulated system.
// Defaults follow Table I of the paper: an 8-core 2.5 GHz out-of-order
// processor with a three-level cache hierarchy (256 MB DRAM LLC) in
// front of an 8 GB SLC PCM main memory on 4 DDR3-style channels.
package config

import (
	"fmt"
	"math"
	"strings"

	"pcmap/internal/ecc"
	"pcmap/internal/flat"
	"pcmap/internal/mem"
	"pcmap/internal/sim"
)

// Variant identifies one evaluated memory-system design: the paper's
// six (Section V) plus the follow-on variants this repository layers on
// top of them. A Variant is an index into the capability registry below;
// what a variant *does* is entirely described by its Features value, so
// adding a system means adding one registry entry, not editing predicate
// methods and their call sites.
type Variant int

const (
	// Baseline prioritizes reads over writes (write queue drain above
	// the high-water mark) with coarse-grained, whole-rank accesses.
	Baseline Variant = iota
	// RoWNR applies Read-over-Write only; no rotation of data words,
	// no rotation of ECC/PCC.
	RoWNR
	// WoWNR applies Write-over-Write only; no rotation.
	WoWNR
	// RWoWNR combines RoW and WoW without any rotation.
	RWoWNR
	// RWoWRD adds data-word rotation to RWoW (ECC/PCC still fixed).
	RWoWRD
	// RWoWRDE additionally rotates the ECC and PCC words across all
	// ten chips; this is the full PCMap design.
	RWoWRDE
	// PALP layers partition-level access parallelism (Arjomand et al.'s
	// follow-on line; PALP, PACT 2019 / arXiv:1908.07966) on top of the
	// full PCMap design: each PCM bank is split into Memory.Partitions
	// independent partitions, and the scheduler serves a read while a
	// write occupies a *different* partition of the same bank.
	PALP
	// RWoWDCA layers data-content-aware write timing (DCA; ISMM 2020 /
	// arXiv:2005.04753) on top of the full PCMap design: the cell
	// programming time of each chip-word is computed from the
	// differential write's actual SET/RESET bit counts instead of the
	// worst-case single SET/RESET latency.
	RWoWDCA
)

// Features is the capability set of one variant — the open replacement
// for the former per-variant predicate methods. A Features value is
// resolved once from the registry when a system is constructed and then
// consulted by the scheduler; it never changes mid-run.
type Features struct {
	// RoW serves reads over ongoing writes via PCC reconstruction.
	RoW bool
	// WoW consolidates writes with disjoint chip sets.
	WoW bool
	// RotateData rotates data words across chips (addr mod 8).
	RotateData bool
	// RotateECC rotates the ECC and PCC words across all ten chips
	// (addr mod 10).
	RotateECC bool
	// FineGrained uses rank subsetting so a write only occupies the
	// chips holding essential words; the baseline does coarse
	// whole-rank writes.
	FineGrained bool
	// PartitionRoW additionally serves a read while a write occupies a
	// different partition of the same bank (PALP).
	PartitionRoW bool
	// ContentAware computes write service time from the differential
	// write's actual SET/RESET bit counts (DCA).
	ContentAware bool
}

// Summary renders the capability set as a compact "+"-joined list of
// the enabled capabilities ("-" when none are), for registry listings.
func (f Features) Summary() string {
	var parts []string
	for _, c := range []struct {
		name string
		on   bool
	}{
		{"RoW", f.RoW},
		{"WoW", f.WoW},
		{"RotateData", f.RotateData},
		{"RotateECC", f.RotateECC},
		{"FineGrained", f.FineGrained},
		{"PartitionRoW", f.PartitionRoW},
		{"ContentAware", f.ContentAware},
	} {
		if c.on {
			parts = append(parts, c.name)
		}
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, "+")
}

// variantInfo is one registry entry: the variant's canonical name and
// its capability set.
type variantInfo struct {
	name string
	feat Features
}

// registry maps every Variant (by index) to its name and Features. The
// first six entries are the paper's systems; their names and semantics
// are frozen — reports, caches, and golden outputs depend on them
// byte-for-byte.
var registry = []variantInfo{
	Baseline: {"Baseline", Features{}},
	RoWNR:    {"RoW-NR", Features{RoW: true, FineGrained: true}},
	WoWNR:    {"WoW-NR", Features{WoW: true, FineGrained: true}},
	RWoWNR:   {"RWoW-NR", Features{RoW: true, WoW: true, FineGrained: true}},
	RWoWRD:   {"RWoW-RD", Features{RoW: true, WoW: true, RotateData: true, FineGrained: true}},
	RWoWRDE:  {"RWoW-RDE", Features{RoW: true, WoW: true, RotateData: true, RotateECC: true, FineGrained: true}},
	PALP: {"PALP", Features{RoW: true, WoW: true, RotateData: true, RotateECC: true,
		FineGrained: true, PartitionRoW: true}},
	RWoWDCA: {"RWoW-DCA", Features{RoW: true, WoW: true, RotateData: true, RotateECC: true,
		FineGrained: true, ContentAware: true}},
}

// Variants lists the paper's six evaluated systems in the paper's
// order. The figure/table sweeps iterate exactly these; the follow-on
// variants are in AllVariants.
var Variants = []Variant{Baseline, RoWNR, WoWNR, RWoWNR, RWoWRD, RWoWRDE}

// AllVariants lists every registered variant: the paper's six followed
// by the follow-on systems.
var AllVariants = []Variant{Baseline, RoWNR, WoWNR, RWoWNR, RWoWRD, RWoWRDE, PALP, RWoWDCA}

// Known reports whether v is a registered variant.
func (v Variant) Known() bool { return v >= 0 && int(v) < len(registry) }

// Features returns the variant's capability set. Unknown variants
// return the zero Features (every capability off).
func (v Variant) Features() Features {
	if !v.Known() {
		return Features{}
	}
	return registry[v].feat
}

func (v Variant) String() string {
	if !v.Known() {
		return fmt.Sprintf("Variant(%d)", int(v))
	}
	return registry[v].name
}

// VariantByName resolves a canonical variant name (as printed by
// String) against the registry.
func VariantByName(name string) (Variant, bool) {
	for _, v := range AllVariants {
		if registry[v].name == name {
			return v, true
		}
	}
	return 0, false
}

// ParseVariant resolves a variant name given on a command line or in a
// job request, with an error listing the registered names.
func ParseVariant(name string) (Variant, error) {
	if v, ok := VariantByName(name); ok {
		return v, nil
	}
	return 0, fmt.Errorf("unknown variant %q (want one of %s)", name, strings.Join(VariantNames(), ", "))
}

// VariantNames lists every registered variant name in registry order.
func VariantNames() []string {
	names := make([]string, 0, len(AllVariants))
	for _, v := range AllVariants {
		names = append(names, registry[v].name)
	}
	return names
}

// Core configures one out-of-order core of the interval model.
type Core struct {
	IssueWidth  int // instructions issued per cycle when unstalled
	WindowSize  int // reorder-buffer window (instructions)
	DataMSHRs   int // outstanding data misses allowed
	RollbackPen int // pipeline-refill cycles charged per rollback
}

// CacheLevel configures the geometry and hit latency of one cache
// level. The write policy is fixed by the hierarchy: the L1D writes
// through, the L2 and the DRAM LLC write back.
type CacheLevel struct {
	SizeBytes int64
	Ways      int
	LineBytes int
	HitCycles int // hit latency in CPU cycles
}

// NoC configures the on-chip mesh network.
type NoC struct {
	Rows, Cols   int
	RouterCycles int // per-hop router latency (CPU cycles)
	LinkCycles   int // per-hop link latency (CPU cycles)
	FlitBytes    int
}

// PCMTiming carries the PCM device timing of Table I. Read/SET/RESET
// are cell-array latencies in picoseconds; the t* parameters are DDR3
// command timings in memory cycles at 400 MHz. The two unit types
// (mem.Picos and mem.Cycles) keep the quantities from mixing with
// simulated time without an explicit .Time() conversion — the
// pcmaplint unitsafe analyzer enforces this repo-wide.
type PCMTiming struct {
	ArrayRead mem.Picos // read-path row activation / array read (60 ns)
	// WriteArrayRead is the write path's internal read-before-write
	// (differential write compare). It equals ArrayRead by default but
	// stays fixed in the Table III sensitivity sweep, which varies the
	// read latency while holding the write path constant.
	WriteArrayRead mem.Picos
	CellSET        mem.Picos  // SET programming time (120 ns)
	CellRESET      mem.Picos  // RESET programming time (50 ns)
	TCL            mem.Cycles // CAS latency, memory cycles
	TWL            mem.Cycles // write latency (CAS-to-data), memory cycles
	TWTR           mem.Cycles // write-to-read turnaround
	TBurst         mem.Cycles // data burst length in memory cycles (BL8 on DDR = 4)
}

// WriteLatency returns the effective cell write time: differential
// writes program SET and RESET bits concurrently, so the slower of the
// two present transitions dominates.
func (t PCMTiming) WriteLatency(anySet, anyReset bool) sim.Time {
	switch {
	case anySet:
		return t.CellSET.Time()
	case anyReset:
		return t.CellRESET.Time()
	default:
		return 0
	}
}

// DCAWriteLatency returns the content-aware cell write time (the
// RWoW-DCA variant): SET bits program in rounds of ceil(64/rounds) bits
// each, so a word with few SET transitions finishes in a fraction of
// the worst-case CellSET time, while RESET bits complete in one
// CellRESET pulse concurrently. A fully-SET word (64 bits over `rounds`
// rounds) costs exactly CellSET, so DCA never exceeds the baseline
// WriteLatency; a word with no transitions costs nothing.
func (t PCMTiming) DCAWriteLatency(sets, resets, rounds int) sim.Time {
	var prog sim.Time
	if sets > 0 {
		bitsPerRound := (64 + rounds - 1) / rounds
		n := (sets + bitsPerRound - 1) / bitsPerRound
		prog = (t.CellSET.Time() / sim.Time(rounds)).Times(n)
	}
	if resets > 0 {
		if r := t.CellRESET.Time(); r > prog {
			prog = r
		}
	}
	return prog
}

// Memory configures the PCM main memory and its controllers.
type Memory struct {
	Channels      int // independent controllers/channels
	DataChips     int // x8 data chips per rank (8)
	BanksPerChip  int
	RowBytes      int64 // row-buffer size per bank across the rank (8 KB)
	CapacityBytes int64 // total main-memory capacity

	ReadQueueCap  int     // per-channel read queue entries
	WriteQueueCap int     // per-channel write queue entries
	DrainHighPct  float64 // start draining writes above this occupancy
	DrainLowPct   float64 // stop draining below this occupancy

	Timing PCMTiming

	// StatusPollCycles is the cost (memory cycles) of the Status command
	// that reads the DIMM register's per-chip busy flags (Section IV-D).
	StatusPollCycles mem.Cycles

	// PowerSlots bounds how many chip-words a rank may program
	// concurrently (PCM writes are power-hungry; Section III-A2). A
	// coarse baseline write reserves the whole budget; a fine-grained
	// write reserves one slot per word it programs (data + ECC + PCC),
	// which is what lets WoW consolidate writes within the same budget.
	PowerSlots int

	// MaxConcurrentWrites bounds how many fine-grained writes the WoW
	// scheduler keeps in service per rank at once. The DIMM-register
	// status tracking and the controller's partial-write bookkeeping
	// are sized for a small number of overlapped writes; two matches
	// the paper's reported write-throughput gains (Figure 9).
	MaxConcurrentWrites int

	// WritePausing enables the related-work comparator (Qureshi et
	// al., HPCA 2010) on the Baseline variant: an in-service coarse
	// write may pause at segment boundaries to let pending reads
	// through, then resume. PCMap's RoW is evaluated against it.
	WritePausing bool

	// WearLevelPsi enables Start-Gap wear leveling (Qureshi et al.,
	// MICRO 2009 — the scheme the paper cites as orthogonal) when
	// non-zero: the gap moves after every Psi writes, costing one line
	// copy each time. Zero disables remapping.
	WearLevelPsi uint64

	// Partitions is the number of independently schedulable partitions
	// each PCM bank divides into for the PALP variant (partition-level
	// access parallelism). Must be a power of two >= 1 (4 by default).
	// Variants without the PartitionRoW feature ignore it — their banks
	// stay monolithic.
	Partitions int

	// DCARounds is the number of programming rounds a fully-SET word
	// divides into under the content-aware (RWoW-DCA) write path: each
	// round programs ceil(64/DCARounds) SET bits in CellSET/DCARounds
	// time. Must lie in [1,64] (8 by default). Variants without the
	// ContentAware feature ignore it.
	DCARounds int

	// RoWMultiWord enables the Section IV-B4 extension: applying RoW to
	// writes with more than one essential word by splitting them into a
	// series of single-word partial writes. The paper's evaluation keeps
	// this off; we implement it for the ablation benches.
	RoWMultiWord bool

	// BitErrorRate is the probability that a stored 64-bit word has a
	// single-bit fault when read back (used for the Table IV rollback
	// study; zero by default).
	BitErrorRate float64

	// FaultMode controls the Table IV experiment: "" (use BitErrorRate),
	// "always" (every RoW verification fails), "never" (verification
	// always succeeds).
	FaultMode string

	// EnduranceBudget enables endurance wearout injection when non-zero:
	// once a stored 64-bit word has been programmed more than this many
	// times, each further programming operation permanently sticks one
	// additional cell of that word (see internal/pcm.FaultModel). Zero
	// means perfect cells.
	EnduranceBudget uint64
	// DriftProb is the per-read probability that resistance drift flips
	// one stored bit of the accessed line. The flip corrupts stored
	// bytes and persists until reprogrammed. Zero disables drift.
	DriftProb float64
	// VerifyWrites enables the program-and-verify write path: after
	// programming, the controller reads the target words back, retries
	// mismatched words up to WriteRetryLimit times, and remaps lines
	// whose cells no longer program to the spare-line pool. Off by
	// default; when off, the write path is bit-identical to a
	// controller without the verify machinery.
	VerifyWrites bool
	// WriteRetryLimit bounds the re-program attempts of the verify path
	// before the line is remapped to a spare.
	WriteRetryLimit int
	// SpareLines is the per-channel spare-line pool available for
	// remapping worn-out lines. When exhausted, failed writes complete
	// degraded (reads rely on SECDED/PCC) and a metric counts the
	// shortfall.
	SpareLines int
}

// LineBytes is the cache-line/transfer granularity (64 B everywhere).
const LineBytes = ecc.LineBytes

// Config is the root configuration.
type Config struct {
	Cores int
	Core  Core
	L1D   CacheLevel
	L2    CacheLevel
	// L2MSHRs bounds the distinct lines the L2 may have in flight to
	// memory; a miss beyond it stalls its core until a fetch lands.
	L2MSHRs int
	DRAMLLC CacheLevel
	// LLCBanks is the DRAM LLC's NUCA bank count, used for access
	// contention. Must be a power of two (the bank index is the line
	// number's low bits masked).
	LLCBanks int
	NoC      NoC
	Memory   Memory
	Variant  Variant
	Seed     uint64
}

// Default returns the Table I configuration.
func Default() *Config {
	return &Config{
		Cores: 8,
		Core: Core{
			IssueWidth:  4,
			WindowSize:  192,
			DataMSHRs:   32,
			RollbackPen: 300,
		},
		L1D:      CacheLevel{SizeBytes: 32 << 10, Ways: 2, LineBytes: 32, HitCycles: 1},
		L2:       CacheLevel{SizeBytes: 8 << 20, Ways: 8, LineBytes: 64, HitCycles: 7},
		L2MSHRs:  32,
		DRAMLLC:  CacheLevel{SizeBytes: 256 << 20, Ways: 8, LineBytes: 64, HitCycles: 100},
		LLCBanks: 8,
		NoC:      NoC{Rows: 2, Cols: 4, RouterCycles: 1, LinkCycles: 1, FlitBytes: 16},
		Memory: Memory{
			Channels:            4,
			DataChips:           8,
			BanksPerChip:        8,
			RowBytes:            8 << 10,
			CapacityBytes:       8 << 30,
			ReadQueueCap:        8,
			WriteQueueCap:       32,
			DrainHighPct:        0.8,
			DrainLowPct:         0.25,
			StatusPollCycles:    2,
			PowerSlots:          8,
			MaxConcurrentWrites: 2,
			Partitions:          4,
			DCARounds:           8,
			WriteRetryLimit:     3,
			SpareLines:          64,
			Timing: PCMTiming{
				ArrayRead:      mem.PicosFromNS(60),
				WriteArrayRead: mem.PicosFromNS(60),
				CellSET:        mem.PicosFromNS(120),
				CellRESET:      mem.PicosFromNS(50),
				TCL:            5,
				TWL:            4,
				TWTR:           4,
				TBurst:         4,
			},
		},
		Variant: Baseline,
		Seed:    1,
	}
}

// WithVariant returns a shallow copy of c with the variant replaced.
func (c *Config) WithVariant(v Variant) *Config {
	out := *c
	out.Variant = v
	return &out
}

// MaxCores is the most cores a machine may have: the coherence
// directory keeps a line's sharers in a uint16, one bit per core.
const MaxCores = 16

// MaxNoCNodes is the most nodes the mesh may have, four per core at
// MaxCores: the mesh precomputes the route of every node pair and
// names each directed link of a route in a byte.
const MaxNoCNodes = 64

// MaxCacheLines is the most lines a cache level may hold (the Table I
// LLC's 256 MB of 64-byte lines): a cache set's header locates its
// further ways with a 24-bit pool offset, and a level of at most 2^22
// lines never carves more than 2^24 pool slots.
const MaxCacheLines = 1 << 22

// RangeError reports a configuration value beyond what the simulator's
// line-keyed tables and masks can represent.
type RangeError struct {
	Field string // the configuration field, e.g. "Cores"
	Value int64
	Max   int64 // the largest accepted value
}

func (e *RangeError) Error() string {
	return fmt.Sprintf("config: %s %d exceeds the supported maximum %d", e.Field, e.Value, e.Max)
}

// NegativeError reports a latency configured below zero.
type NegativeError struct {
	Field string // the configuration field, e.g. "L2.HitCycles"
	Value int64
}

func (e *NegativeError) Error() string {
	return fmt.Sprintf("config: %s %d must not be negative", e.Field, e.Value)
}

// Validate checks internal consistency and returns a descriptive error
// for the first violated constraint.
func (c *Config) Validate() error {
	// The address map checks the memory geometry: power-of-two channel
	// and bank counts, rows of a power-of-two line count, room for a row.
	if _, err := mem.NewAddrMap(c.Memory.Geometry()); err != nil {
		return err
	}
	for _, l := range []struct {
		field string
		v     int64
	}{
		{"L1D.HitCycles", int64(c.L1D.HitCycles)},
		{"L2.HitCycles", int64(c.L2.HitCycles)},
		{"DRAMLLC.HitCycles", int64(c.DRAMLLC.HitCycles)},
		{"NoC.RouterCycles", int64(c.NoC.RouterCycles)},
		{"NoC.LinkCycles", int64(c.NoC.LinkCycles)},
		{"Core.RollbackPen", int64(c.Core.RollbackPen)},
		{"Memory.StatusPollCycles", int64(c.Memory.StatusPollCycles.Int())},
		{"Memory.Timing.TCL", int64(c.Memory.Timing.TCL.Int())},
		{"Memory.Timing.TWL", int64(c.Memory.Timing.TWL.Int())},
		{"Memory.Timing.TWTR", int64(c.Memory.Timing.TWTR.Int())},
		{"Memory.Timing.TBurst", int64(c.Memory.Timing.TBurst.Int())},
	} {
		if l.v < 0 {
			return &NegativeError{Field: l.field, Value: l.v}
		}
	}
	switch {
	case c.Cores <= 0:
		return fmt.Errorf("config: Cores must be positive, got %d", c.Cores)
	case c.Cores > MaxCores:
		return &RangeError{Field: "Cores", Value: int64(c.Cores), Max: MaxCores}
	case c.Core.IssueWidth <= 0:
		return fmt.Errorf("config: IssueWidth must be positive, got %d", c.Core.IssueWidth)
	case c.Core.WindowSize <= 0:
		return fmt.Errorf("config: WindowSize must be positive, got %d", c.Core.WindowSize)
	case c.Core.DataMSHRs <= 0:
		return fmt.Errorf("config: DataMSHRs must be positive, got %d", c.Core.DataMSHRs)
	case c.L2MSHRs <= 0:
		return fmt.Errorf("config: L2MSHRs must be positive, got %d", c.L2MSHRs)
	case c.NoC.FlitBytes <= 0:
		return fmt.Errorf("config: NoC FlitBytes must be positive, got %d", c.NoC.FlitBytes)
	case c.Memory.ReadQueueCap <= 0 || c.Memory.WriteQueueCap <= 0:
		return fmt.Errorf("config: ReadQueueCap %d and WriteQueueCap %d must be positive", c.Memory.ReadQueueCap, c.Memory.WriteQueueCap)
	case c.Memory.MaxConcurrentWrites <= 0:
		return fmt.Errorf("config: MaxConcurrentWrites must be positive, got %d", c.Memory.MaxConcurrentWrites)
	case c.Memory.DataChips != ecc.WordsPerLine:
		return fmt.Errorf("config: DataChips must equal %d (one 8B word per chip), got %d", ecc.WordsPerLine, c.Memory.DataChips)
	case c.Memory.CapacityBytes%int64(c.Memory.Channels) != 0:
		return fmt.Errorf("config: capacity %d not divisible by %d channels", c.Memory.CapacityBytes, c.Memory.Channels)
	case !(c.Memory.DrainHighPct > c.Memory.DrainLowPct):
		return fmt.Errorf("config: DrainHighPct %.2f must exceed DrainLowPct %.2f", c.Memory.DrainHighPct, c.Memory.DrainLowPct)
	case !(c.Memory.DrainLowPct >= 0 && c.Memory.DrainHighPct <= 1):
		return fmt.Errorf("config: drain thresholds must lie in [0,1]")
	case c.Memory.Timing.ArrayRead <= 0 || c.Memory.Timing.WriteArrayRead <= 0 ||
		c.Memory.Timing.CellSET <= 0 || c.Memory.Timing.CellRESET <= 0:
		return fmt.Errorf("config: PCM cell timings must be positive")
	case c.L2.LineBytes != LineBytes || c.DRAMLLC.LineBytes != LineBytes:
		return fmt.Errorf("config: L2 and DRAM LLC line size must be %d bytes", LineBytes)
	case c.L1D.LineBytes != LineBytes/2:
		// The hierarchy's store invalidation, L2-victim shootdown and
		// L1-victim sharer test each assume two L1 lines per 64-byte
		// coherence unit.
		return fmt.Errorf("config: L1D.LineBytes must be %d, half a %d-byte coherence unit, got %d", LineBytes/2, LineBytes, c.L1D.LineBytes)
	case c.NoC.Rows <= 0 || c.NoC.Cols <= 0:
		return fmt.Errorf("config: NoC %dx%d must have positive dimensions", c.NoC.Rows, c.NoC.Cols)
	case c.NoC.Rows > MaxNoCNodes || c.NoC.Cols > MaxNoCNodes || c.NoC.Rows*c.NoC.Cols > MaxNoCNodes:
		return &RangeError{Field: "NoC.Rows*NoC.Cols", Value: int64(c.NoC.Rows) * int64(c.NoC.Cols), Max: MaxNoCNodes}
	case c.NoC.Rows*c.NoC.Cols < c.Cores:
		return fmt.Errorf("config: NoC %dx%d too small for %d cores", c.NoC.Rows, c.NoC.Cols, c.Cores)
	case !(c.Memory.DriftProb >= 0 && c.Memory.DriftProb < 1):
		return fmt.Errorf("config: DriftProb %g must lie in [0,1)", c.Memory.DriftProb)
	case !(c.Memory.BitErrorRate >= 0 && c.Memory.BitErrorRate < 1):
		return fmt.Errorf("config: BitErrorRate %g must lie in [0,1)", c.Memory.BitErrorRate)
	case c.Memory.WriteRetryLimit < 0:
		return fmt.Errorf("config: WriteRetryLimit must be non-negative, got %d", c.Memory.WriteRetryLimit)
	case c.Memory.SpareLines < 0:
		return fmt.Errorf("config: SpareLines must be non-negative, got %d", c.Memory.SpareLines)
	case c.Memory.SpareLines > flat.MaxLine:
		return &RangeError{Field: "Memory.SpareLines", Value: int64(c.Memory.SpareLines), Max: flat.MaxLine}
	case c.Memory.CapacityBytes > c.Memory.maxCapacityBytes():
		return &RangeError{Field: "Memory.CapacityBytes", Value: c.Memory.CapacityBytes, Max: c.Memory.maxCapacityBytes()}
	case c.Memory.FaultMode != "" && c.Memory.FaultMode != "always" && c.Memory.FaultMode != "never":
		return fmt.Errorf("config: FaultMode %q must be \"\", \"always\" or \"never\"", c.Memory.FaultMode)
	}
	for _, lvl := range []struct {
		name string
		l    CacheLevel
	}{{"L1D", c.L1D}, {"L2", c.L2}, {"DRAMLLC", c.DRAMLLC}} {
		if lvl.l.SizeBytes <= 0 || lvl.l.Ways <= 0 || lvl.l.LineBytes <= 0 {
			return fmt.Errorf("config: %s has non-positive geometry", lvl.name)
		}
		if maxBytes := MaxCacheLines * int64(lvl.l.LineBytes); lvl.l.SizeBytes > maxBytes {
			return &RangeError{Field: lvl.name + ".SizeBytes", Value: lvl.l.SizeBytes, Max: maxBytes}
		}
		if lvl.l.Ways > 255 {
			// A cache slot stores its recency rank in a byte.
			return fmt.Errorf("config: %s has %d ways, at most 255 are supported", lvl.name, lvl.l.Ways)
		}
		if lb := lvl.l.LineBytes; lb&(lb-1) != 0 {
			return fmt.Errorf("config: %s line size %d bytes is not a power of two", lvl.name, lb)
		}
		sets := lvl.l.SizeBytes / int64(lvl.l.Ways*lvl.l.LineBytes)
		if sets <= 0 || sets&(sets-1) != 0 {
			return fmt.Errorf("config: %s set count %d is not a power of two", lvl.name, sets)
		}
	}
	if b := c.LLCBanks; b < 1 || b&(b-1) != 0 {
		return fmt.Errorf("config: LLCBanks must be a power of two >= 1, got %d", b)
	}
	if !c.Variant.Known() {
		return fmt.Errorf("config: unknown variant %d (registered: %s)", int(c.Variant), strings.Join(VariantNames(), ", "))
	}
	if p := c.Memory.Partitions; p < 1 || p&(p-1) != 0 {
		return fmt.Errorf("config: Partitions must be a power of two >= 1, got %d", p)
	}
	if r := c.Memory.DCARounds; r < 1 || r > 64 {
		return fmt.Errorf("config: DCARounds must lie in [1,64], got %d", r)
	}
	return nil
}

// maxCapacityBytes is the largest capacity whose every PCM store line
// number takes a flat.Key: a channel's store holds its own lines, the
// Start-Gap spare line after them and the spare pool from the same
// index on. SpareLines must lie in [0, flat.MaxLine] and Channels must
// be positive.
func (m Memory) maxCapacityBytes() int64 {
	lines := int64(flat.MaxLine) + 1 - int64(max(m.SpareLines, 1))
	if int64(m.Channels) > math.MaxInt64/LineBytes/lines {
		return math.MaxInt64
	}
	return lines * LineBytes * int64(m.Channels)
}

// EffectivePartitions resolves the per-bank partition count the given
// features ask for: Memory.Partitions under PartitionRoW, otherwise 1
// (monolithic banks).
func (m Memory) EffectivePartitions(f Features) int {
	if !f.PartitionRoW {
		return 1
	}
	return m.Partitions
}

// Geometry returns the memory shape the address map needs.
func (m Memory) Geometry() mem.Geometry {
	return mem.Geometry{
		Channels:      m.Channels,
		Banks:         m.BanksPerChip,
		RowBytes:      m.RowBytes,
		CapacityBytes: m.CapacityBytes,
	}
}

// WriteToReadRatio returns the current cell write-to-read latency ratio
// (the paper's default is 2x: 120 ns SET over 60 ns read). The ratio is
// taken at engine-tick granularity, the resolution the simulation
// actually observes.
func (m Memory) WriteToReadRatio() float64 {
	return float64(m.Timing.CellSET.Time().Ticks()) / float64(m.Timing.ArrayRead.Time().Ticks())
}

// maxReadTicks bounds the read time a write-to-read ratio may resolve
// to: the largest tick count whose picosecond value fits in mem.Picos.
const maxReadTicks = math.MaxInt64 / 100

// CheckWriteToReadRatio reports whether SetWriteToReadRatio can apply
// ratio exactly. The ratio must be finite and positive, and the read
// time it resolves to must be at least one engine tick and fit in
// mem.Picos, so no clamping or overflow ever changes the machine asked
// for. Every caller that accepts a ratio from outside checks it here.
func (m Memory) CheckWriteToReadRatio(ratio float64) error {
	t := float64(m.Timing.CellSET.Time().Ticks()) / ratio
	if !(ratio > 0 && t >= 1 && t <= maxReadTicks) {
		return fmt.Errorf("write-to-read ratio %g must be positive and give a representable read time of at least one %v tick", ratio, sim.Tick)
	}
	return nil
}

// SetWriteToReadRatio fixes the write latency at its current value and
// adjusts the read latency so that write/read equals ratio, mirroring
// the Table III sensitivity study. The result is computed in engine
// ticks and floored, matching the resolution the timing model uses.
// It panics on a ratio CheckWriteToReadRatio rejects.
func (m *Memory) SetWriteToReadRatio(ratio float64) {
	if err := m.CheckWriteToReadRatio(ratio); err != nil {
		panic("config: " + err.Error())
	}
	m.Timing.ArrayRead = mem.PicosOf(sim.Time(float64(m.Timing.CellSET.Time().Ticks()) / ratio))
}
