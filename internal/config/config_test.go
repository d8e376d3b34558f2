package config

import (
	"errors"
	"math"
	"strings"
	"testing"

	"pcmap/internal/flat"
	"pcmap/internal/mem"
	"pcmap/internal/sim"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestVariantFlags(t *testing.T) {
	cases := []struct {
		v                        Variant
		row, wow, rotD, rotE, fg bool
	}{
		{Baseline, false, false, false, false, false},
		{RoWNR, true, false, false, false, true},
		{WoWNR, false, true, false, false, true},
		{RWoWNR, true, true, false, false, true},
		{RWoWRD, true, true, true, false, true},
		{RWoWRDE, true, true, true, true, true},
	}
	for _, c := range cases {
		want := Features{RoW: c.row, WoW: c.wow, RotateData: c.rotD, RotateECC: c.rotE, FineGrained: c.fg}
		if got := c.v.Features(); got != want {
			t.Fatalf("variant %s has capabilities %+v, want %+v", c.v, got, want)
		}
	}
}

func TestVariantStrings(t *testing.T) {
	want := []string{"Baseline", "RoW-NR", "WoW-NR", "RWoW-NR", "RWoW-RD", "RWoW-RDE"}
	for i, v := range Variants {
		if v.String() != want[i] {
			t.Fatalf("variant %d prints %q, want %q", i, v.String(), want[i])
		}
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero cores", func(c *Config) { c.Cores = 0 }},
		{"bad chips", func(c *Config) { c.Memory.DataChips = 4 }},
		{"drain order", func(c *Config) { c.Memory.DrainHighPct = 0.1 }},
		{"odd cache sets", func(c *Config) { c.L2.SizeBytes = 3 << 20 }},
		{"line size", func(c *Config) { c.L2.LineBytes = 32 }},
		{"noc too small", func(c *Config) { c.NoC.Rows, c.NoC.Cols = 1, 2 }},
		{"zero timing", func(c *Config) { c.Memory.Timing.CellSET = 0 }},
		{"capacity split", func(c *Config) { c.Memory.CapacityBytes = (8 << 30) + 1; c.Memory.Channels = 2 }},
		{"too many ways", func(c *Config) { c.L2.Ways, c.L2.SizeBytes = 256, 256*64*512 }},
		{"odd line size", func(c *Config) { c.L1D.LineBytes, c.L1D.SizeBytes = 48, 2*48*512 }},
		{"zero partitions", func(c *Config) { c.Memory.Partitions = 0 }},
		{"zero DCA rounds", func(c *Config) { c.Memory.DCARounds = 0 }},
		{"NaN drift", func(c *Config) { c.Memory.DriftProb = math.NaN() }},
		{"NaN bit error rate", func(c *Config) { c.Memory.BitErrorRate = math.NaN() }},
		{"NaN drain high", func(c *Config) { c.Memory.DrainHighPct = math.NaN() }},
		{"NaN drain low", func(c *Config) { c.Memory.DrainLowPct = math.NaN() }},
		{"zero flit size", func(c *Config) { c.NoC.FlitBytes = 0 }},
		{"zero core MSHRs", func(c *Config) { c.Core.DataMSHRs = 0 }},
		{"zero L2 MSHRs", func(c *Config) { c.L2MSHRs = 0 }},
		{"zero read queue", func(c *Config) { c.Memory.ReadQueueCap = 0 }},
		{"zero write queue", func(c *Config) { c.Memory.WriteQueueCap = 0 }},
		{"zero concurrent writes", func(c *Config) { c.Memory.MaxConcurrentWrites = 0 }},
		// A "negative F" row must fail with a NegativeError on field F.
		{"negative L1D.HitCycles", func(c *Config) { c.L1D.HitCycles = -1 }},
		{"negative L2.HitCycles", func(c *Config) { c.L2.HitCycles = -100 }},
		{"negative DRAMLLC.HitCycles", func(c *Config) { c.DRAMLLC.HitCycles = -1 }},
		{"negative NoC.RouterCycles", func(c *Config) { c.NoC.RouterCycles = -5 }},
		{"negative NoC.LinkCycles", func(c *Config) { c.NoC.LinkCycles = -1 }},
		{"negative Core.RollbackPen", func(c *Config) { c.Core.RollbackPen = -1 }},
		{"negative Memory.StatusPollCycles", func(c *Config) { c.Memory.StatusPollCycles = -2 }},
		{"negative Memory.Timing.TCL", func(c *Config) { c.Memory.Timing.TCL = -1 }},
		{"negative Memory.Timing.TWL", func(c *Config) { c.Memory.Timing.TWL = -1 }},
		{"negative Memory.Timing.TWTR", func(c *Config) { c.Memory.Timing.TWTR = -1 }},
		{"negative Memory.Timing.TBurst", func(c *Config) { c.Memory.Timing.TBurst = -4 }},
		// A "geometry" row must fail with the address map's own error.
		{"geometry: 3 banks", func(c *Config) { c.Memory.BanksPerChip = 3 }},
		{"geometry: 3 channels", func(c *Config) { c.Memory.Channels, c.Memory.CapacityBytes = 3, 3<<32 }},
		{"geometry: zero row size", func(c *Config) { c.Memory.RowBytes = 0 }},
		{"geometry: zero capacity", func(c *Config) { c.Memory.CapacityBytes = 0 }},
		{"geometry: zero channels", func(c *Config) { c.Memory.Channels = 0 }},
		{"geometry: zero banks", func(c *Config) { c.Memory.BanksPerChip = 0 }},
		// Channels × banks × row bytes overflows int64 to 0 here.
		{"geometry: overflowing row count", func(c *Config) { c.Memory.Channels, c.Memory.BanksPerChip = 1<<32, 1<<32 }},
	}
	for _, m := range mutations {
		c := Default()
		m.mut(c)
		err := c.Validate()
		if err == nil {
			t.Fatalf("%s: expected validation error", m.name)
		}
		if field, ok := strings.CutPrefix(m.name, "negative "); ok {
			var ne *NegativeError
			if !errors.As(err, &ne) || ne.Field != field {
				t.Fatalf("%s: got %v, want a NegativeError on %s", m.name, err, field)
			}
		}
		if strings.HasPrefix(m.name, "geometry") {
			_, want := mem.NewAddrMap(c.Memory.Geometry())
			if want == nil || err.Error() != want.Error() {
				t.Fatalf("%s: got %v, want the address map's error %v", m.name, err, want)
			}
		}
	}
}

// TestValidateRangeLimits pins the typed errors for values the
// simulator's tables cannot represent: more cores than the directory's
// sharer mask has bits, and a capacity or spare pool whose line
// numbers overflow a flat.Key.
func TestValidateRangeLimits(t *testing.T) {
	c := Default()
	c.Cores, c.NoC.Rows, c.NoC.Cols = MaxCores, 4, 4
	if err := c.Validate(); err != nil {
		t.Fatalf("%d cores rejected: %v", MaxCores, err)
	}
	wantRange := func(name, field string, err error) {
		t.Helper()
		var re *RangeError
		if !errors.As(err, &re) || re.Field != field {
			t.Fatalf("%s: got %v, want a RangeError on %s", name, err, field)
		}
	}
	c.Cores, c.NoC.Rows = MaxCores+1, 5
	wantRange("17 cores", "Cores", c.Validate())

	c = Default()
	c.Memory.CapacityBytes = c.Memory.maxCapacityBytes()
	if err := c.Validate(); err != nil {
		t.Fatalf("largest capacity rejected: %v", err)
	}
	c.Memory.CapacityBytes += int64(c.Memory.Channels) * LineBytes
	wantRange("capacity past the key range", "Memory.CapacityBytes", c.Validate())

	c = Default()
	c.Memory.SpareLines = flat.MaxLine + 1
	wantRange("spare pool past the key range", "Memory.SpareLines", c.Validate())
}

func TestWithVariantCopies(t *testing.T) {
	base := Default()
	v := base.WithVariant(RWoWRDE)
	if base.Variant != Baseline || v.Variant != RWoWRDE {
		t.Fatal("WithVariant must not mutate the receiver")
	}
}

func TestWriteLatencySelection(t *testing.T) {
	tm := Default().Memory.Timing
	if got := tm.WriteLatency(true, true); got != tm.CellSET.Time() {
		t.Fatalf("SET should dominate, got %v", got)
	}
	if got := tm.WriteLatency(false, true); got != tm.CellRESET.Time() {
		t.Fatalf("RESET-only write, got %v", got)
	}
	if got := tm.WriteLatency(false, false); got != 0 {
		t.Fatalf("no-flip write should be free, got %v", got)
	}
}

func TestWriteToReadRatio(t *testing.T) {
	m := Default().Memory
	if got := m.WriteToReadRatio(); got != 2 {
		t.Fatalf("default ratio %v, want 2 (120ns/60ns)", got)
	}
	for _, ratio := range []float64{2, 4, 6, 8} {
		m.SetWriteToReadRatio(ratio)
		if m.Timing.CellSET != mem.PicosFromNS(120) {
			t.Fatal("write latency must stay fixed in the Table III sweep")
		}
		got := m.WriteToReadRatio()
		if got < ratio*0.99 || got > ratio*1.01 {
			t.Fatalf("ratio %v after set %v", got, ratio)
		}
	}
}

// TestCheckWriteToReadRatio pins the one ratio check every entry point
// shares: only ratios that resolve exactly, to a read time of at least
// one tick, are accepted.
func TestCheckWriteToReadRatio(t *testing.T) {
	m := Default().Memory
	cases := []struct {
		ratio float64
		ok    bool
	}{
		{2, true}, {8, true}, {0.5, true}, {1200, true},
		{0, false}, {-1, false}, {math.NaN(), false}, {math.Inf(1), false},
		{math.Inf(-1), false}, {1201, false}, {1e-30, false},
	}
	for _, tc := range cases {
		if err := m.CheckWriteToReadRatio(tc.ratio); (err == nil) != tc.ok {
			t.Errorf("CheckWriteToReadRatio(%g) = %v, want ok=%v", tc.ratio, err, tc.ok)
		}
	}
}

// TestFeaturesMatchPredicates checks, for every registered variant, that
// its Features obey the dependencies between capabilities: RoW and WoW
// need rank subsetting (a coarse whole-rank write leaves no idle chip to
// read from or write to), ECC rotation extends data rotation, and
// partition-level RoW refines bank-level RoW.
func TestFeaturesMatchPredicates(t *testing.T) {
	for _, v := range AllVariants {
		f := v.Features()
		if (f.RoW || f.WoW) && !f.FineGrained {
			t.Fatalf("%s: RoW/WoW without FineGrained: %+v", v, f)
		}
		if f.RotateECC && !f.RotateData {
			t.Fatalf("%s: RotateECC without RotateData: %+v", v, f)
		}
		if f.PartitionRoW && !f.RoW {
			t.Fatalf("%s: PartitionRoW without RoW: %+v", v, f)
		}
	}
}

// TestVariantRegistry pins the open registry's surface: the canonical
// names (the paper's six are frozen byte-for-byte), name lookup, and
// the Known/String/Features behavior on unregistered values.
func TestVariantRegistry(t *testing.T) {
	want := []string{"Baseline", "RoW-NR", "WoW-NR", "RWoW-NR", "RWoW-RD", "RWoW-RDE", "PALP", "RWoW-DCA"}
	names := VariantNames()
	if len(names) != len(want) {
		t.Fatalf("VariantNames = %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("VariantNames[%d] = %q, want %q", i, names[i], n)
		}
		v, ok := VariantByName(n)
		if !ok || v.String() != n {
			t.Fatalf("VariantByName(%q) = %v, %v", n, v, ok)
		}
		if !v.Known() {
			t.Fatalf("%s must be Known", n)
		}
	}
	if _, ok := VariantByName("nope"); ok {
		t.Fatal("VariantByName must reject unknown names")
	}
	if v, err := ParseVariant("PALP"); err != nil || v != PALP {
		t.Fatalf("ParseVariant(PALP) = %v, %v", v, err)
	}
	if _, err := ParseVariant("nope"); err == nil || !strings.Contains(err.Error(), `unknown variant "nope"`) {
		t.Fatalf("ParseVariant(nope) error = %v", err)
	}
	if got := Variant(99).String(); got != "Variant(99)" {
		t.Fatalf("unknown variant prints %q", got)
	}
	if Variant(99).Known() || Variant(-1).Known() {
		t.Fatal("out-of-range variants must not be Known")
	}
	if f := Variant(99).Features(); f != (Features{}) {
		t.Fatalf("unknown variant must resolve to zero Features, got %+v", f)
	}
	// The paper's sweep list must stay exactly the original six.
	if len(Variants) != 6 || Variants[5] != RWoWRDE {
		t.Fatalf("Variants changed: %v", Variants)
	}
}

// TestFeaturesSummary checks the registry listing's capability text.
func TestFeaturesSummary(t *testing.T) {
	if got := Baseline.Features().Summary(); got != "-" {
		t.Fatalf("Baseline summary = %q", got)
	}
	if got := PALP.Features().Summary(); got != "RoW+WoW+RotateData+RotateECC+FineGrained+PartitionRoW" {
		t.Fatalf("PALP summary = %q", got)
	}
	if got := RWoWDCA.Features().Summary(); got != "RoW+WoW+RotateData+RotateECC+FineGrained+ContentAware" {
		t.Fatalf("RWoW-DCA summary = %q", got)
	}
}

// TestDCAWriteLatency pins the content-aware write-timing model: SET
// bits program in rounds of ceil(64/rounds) bits at CellSET/rounds per
// round, RESET is one concurrent pulse, and the result never exceeds
// the worst-case WriteLatency.
func TestDCAWriteLatency(t *testing.T) {
	tm := Default().Memory.Timing
	set, reset := tm.CellSET.Time(), tm.CellRESET.Time()
	if got := tm.DCAWriteLatency(0, 0, 8); got != 0 {
		t.Fatalf("no transitions must be free, got %v", got)
	}
	if got := tm.DCAWriteLatency(0, 17, 8); got != reset {
		t.Fatalf("RESET-only word = %v, want %v", got, reset)
	}
	if got := tm.DCAWriteLatency(64, 64, 8); got != set {
		t.Fatalf("fully flipped word = %v, want %v", got, set)
	}
	if got := tm.DCAWriteLatency(1, 0, 8); got != set/8 {
		t.Fatalf("one SET bit = %v, want %v", got, set/8)
	}
	// A handful of SET bits with RESETs present: the RESET pulse floors
	// the latency when the SET rounds are quicker.
	if got := tm.DCAWriteLatency(1, 1, 8); got != reset {
		t.Fatalf("1 SET + RESETs = %v, want RESET floor %v", got, reset)
	}
	prev := sim.Time(0)
	for sets := 0; sets <= 64; sets++ {
		d := tm.DCAWriteLatency(sets, 0, 8)
		if d < prev {
			t.Fatalf("DCA latency must be monotone in SET count (sets=%d: %v < %v)", sets, d, prev)
		}
		if d > set {
			t.Fatalf("DCA latency exceeds CellSET at sets=%d: %v", sets, d)
		}
		prev = d
	}
}

// TestPartitionAndDCAValidation covers the new Memory knobs' rules:
// Partitions must be a power of two >= 1, DCARounds within [1, 64],
// and unregistered variants are rejected outright.
func TestPartitionAndDCAValidation(t *testing.T) {
	for _, parts := range []int{1, 2, 4, 8, 64} {
		c := Default()
		c.Memory.Partitions = parts
		if err := c.Validate(); err != nil {
			t.Fatalf("Partitions=%d must validate: %v", parts, err)
		}
	}
	for _, parts := range []int{-1, 0, 3, 5, 6, 7, 12} {
		c := Default()
		c.Memory.Partitions = parts
		if err := c.Validate(); err == nil {
			t.Fatalf("Partitions=%d must be rejected", parts)
		}
	}
	for _, rounds := range []int{-1, 0, 65, 1000} {
		c := Default()
		c.Memory.DCARounds = rounds
		if err := c.Validate(); err == nil {
			t.Fatalf("DCARounds=%d must be rejected", rounds)
		}
	}
	c := Default()
	c.Variant = Variant(42)
	if err := c.Validate(); err == nil {
		t.Fatal("unregistered variant must be rejected")
	}
}

// TestEffectivePartitions checks the resolution from the Partitions
// knob plus variant capability to the partition count the scheduler
// uses.
func TestEffectivePartitions(t *testing.T) {
	m := Default().Memory
	if got := m.EffectivePartitions(RWoWRDE.Features()); got != 1 {
		t.Fatalf("non-partitioned variant must get 1 partition, got %d", got)
	}
	if got := m.EffectivePartitions(PALP.Features()); got != 4 {
		t.Fatalf("PALP with default knob must get 4 partitions, got %d", got)
	}
	m.Partitions = 8
	if got := m.EffectivePartitions(PALP.Features()); got != 8 {
		t.Fatalf("PALP with Partitions=8 must get 8, got %d", got)
	}
	if got := m.EffectivePartitions(RWoWRDE.Features()); got != 1 {
		t.Fatalf("non-partitioned variant must ignore Partitions=8, got %d", got)
	}
}
