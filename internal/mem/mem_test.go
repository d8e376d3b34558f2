package mem

import (
	"reflect"
	"testing"
	"testing/quick"

	"pcmap/internal/sim"
	"pcmap/internal/stats"
)

// defaultGeometry mirrors config.Default().Memory's shape (Table I).
// Spelled out locally because mem cannot import config: config depends
// on this package for its unit types.
func defaultGeometry() Geometry {
	return Geometry{Channels: 4, Banks: 8, RowBytes: 8 << 10, CapacityBytes: 8 << 30}
}

func TestAddrMapRoundTrip(t *testing.T) {
	a, err := NewAddrMap(defaultGeometry())
	if err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(func(raw uint64) bool {
		addr := (raw % (8 << 30)) &^ 63 // line-aligned, in capacity
		c := a.Decode(addr)
		return a.Encode(c) == addr
	}, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// refDecode is Decode in its modulo form: every field split off the
// line number by division.
func refDecode(a *AddrMap, addr uint64) Coord {
	line := addr >> 6
	var c Coord
	c.Channel = int(line % uint64(a.Channels))
	line /= uint64(a.Channels)
	c.Col = int(line % uint64(a.linesPerRow))
	line /= uint64(a.linesPerRow)
	c.Bank = int(line % uint64(a.Banks))
	line /= uint64(a.Banks)
	c.Row = int64(line % uint64(a.rows))
	c.LineIdx = (uint64(c.Row)*uint64(a.Banks)+uint64(c.Bank))*uint64(a.linesPerRow) + uint64(c.Col)
	c.RotIdx = uint64(c.Row)*uint64(a.linesPerRow) + uint64(c.Col)
	return c
}

// TestAddrMapDecodeMatchesModulo holds Decode, whose row wrap is a mask
// when the row count is a power of two, and Channel to the modulo form,
// on the Table I geometry (32,768 rows a bank) and a 6 GB one (24,576),
// over addresses inside and far beyond the capacity; Encode inverts
// Decode inside it.
func TestAddrMapDecodeMatchesModulo(t *testing.T) {
	six := defaultGeometry()
	six.CapacityBytes = 6 << 30
	for _, g := range []Geometry{defaultGeometry(), six} {
		a, err := NewAddrMap(g)
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(35)
		for i := 0; i < 200_000; i++ {
			addr := rng.Uint64()
			if i%2 == 0 {
				addr %= uint64(g.CapacityBytes)
			}
			addr &^= 63
			c := a.Decode(addr)
			if want := refDecode(a, addr); c != want {
				t.Fatalf("%d rows: Decode(%#x) = %+v, modulo form %+v", a.Rows(), addr, c, want)
			}
			if ch := a.Channel(addr); ch != c.Channel {
				t.Fatalf("%d rows: Channel(%#x) = %d, Decode's %d", a.Rows(), addr, ch, c.Channel)
			}
			if addr < uint64(g.CapacityBytes) && a.Encode(c) != addr {
				t.Fatalf("%d rows: Encode(Decode(%#x)) = %#x", a.Rows(), addr, a.Encode(c))
			}
		}
	}
}

func TestAddrMapChannelInterleave(t *testing.T) {
	a, _ := NewAddrMap(defaultGeometry())
	for i := uint64(0); i < 16; i++ {
		c := a.Decode(i * 64)
		if c.Channel != int(i%4) {
			t.Fatalf("line %d on channel %d, want %d", i, c.Channel, i%4)
		}
	}
}

func TestAddrMapRowLocality(t *testing.T) {
	a, _ := NewAddrMap(defaultGeometry())
	// Consecutive channel-local lines (stride = 4 lines) share a row
	// until the column bits wrap.
	base := a.Decode(0)
	for i := uint64(1); i < uint64(a.LinesPerRow()); i++ {
		c := a.Decode(i * 64 * 4)
		if c.Channel != base.Channel || c.Bank != base.Bank || c.Row != base.Row {
			t.Fatalf("channel-local line %d left the row: %+v vs %+v", i, c, base)
		}
		if c.Col != int(i) {
			t.Fatalf("column %d, want %d", c.Col, i)
		}
	}
	next := a.Decode(uint64(a.LinesPerRow()) * 64 * 4)
	if next.Bank == base.Bank && next.Row == base.Row {
		t.Fatal("row should change after LinesPerRow channel-local lines")
	}
}

func TestAddrMapRotIdxStrides(t *testing.T) {
	a, _ := NewAddrMap(defaultGeometry())
	// Successive channel-local lines must get successive rotation
	// indices so all 8 (and 10) rotation offsets occur.
	seen8 := map[uint64]bool{}
	seen10 := map[uint64]bool{}
	for i := uint64(0); i < 40; i++ {
		c := a.Decode(i * 64 * 4)
		seen8[c.RotIdx%8] = true
		seen10[c.RotIdx%10] = true
	}
	if len(seen8) != 8 || len(seen10) != 10 {
		t.Fatalf("rotation offsets covered: mod8=%d mod10=%d", len(seen8), len(seen10))
	}
}

func TestAddrMapUniqueLineIdx(t *testing.T) {
	a, _ := NewAddrMap(defaultGeometry())
	seen := map[uint64]uint64{}
	for i := uint64(0); i < 100000; i++ {
		addr := i * 64
		c := a.Decode(addr)
		key := uint64(c.Channel)<<60 | c.LineIdx
		if prev, ok := seen[key]; ok {
			t.Fatalf("addresses %#x and %#x collide on channel-local line index", prev, addr)
		}
		seen[key] = addr
	}
}

func TestAddrMapRejectsBadGeometry(t *testing.T) {
	g := defaultGeometry()
	g.Channels = 3
	if _, err := NewAddrMap(g); err == nil {
		t.Fatal("non-power-of-two channels should be rejected")
	}
}

func TestBusSerializesAndTurnsAround(t *testing.T) {
	b := Bus{Turnaround: 10}
	s, e := b.Acquire(100, 40, false)
	if s != 100 || e != 140 {
		t.Fatalf("first acquire [%v,%v)", s, e)
	}
	// Same direction chains without turnaround.
	s, e = b.Acquire(100, 40, false)
	if s != 140 || e != 180 {
		t.Fatalf("second acquire [%v,%v)", s, e)
	}
	// Direction change adds turnaround.
	s, _ = b.Acquire(100, 40, true)
	if s != 190 {
		t.Fatalf("turnaround start %v, want 190", s)
	}
	if b.Busy != 120 {
		t.Fatalf("busy accumulation %v, want 120", b.Busy)
	}
}

func TestBusFirstUseNoTurnaround(t *testing.T) {
	b := Bus{Turnaround: 10}
	if s, _ := b.Acquire(0, 5, true); s != 0 {
		t.Fatalf("first use should not pay turnaround, start %v", s)
	}
}

func TestQueueFRFCFS(t *testing.T) {
	q := NewQueue(8)
	mk := func(addr uint64, arrive sim.Time) *Request {
		return &Request{Kind: Read, Addr: addr, Arrive: arrive}
	}
	r1, r2, r3 := mk(100, 1), mk(200, 2), mk(300, 3)
	for _, r := range []*Request{r1, r2, r3} {
		if !q.Push(r) {
			t.Fatal("push failed")
		}
	}
	rowHit := func(r *Request) (bool, bool) { return r != r1, r == r3 } // r1 blocked
	if got := q.SelectFRFCFS(rowHit); got != r3 {
		t.Fatalf("FR-FCFS should pick the row hit, got %v", got.Addr)
	}
	noHit := func(r *Request) (bool, bool) { return r != r1, false }
	if got := q.SelectFRFCFS(noHit); got != r2 {
		t.Fatalf("without hits, oldest ready wins, got %v", got.Addr)
	}
}

func TestQueueCapacityAndRemove(t *testing.T) {
	q := NewQueue(2)
	a, b, c := &Request{}, &Request{}, &Request{}
	if !q.Push(a) || !q.Push(b) {
		t.Fatal("pushes within capacity must succeed")
	}
	if q.Push(c) {
		t.Fatal("push beyond capacity must fail")
	}
	if q.Occupancy() != 1.0 {
		t.Fatalf("occupancy %v", q.Occupancy())
	}
	q.Remove(a)
	if q.Len() != 1 || q.Oldest(nil) != b {
		t.Fatal("remove should preserve order")
	}
	q.Remove(a) // absent: no-op
	if q.Len() != 1 {
		t.Fatal("removing absent element changed the queue")
	}
}

func TestMetricsMerge(t *testing.T) {
	a, b := NewMetrics(), NewMetrics()
	a.Reads.Add(10)
	b.Reads.Add(5)
	a.ReadLatency.Add(sim.NS(100))
	b.ReadLatency.Add(sim.NS(300))
	a.DirtyWords.Add(1)
	b.DirtyWords.Add(3)
	a.NoteArrival(100)
	b.NoteArrival(50)
	a.NoteDone(500)
	b.NoteDone(900)
	a.Merge(b)
	if a.Reads.Value() != 15 {
		t.Fatalf("merged reads %d", a.Reads.Value())
	}
	if got := a.ReadLatency.MeanNS(); got != 200 {
		t.Fatalf("merged mean latency %v, want 200", got)
	}
	if a.DirtyWords.Total() != 2 {
		t.Fatalf("merged histogram total %d", a.DirtyWords.Total())
	}
	if a.FirstArrival != 50 || a.LastDone != 900 {
		t.Fatalf("window [%v,%v]", a.FirstArrival, a.LastDone)
	}
}

// reportNames is the Counters order that reports and the serve layer's
// sim_<name> rows depend on.
var reportNames = []string{
	"reads", "writes", "silent_writes", "reads_delayed_by_write",
	"row_served", "row_verifies", "row_faulty", "wow_overlapped",
	"overlap_reads", "ecc_corrected", "secded_corrected",
	"secded_check_fixed", "pcc_recovered", "uncorrected_reads",
	"write_verifies", "verify_reads", "write_retries", "write_remaps",
	"remap_failures", "drain_entries", "writeq_stalls", "readq_stalls",
	"status_polls", "wear_moves", "write_pauses", "part_overlap_reads",
	"part_overlap_writes",
}

// TestMetricsCounters checks that the rows read the live counter fields.
func TestMetricsCounters(t *testing.T) {
	m := NewMetrics()
	m.Reads.Add(3)
	m.Writes.Inc()
	m.PartOverlapWrites.Add(7)
	got := m.Counters()
	if got[0].Value != 3 || got[1].Value != 1 || got[len(got)-1].Value != 7 {
		t.Fatalf("Counters() does not read the live fields: %v", got)
	}
	m.Reads.Inc()
	if got := m.Counters()[0].Value; got != 4 {
		t.Fatalf("Counters() after another increment reads %d, want 4", got)
	}
}

// TestMetricsCountersOrder pins the row order: the fixed report order,
// the same for every block.
func TestMetricsCountersOrder(t *testing.T) {
	a, b := NewMetrics().Counters(), (&Metrics{}).Counters()
	if len(a) != len(reportNames) || len(b) != len(reportNames) {
		t.Fatalf("Counters() has %d/%d rows, want %d", len(a), len(b), len(reportNames))
	}
	for i := range a {
		if a[i].Name != reportNames[i] {
			t.Fatalf("row %d is %q, want %q: the report order changed", i, a[i].Name, reportNames[i])
		}
		if b[i].Name != a[i].Name {
			t.Fatalf("row %d is %q in one block and %q in another", i, a[i].Name, b[i].Name)
		}
	}
}

// TestMetricsCountersUniqueNames checks that no report name is listed
// twice, so no sim_<name> row is ambiguous.
func TestMetricsCountersUniqueNames(t *testing.T) {
	names := map[string]bool{}
	for _, r := range (&Metrics{}).counters() {
		if r.name == "" {
			t.Error("empty report name")
		}
		if names[r.name] {
			t.Errorf("report name %q listed twice", r.name)
		}
		names[r.name] = true
	}
}

// TestMetricsCountersCoverEveryField checks the counters list against
// the struct: every entry is a non-nil pointer to a distinct
// stats.Counter field, and every such field is listed.
func TestMetricsCountersCoverEveryField(t *testing.T) {
	m := &Metrics{}
	fields := map[*stats.Counter]string{}
	v := reflect.ValueOf(m).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Type() == reflect.TypeOf(stats.Counter{}) {
			fields[f.Addr().Interface().(*stats.Counter)] = v.Type().Field(i).Name
		}
	}
	for _, r := range m.counters() {
		if r.c == nil {
			t.Errorf("%q has a nil counter", r.name)
			continue
		}
		if _, ok := fields[r.c]; !ok {
			t.Errorf("%q is not a distinct counter field of Metrics", r.name)
		}
		delete(fields, r.c)
	}
	for _, name := range fields {
		t.Errorf("counter field %s is missing from counters()", name)
	}
}

// TestMetricsMergeAddsPairwise checks that Merge adds each counter into
// the same-named counter and leaves the source untouched.
func TestMetricsMergeAddsPairwise(t *testing.T) {
	dst, src := NewMetrics(), NewMetrics()
	dst.Reads.Add(1)
	src.Reads.Add(2)
	src.Writes.Add(5)
	dst.Merge(src)
	for _, nc := range dst.Counters() {
		want := uint64(0)
		switch nc.Name {
		case "reads":
			want = 3
		case "writes":
			want = 5
		}
		if nc.Value != want {
			t.Fatalf("merged %s = %d, want %d", nc.Name, nc.Value, want)
		}
	}
	if src.Reads.Value() != 2 || src.Writes.Value() != 5 {
		t.Fatal("Merge changed its source")
	}
}

// TestMetricsRoundTrip is the Merge/Reset/Counters property: merging N
// copies of a block into a fresh one multiplies every counter by N, and
// Reset returns every counter to zero with the row set intact.
func TestMetricsRoundTrip(t *testing.T) {
	src := NewMetrics()
	for i, r := range src.counters() {
		r.c.Add(uint64(i + 1))
	}
	agg := NewMetrics()
	const n = 3
	for i := 0; i < n; i++ {
		agg.Merge(src)
	}
	for i, nc := range agg.Counters() {
		if nc.Value != uint64(n*(i+1)) {
			t.Fatalf("%s = %d, want %d", nc.Name, nc.Value, n*(i+1))
		}
	}
	agg.Reset()
	rows := agg.Counters()
	if len(rows) != len(reportNames) {
		t.Fatalf("Reset changed the row set: %v", rows)
	}
	for _, nc := range rows {
		if nc.Value != 0 {
			t.Fatalf("after reset %s = %d", nc.Name, nc.Value)
		}
	}
}

// TestMetricsResetZeroesInPlace checks Reset clears counters, trackers
// and the throughput window without replacing the tracker storage.
func TestMetricsResetZeroesInPlace(t *testing.T) {
	m := NewMetrics()
	lat, bits := m.ReadLatency, m.SetBits
	m.Reads.Add(9)
	m.ReadLatency.Add(sim.NS(100))
	m.SetBits.Add(12)
	m.NoteArrival(10)
	m.NoteDone(20)
	m.Reset()
	if m.ReadLatency != lat || m.SetBits != bits {
		t.Fatal("Reset must reset trackers in place, not replace them")
	}
	if m.Reads.Value() != 0 || m.ReadLatency.Count() != 0 || m.SetBits.Total() != 0 {
		t.Fatal("Reset left measurements behind")
	}
	if m.HaveArrival || m.FirstArrival != 0 || m.LastDone != 0 {
		t.Fatal("Reset left the throughput window open")
	}
	m.Reads.Inc()
	if got := m.Counters()[0].Value; got != 1 {
		t.Fatalf("counter detached after reset: %d", got)
	}
}

func TestWriteThroughput(t *testing.T) {
	m := NewMetrics()
	m.Writes.Add(100)
	m.NoteArrival(0)
	m.NoteDone(sim.Microsecond * 10)
	if got := m.WriteThroughput(); got != 10 {
		t.Fatalf("throughput %v writes/us, want 10", got)
	}
}
