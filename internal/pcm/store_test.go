package pcm

import (
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"

	"pcmap/internal/config"
	"pcmap/internal/ecc"
	"pcmap/internal/flat"
	"pcmap/internal/sim"
)

func randomLine(rng *sim.RNG) *[ecc.LineBytes]byte {
	var l [ecc.LineBytes]byte
	for i := range l {
		l[i] = byte(rng.Uint64())
	}
	return &l
}

func TestStoreZeroDefault(t *testing.T) {
	s := NewStore()
	var out [ecc.LineBytes]byte
	s.ReadLine(12345, &out)
	if out != ([ecc.LineBytes]byte{}) {
		t.Fatal("never-written line should read as zero")
	}
	if s.Lines() != 0 {
		t.Fatalf("Peek must not allocate; have %d lines", s.Lines())
	}
}

func TestWriteWordsMaskedUpdate(t *testing.T) {
	s := NewStore()
	rng := sim.NewRNG(3)
	data := randomLine(rng)
	res := s.WriteWords(7, 0b00000101, data) // words 0 and 2
	if res.WordsDirty != 2 {
		t.Fatalf("WordsDirty = %d, want 2", res.WordsDirty)
	}
	var out [ecc.LineBytes]byte
	s.ReadLine(7, &out)
	for w := 0; w < 8; w++ {
		got := ecc.Word(&out, w)
		if w == 0 || w == 2 {
			if got != ecc.Word(data, w) {
				t.Fatalf("masked word %d not written", w)
			}
		} else if got != 0 {
			t.Fatalf("unmasked word %d modified to %#x", w, got)
		}
	}
}

func TestWriteKeepsCodesConsistent(t *testing.T) {
	s := NewStore()
	rng := sim.NewRNG(9)
	for i := 0; i < 500; i++ {
		idx := uint64(rng.Intn(16))
		mask := uint8(rng.Uint64())
		s.WriteWords(idx, mask, randomLine(rng))
		l := s.Peek(idx)
		if err := l.CheckConsistent(); err != nil {
			t.Fatalf("after write %d: %v", i, err)
		}
	}
}

func TestReconstructAfterRandomWrites(t *testing.T) {
	s := NewStore()
	rng := sim.NewRNG(21)
	for i := 0; i < 300; i++ {
		idx := uint64(rng.Intn(8))
		s.WriteWords(idx, uint8(rng.Uint64()), randomLine(rng))
		missing := rng.Intn(8)
		if _, ok := s.ReconstructWord(idx, missing); !ok {
			t.Fatalf("reconstruction failed for line %d word %d", idx, missing)
		}
	}
}

func TestAnalyzeWordWrite(t *testing.T) {
	cases := []struct {
		old, new     uint64
		sets, resets int
	}{
		{0, 0, 0, 0},
		{0, 1, 1, 0},
		{1, 0, 0, 1},
		{0b1010, 0b0101, 2, 2},
		{^uint64(0), 0, 0, 64},
		{0, ^uint64(0), 64, 0},
	}
	for _, c := range cases {
		f := AnalyzeWordWrite(c.old, c.new)
		if f.Sets != c.sets || f.Resets != c.resets {
			t.Fatalf("Analyze(%#x,%#x) = %+v, want sets=%d resets=%d", c.old, c.new, f, c.sets, c.resets)
		}
	}
}

func TestAnalyzeProperty(t *testing.T) {
	// Property: total flips equals the popcount of old XOR new, and a
	// write is silent iff old == new.
	if err := quick.Check(func(a, b uint64) bool {
		f := AnalyzeWordWrite(a, b)
		diff := a ^ b
		pop := 0
		for diff != 0 {
			diff &= diff - 1
			pop++
		}
		return f.Sets+f.Resets == pop && f.Any() == (a != b)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSilentMaskedWrite(t *testing.T) {
	s := NewStore()
	rng := sim.NewRNG(5)
	data := randomLine(rng)
	s.WriteWords(3, 0xff, data)
	// Rewriting identical content must be fully silent.
	res := s.WriteWords(3, 0xff, data)
	if res.WordsDirty != 0 {
		t.Fatalf("identical rewrite dirtied %d words", res.WordsDirty)
	}
	if res.ECCFlips.Any() || res.PCCFlips.Any() {
		t.Fatal("identical rewrite flipped code bits")
	}
}

func TestZeroMaskIsNoop(t *testing.T) {
	s := NewStore()
	rng := sim.NewRNG(6)
	res := s.WriteWords(4, 0, randomLine(rng))
	if res.WordsDirty != 0 || s.Lines() != 0 {
		t.Fatal("zero-mask write must not touch the store")
	}
}

// TestLinesCountsDistinctLines pins Lines() to the exact number of
// distinct written lines — lines 64 apart (one per 4 KB region, the
// write-back pattern), rewrites, and enough lines to cross several
// table doublings — and checks that writing a line does not make a
// never-written neighbour look written: drift injection on it must be
// a no-op even with a fault model armed.
func TestLinesCountsDistinctLines(t *testing.T) {
	s := NewStore()
	rng := sim.NewRNG(11)
	for _, idx := range []uint64{0, 1, 0, 63, 64, 3 * 64, 64} {
		s.WriteWords(idx, 0xff, randomLine(rng))
	}
	if s.Lines() != 5 {
		t.Fatalf("Lines() = %d, want 5 distinct", s.Lines())
	}
	const spread = 5000 // past three doublings of the 256-slot start
	for i := uint64(0); i < 2*spread; i++ {
		s.WriteWords((i%spread)*64+1000, 0xff, randomLine(rng))
		if want := 5 + int(min(i+1, spread)); s.Lines() != want {
			t.Fatalf("after %d writes: Lines() = %d, want %d", i+1, s.Lines(), want)
		}
	}
	s.Faults = NewFaultModel(FaultConfig{DriftProb: 0.999}, sim.NewRNG(1))
	for _, idx := range []uint64{2, 65, 1001, 1000 + spread*64} {
		if s.InjectDrift(idx) {
			t.Fatalf("drift injected into never-written line %d", idx)
		}
	}
	if s.Lines() != 5+spread {
		t.Fatalf("drift on never-written lines changed Lines() to %d", s.Lines())
	}
}

func TestPeekReturnsIndependentCopy(t *testing.T) {
	s := NewStore()
	rng := sim.NewRNG(13)
	s.WriteWords(9, 0xff, randomLine(rng))
	a := s.Peek(9)
	a.Data[0] ^= 0xff
	b := s.Peek(9)
	if b.Data[0] == a.Data[0] {
		t.Fatal("mutating a Peek result must not change the store")
	}
}

func TestPeekZeroLineStaysZero(t *testing.T) {
	// The old pointer-returning Peek handed every never-written address
	// the same shared zero line; a single mutation through it corrupted
	// all of them. The value-returning Peek makes mutation safe — pin
	// that the shared line survives a hostile caller.
	s := NewStore()
	l := s.Peek(4242)
	for i := range l.Data {
		l.Data[i] = 0xff
	}
	if !ZeroLineIntact() {
		t.Fatal("mutating a never-written Peek result corrupted the shared zero line")
	}
	var out [ecc.LineBytes]byte
	s.ReadLine(4242, &out)
	if out != ([ecc.LineBytes]byte{}) {
		t.Fatal("never-written line no longer reads as zero")
	}
}

func TestGetAllocFreeOnMaterializedLines(t *testing.T) {
	s := NewStore()
	rng := sim.NewRNG(17)
	const lines = 256
	for i := uint64(0); i < lines; i++ {
		s.WriteWords(i*64, 0xff, randomLine(rng))
	}
	var idx uint64
	if n := testing.AllocsPerRun(1000, func() {
		s.Get((idx % lines) * 64)
		idx++
	}); n != 0 {
		t.Fatalf("Get on materialized lines allocated %.1f/op, want 0", n)
	}
}

// TestReleasedStore pins Store.Release's contract: the table it hands
// back to the pool is empty, with its grown slots kept, so the next
// store to take it reads every line as never written and refills it to
// the same size without allocating; the released store itself panics
// on any further use.
func TestReleasedStore(t *testing.T) {
	const n = 5000 // past four doublings of the 256-slot start
	fill := func(s *Store) {
		for i := uint64(0); i < n; i++ {
			s.Get(i * 64).Data[0] = 1
		}
	}
	s := NewStore()
	fill(s)
	tab := s.lines
	s.Release()
	if tab.Len() != 0 {
		t.Fatalf("released table holds %d lines, want 0", tab.Len())
	}
	for i := uint64(0); i < n; i++ {
		if tab.Get(flat.Key(i*64)) != nil {
			t.Fatalf("released table still holds line %d", i*64)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a released store served a read")
			}
		}()
		s.Peek(0)
	}()

	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops values at random")
	}
	s = NewStore()
	if n := testing.AllocsPerRun(10, func() {
		fill(s)
		s.Release()
		s.lines = linePool.Get() // NewStore without the Store itself
	}); n != 0 {
		t.Fatalf("refilling a released store allocated %.1f/run, want 0", n)
	}
}

func TestChipReserveSerializes(t *testing.T) {
	c := NewChip(0, 8, 1)
	s1, e1 := c.Reserve(2, 0, 100, 50)
	if s1 != 100 || e1 != 150 {
		t.Fatalf("first reservation [%v,%v)", s1, e1)
	}
	s2, e2 := c.Reserve(2, 0, 120, 30)
	if s2 != 150 || e2 != 180 {
		t.Fatalf("overlapping reservation should chain: [%v,%v)", s2, e2)
	}
	// Other banks are independent.
	s3, _ := c.Reserve(3, 0, 120, 30)
	if s3 != 120 {
		t.Fatalf("different bank should not chain: start %v", s3)
	}
	if c.FreeAt(2, 0, 160) {
		t.Fatal("bank 2 should be busy at 160")
	}
	if !c.FreeAt(2, 0, 180) {
		t.Fatal("bank 2 should be free at 180")
	}
}

func TestChipRowState(t *testing.T) {
	c := NewChip(1, 4, 1)
	if c.RowHit(0, 5) {
		t.Fatal("closed bank should miss")
	}
	c.OpenRowIn(0, 5)
	if !c.RowHit(0, 5) || c.RowHit(1, 5) {
		t.Fatal("row state per bank is wrong")
	}
}

// TestAnalyzeLineWriteMatchesWriteWords proves the DCA kernel against
// the store's own per-word analysis: for any stored content, intended
// content, and mask, AnalyzeLineWrite's totals equal the sum over
// WriteWords' PerWord transitions.
func TestAnalyzeLineWriteMatchesWriteWords(t *testing.T) {
	rng := sim.NewRNG(41)
	for trial := 0; trial < 200; trial++ {
		s := NewStore()
		lineIdx := rng.Uint64() % 1024
		if trial%4 != 0 {
			// Three in four trials overwrite existing content; the rest
			// hit a never-written (all-zero) line.
			s.WriteWords(lineIdx, 0xff, randomLine(rng))
		}
		mask := uint8(rng.Uint64())
		next := randomLine(rng)
		if trial%5 == 0 {
			// Partially-identical content: silent words must add zero.
			old := s.Peek(lineIdx)
			for w := 0; w < ecc.WordsPerLine; w++ {
				if w%2 == 0 {
					ecc.SetWord(next, w, ecc.Word(&old.Data, w))
				}
			}
		}
		old := s.Peek(lineIdx)
		got := AnalyzeLineWrite(&old.Data, next, mask)
		res := s.WriteWords(lineIdx, mask, next)
		var want FlipKind
		for w := 0; w < ecc.WordsPerLine; w++ {
			want.Sets += res.PerWord[w].Sets
			want.Resets += res.PerWord[w].Resets
		}
		if got != want {
			t.Fatalf("trial %d (mask %#x): AnalyzeLineWrite = %+v, WriteWords sum = %+v",
				trial, mask, got, want)
		}
	}
}

// TestAnalyzeLineWriteMask checks that only masked words contribute.
func TestAnalyzeLineWriteMask(t *testing.T) {
	rng := sim.NewRNG(42)
	old, next := randomLine(rng), randomLine(rng)
	if f := AnalyzeLineWrite(old, next, 0); f != (FlipKind{}) {
		t.Fatalf("empty mask must analyze to zero, got %+v", f)
	}
	one := AnalyzeLineWrite(old, next, 1)
	want := AnalyzeWordWrite(ecc.Word(old, 0), ecc.Word(next, 0))
	if one != want {
		t.Fatalf("single-word mask = %+v, want %+v", one, want)
	}
}

// TestChipPartitions covers the one chip-time model: every reservation
// names a (bank, partition) pair, FreeAt sees that partition only, the
// whole-bank busy time is the latest of the bank's partitions, and
// programming serializes chip-wide across partitions and banks. A
// monolithic bank is the one-partition case of the same model.
func TestChipPartitions(t *testing.T) {
	c := NewChip(0, 2, 4)
	// Reserve partition 1 of bank 0 for [0, 100).
	start, end := c.Reserve(0, 1, 0, 100)
	if start != 0 || end != 100 {
		t.Fatalf("Reserve = [%v, %v)", start, end)
	}
	if c.FreeAt(0, 1, 50) {
		t.Fatal("partition 1 must be busy at 50")
	}
	if !c.FreeAt(0, 2, 50) {
		t.Fatal("partition 2 must be free while partition 1 is busy")
	}
	if got := c.BankBusyUntil(0); got != 100 {
		t.Fatalf("BankBusyUntil(0) = %v, want 100 (max over partitions)", got)
	}
	if !c.FreeAt(1, 1, 50) || c.BankBusyUntil(1) != 0 {
		t.Fatal("bank 1 must be unaffected")
	}
	// A second reservation on the same partition queues behind the first.
	if s2, _ := c.Reserve(0, 1, 0, 10); s2 != 100 {
		t.Fatalf("same-partition reservation must serialize, start = %v", s2)
	}
	// Programming serializes chip-wide even across partitions.
	_, e3 := c.ReserveProgram(0, 2, 0, 10, 50)
	if e3 != 60 {
		t.Fatalf("program on partition 2 = end %v, want 60", e3)
	}
	if s4, _ := c.ReserveProgram(1, 0, 0, 0, 20); s4 != 0 {
		t.Fatalf("other-bank program may start at 0, started %v", s4)
	}
	if c.ProgBusyUntil != 80 {
		t.Fatalf("ProgBusyUntil = %v, want 80 (chip-wide serialization)", c.ProgBusyUntil)
	}
	if got := c.BankBusyUntil(0); got != 110 {
		t.Fatalf("BankBusyUntil(0) = %v, want 110", got)
	}
	if got := c.BankBusyUntil(1); got != 80 {
		t.Fatalf("BankBusyUntil(1) = %v, want 80", got)
	}

	// Monolithic banks: partition 0 is the whole bank.
	m := NewChip(1, 2, 1)
	m.Reserve(1, 0, 0, 100)
	if m.FreeAt(1, 0, 50) || m.BankBusyUntil(1) != 100 {
		t.Fatal("a one-partition bank must be busy as a whole")
	}
	if !m.FreeAt(0, 0, 50) {
		t.Fatal("bank 0 must be unaffected")
	}
}

// refStore is a map of individually allocated lines: the simplest
// representation of a sparse store, kept as the reference for the
// differential test. Its write applies the same per-word rules as
// WriteWords for a fault model without wearout (drift only), where
// programming stores the intended word.
type refStore struct {
	lines  map[uint64]*Line
	faults *FaultModel
}

func (r *refStore) line(idx uint64) *Line {
	if l, ok := r.lines[idx]; ok {
		return l
	}
	return &Line{}
}

func (r *refStore) writeWords(idx uint64, mask uint8, data *[ecc.LineBytes]byte) WriteResult {
	var res WriteResult
	if mask == 0 {
		return res
	}
	l, ok := r.lines[idx]
	if !ok {
		l = &Line{}
		r.lines[idx] = l
	}
	oldECC, oldPCC := eccWord(l.ECC), wordOf(l.PCC)
	for w := 0; w < ecc.WordsPerLine; w++ {
		if mask&(1<<uint(w)) == 0 {
			continue
		}
		oldWord, newWord := ecc.Word(&l.Data, w), ecc.Word(data, w)
		if res.PerWord[w] = AnalyzeWordWrite(oldWord, newWord); res.PerWord[w].Any() {
			res.WordsDirty++
			ecc.SetWord(&l.Data, w, newWord)
		}
		l.PCC = ecc.UpdatePCC(l.PCC, oldWord, newWord)
		l.ECC[w] = ecc.Encode64(newWord)
	}
	res.ECCFlips = AnalyzeWordWrite(oldECC, eccWord(l.ECC))
	res.PCCFlips = AnalyzeWordWrite(oldPCC, wordOf(l.PCC))
	return res
}

func (r *refStore) injectDrift(idx uint64) bool {
	l, ok := r.lines[idx]
	return ok && r.faults.onRead(idx, l) >= 0
}

// TestStoreMatchesMapReference drives the store and the map reference
// through the same random WriteWords, Peek, ReadLine, ReconstructWord
// and InjectDrift calls — over line 0, the rank's largest line index,
// lines 64 apart and a dense run — with identically seeded drift models,
// and compares every result and, at the end, every line.
func TestStoreMatchesMapReference(t *testing.T) {
	cfg := config.Default()
	last := uint64(cfg.Memory.CapacityBytes/int64(cfg.Memory.Channels)/config.LineBytes) - 1
	idxs := []uint64{0, last, last - 64}
	for i := uint64(1); len(idxs) < 3000; i++ {
		idxs = append(idxs, i*64, i)
	}
	drift := FaultConfig{DriftProb: 0.05}
	s := NewStore()
	s.Faults = NewFaultModel(drift, sim.NewRNG(77))
	ref := &refStore{lines: map[uint64]*Line{}, faults: NewFaultModel(drift, sim.NewRNG(77))}
	rng := sim.NewRNG(53)
	for op := 0; op < 40_000; op++ {
		idx := idxs[rng.Intn(len(idxs))]
		switch rng.Intn(5) {
		case 0, 1:
			mask, data := uint8(rng.Uint64()), randomLine(rng)
			if got, want := s.WriteWords(idx, mask, data), ref.writeWords(idx, mask, data); got != want {
				t.Fatalf("op %d: WriteWords(%d, %#x) = %+v, reference %+v", op, idx, mask, got, want)
			}
		case 2:
			if got, want := s.InjectDrift(idx), ref.injectDrift(idx); got != want {
				t.Fatalf("op %d: InjectDrift(%d) = %v, reference %v", op, idx, got, want)
			}
		case 3:
			var got [ecc.LineBytes]byte
			s.ReadLine(idx, &got)
			if got != ref.line(idx).Data {
				t.Fatalf("op %d: ReadLine(%d) differs from the reference", op, idx)
			}
		default:
			w := rng.Intn(ecc.WordsPerLine)
			l := ref.line(idx)
			want := ecc.ReconstructWord(&l.Data, w, l.PCC)
			if got, ok := s.ReconstructWord(idx, w); got != want || ok != (want == ecc.Word(&l.Data, w)) {
				t.Fatalf("op %d: ReconstructWord(%d, %d) = %#x %v, reference %#x", op, idx, w, got, ok, want)
			}
		}
	}
	if s.Lines() != len(ref.lines) {
		t.Fatalf("Lines() = %d, reference %d", s.Lines(), len(ref.lines))
	}
	if s.Faults.InjectedDrift == 0 || s.Faults.InjectedDrift != ref.faults.InjectedDrift {
		t.Fatalf("drift flips %d, reference %d (want equal and non-zero)", s.Faults.InjectedDrift, ref.faults.InjectedDrift)
	}
	for _, idx := range idxs {
		if got := s.Peek(idx); got != *ref.line(idx) {
			t.Fatalf("Peek(%d) differs from the reference", idx)
		}
	}
}

// TestStoreFootprintPerLine pins the store's memory to the lines
// written, not the regions they fall in: lines 64 apart (one per 4 KB
// region, as write-backs land) may cost at most 4x a line and its key
// each, counting the table's unused slots.
func TestStoreFootprintPerLine(t *testing.T) {
	const n = 4096
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := NewStore()
	for i := uint64(0); i < n; i++ {
		s.Get(i * 64)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	perLine := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	if limit := 4 * int64(unsafe.Sizeof(Line{})+8); perLine > limit {
		t.Fatalf("%d lines 64 apart hold %d B of heap each, want at most %d", n, perLine, limit)
	}
}
