// Package pcm models the Phase Change Memory devices of a rank: the
// functional content of every stored cache line (data plus SECDED ECC
// plus PCC parity, kept bit-accurate so that reconstruction and
// verification are real operations, not flags), the per-chip per-bank
// timing state (open rows, busy-until times), differential-write
// analysis (which bits flip, and whether the slow SET or the faster
// RESET transition dominates), and endurance counters. A Store keeps
// only the lines written: each in a chunked arena where it never moves,
// found through a flat.Table of arena positions, with a fault model's
// per-line wear at the same position. The package holds no Go map and
// allocates nothing per line.
package pcm

import (
	"fmt"
	"math/bits"
	"sync"

	"pcmap/internal/ecc"
	"pcmap/internal/flat"
)

// Line is the stored content of one 64-byte cache line together with
// its error-code words. The zero value is code-consistent: an all-zero
// line has all-zero ECC and PCC words.
type Line struct {
	Data [ecc.LineBytes]byte
	ECC  [ecc.WordsPerLine]byte
	PCC  [ecc.WordBytes]byte
}

// CheckConsistent verifies that the stored ECC and PCC words match the
// stored data, returning a descriptive error on the first mismatch. The
// simulator calls this in tests and debug assertions.
func (l *Line) CheckConsistent() error {
	wantECC := ecc.EncodeLine(&l.Data)
	if wantECC != l.ECC {
		return fmt.Errorf("pcm: ECC mismatch: stored %x want %x", l.ECC, wantECC)
	}
	wantPCC := ecc.PCCLine(&l.Data)
	if wantPCC != l.PCC {
		return fmt.Errorf("pcm: PCC mismatch: stored %x want %x", l.PCC, wantPCC)
	}
	return nil
}

// Store is the sparse functional content of one rank's PCM arrays,
// keyed by line index (line address within the rank). Lines never
// written read as zero. A written line lives in an arena of fixed-size
// chunks and never moves once placed; an index maps flat.Key(lineIdx)
// to the line's arena position in 8-byte slots. A line costs its own
// 80 bytes plus its index slot whatever its neighbours do: write-backs
// land about one line per 4 KB region, which made page-granular storage
// pay for 64 lines per written one. Index membership is what "written"
// means, so Lines() and the fault model's never-written skip are exact.
// Under a fault model, each line's wear sits at the same position in a
// second chunk list, allocated only when Faults is set.
//
// The index and the chunks come from a pool and Release returns them,
// so a sweep that builds one system after another grows each channel's
// arena once, not once per system.
type Store struct {
	arena
	box *arena // the pool's holder for this store's arena; nil once released

	// Faults, when non-nil, injects endurance-driven stuck-at cells on
	// every programming operation and drift flips on demand (see
	// InjectDrift). Nil means perfect cells at zero cost: no wear state
	// is kept and no randomness is consumed.
	Faults *FaultModel
}

// chunkBits sizes an arena chunk: 1<<chunkBits lines, 80 KB.
const (
	chunkBits  = 10
	chunkLines = 1 << chunkBits
	chunkMask  = chunkLines - 1
)

// arena is the part of a store that Release recycles. Positions
// 0..index.Len()-1 hold the written lines in the order they were
// placed; every chunk slot past them is zero, so a recycled arena
// places lines without clearing them.
type arena struct {
	index flat.Table[uint32]      // flat.Key(lineIdx) -> arena position
	lines []*[chunkLines]Line     // position p is lines[p>>chunkBits][p&chunkMask]
	wear  []*[chunkLines]lineWear // the same positions' wear, grown under a fault model
}

// arenaPool recycles stores' arenas across systems.
var arenaPool = sync.Pool{New: func() any { return new(arena) }}

// NewStore returns an empty store.
func NewStore() *Store {
	s := new(Store)
	s.acquire()
	return s
}

// acquire takes an arena from the pool.
func (s *Store) acquire() {
	s.box = arenaPool.Get().(*arena)
	s.arena, *s.box = *s.box, arena{}
}

// Release returns the store's arena to the pool, emptied. The store
// must not be used afterwards: any later read or write panics.
func (s *Store) Release() {
	s.reset()
	*s.box = s.arena
	arenaPool.Put(s.box)
	s.arena, s.box = arena{}, nil
}

// reset empties the store but keeps its chunks and grown index: it
// zeroes the placed lines and their wear, so every chunk slot is zero
// again, and clears the index.
func (s *Store) reset() {
	n := s.index.Len()
	for c := 0; c*chunkLines < n; c++ {
		used := min(n-c*chunkLines, chunkLines)
		clear(s.lines[c][:used])
		if c < len(s.wear) {
			clear(s.wear[c][:used])
		}
	}
	s.index.Clear()
}

// Lines returns the number of distinct lines ever written.
func (s *Store) Lines() int { return s.index.Len() }

var zeroLine Line

// at returns the line at arena position p.
func (s *Store) at(p uint32) *Line { return &s.lines[p>>chunkBits][p&chunkMask] }

// find returns the stored line, or nil if the address was never
// written.
func (s *Store) find(lineIdx uint64) *Line {
	if p := s.index.Get(flat.Key(lineIdx)); p != nil {
		return s.at(*p)
	}
	s.checkLive()
	return nil
}

// checkLive panics if the store was released. Only the paths that miss
// the index call it: a released store's index is empty, so every
// access to it takes one of them.
func (s *Store) checkLive() {
	if s.box == nil {
		panic("pcm: use of a released Store")
	}
}

// peek returns a read-only view of the stored line, or the shared
// all-zero line if the address was never written. Internal callers on
// the read path use it to avoid copying; they must never mutate the
// result (TestPeekZeroLineStaysZero enforces the invariant).
func (s *Store) peek(lineIdx uint64) *Line {
	if l := s.find(lineIdx); l != nil {
		return l
	}
	return &zeroLine
}

// Peek returns a copy of the stored line; a never-written address reads
// as the zero line. The copy is the caller's to mutate — unlike the
// earlier pointer-returning version, which handed every never-written
// address the same shared zero line and made mutation through the
// result a cross-line corruption hazard.
func (s *Store) Peek(lineIdx uint64) Line { return *s.peek(lineIdx) }

// Get returns the stored line, marking it written on first touch. The
// line never moves, so the pointer stays valid until Release.
func (s *Store) Get(lineIdx uint64) *Line { return s.at(s.pos(lineIdx)) }

// pos returns the line's arena position, placing it at the next free
// position if the store does not hold it yet.
func (s *Store) pos(lineIdx uint64) uint32 {
	p, existed := s.index.Put(flat.Key(lineIdx))
	if !existed {
		*p = s.place()
	}
	return *p
}

// place returns the next free arena position, growing the chunks to
// cover it. The index already holds the new line's key.
func (s *Store) place() uint32 {
	s.checkLive()
	p := uint32(s.index.Len() - 1)
	if c := int(p >> chunkBits); c == len(s.lines) {
		s.lines = append(s.lines, new([chunkLines]Line))
	}
	return p
}

// wearAt returns the wear of the line at arena position p, growing the
// wear chunks to cover it.
func (s *Store) wearAt(p uint32) *lineWear {
	for c := int(p >> chunkBits); c >= len(s.wear); {
		s.wear = append(s.wear, new([chunkLines]lineWear))
	}
	return &s.wear[p>>chunkBits][p&chunkMask]
}

// ZeroLineIntact reports whether the package-shared zero line is still
// all-zero. The read path hands it out (via peek) for every
// never-written address, so any mutation through that path corrupts
// all such addresses at once. End-to-end tests assert this invariant
// after full simulation runs.
func ZeroLineIntact() bool { return zeroLine == Line{} }

// FlipKind classifies the cell transitions a word write needs.
type FlipKind struct {
	Sets   int // 0 -> 1 transitions (slow SET pulses)
	Resets int // 1 -> 0 transitions (faster RESET pulses)
}

// Any reports whether the write changes any bit at all.
func (f FlipKind) Any() bool { return f.Sets > 0 || f.Resets > 0 }

// AnalyzeWordWrite reports the transitions needed to overwrite old with
// new, as a differential write would program them.
func AnalyzeWordWrite(oldWord, newWord uint64) FlipKind {
	changed := oldWord ^ newWord
	return FlipKind{
		Sets:   bits.OnesCount64(changed & newWord), // bits going to 1
		Resets: bits.OnesCount64(changed & oldWord), // bits going to 0
	}
}

// AnalyzeLineWrite folds the transitions of a masked line write over
// the whole line: the SET/RESET totals of overwriting the stored
// content old with the intended content new on every word selected by
// mask. It is the content-aware (DCA) write path's kernel — one
// OnesCount64 fold per masked word, in the style of the ECC kernels:
// allocation-free and branch-light (the BENCH_3.json ledger pins it at
// 0 allocs/op). The totals equal the sum over WriteWords' PerWord
// analysis for the same inputs.
func AnalyzeLineWrite(old, new *[ecc.LineBytes]byte, mask uint8) FlipKind {
	var f FlipKind
	for w := 0; w < ecc.WordsPerLine; w++ {
		if mask&(1<<uint(w)) == 0 {
			continue
		}
		oldWord := ecc.Word(old, w)
		newWord := ecc.Word(new, w)
		changed := oldWord ^ newWord
		f.Sets += bits.OnesCount64(changed & newWord)
		f.Resets += bits.OnesCount64(changed & oldWord)
	}
	return f
}

// WriteResult summarizes the functional effect of a line write.
type WriteResult struct {
	PerWord    [ecc.WordsPerLine]FlipKind // data-word transitions
	ECCFlips   FlipKind                   // transitions on the ECC chip's word
	PCCFlips   FlipKind                   // transitions on the PCC chip's word
	WordsDirty int                        // number of words with Any() transitions
}

// WriteWords applies a masked line write: for every word whose bit is
// set in mask, the corresponding 8 bytes of newData replace the stored
// word. ECC and PCC words are recomputed (incrementally, mirroring the
// controller's hardware) and the transition analysis for every involved
// chip is returned. Endurance is the caller's concern (the chips count
// it); the store only mutates content.
func (s *Store) WriteWords(lineIdx uint64, mask uint8, newData *[ecc.LineBytes]byte) WriteResult {
	var res WriteResult
	if mask == 0 {
		return res
	}
	p := s.pos(lineIdx)
	l := s.at(p)
	var wear *lineWear
	if s.Faults != nil {
		wear = s.wearAt(p)
	}
	oldECCWord := eccWord(l.ECC)
	oldPCCWord := wordOf(l.PCC)
	for w := 0; w < ecc.WordsPerLine; w++ {
		if mask&(1<<uint(w)) == 0 {
			continue
		}
		// The differential write compares against the cells' actual
		// content (the internal read-before-write), so a stuck or
		// drifted cell holding the wrong value shows up as a flip and
		// triggers a programming attempt.
		oldWord := ecc.Word(&l.Data, w)
		newWord := ecc.Word(newData, w)
		res.PerWord[w] = AnalyzeWordWrite(oldWord, newWord)
		if res.PerWord[w].Any() {
			res.WordsDirty++
			stored := newWord
			if s.Faults != nil {
				stored = s.Faults.onProgram(wear, w, newWord)
			}
			ecc.SetWord(&l.Data, w, stored)
		}
		// The controller computes the code updates from the intended
		// word (it cannot see failed cells until a verify read-back),
		// so stored codes track intent, not corrupted content.
		l.PCC = ecc.UpdatePCC(l.PCC, oldWord, newWord)
		l.ECC[w] = ecc.Encode64(newWord)
	}
	res.ECCFlips = AnalyzeWordWrite(oldECCWord, eccWord(l.ECC))
	res.PCCFlips = AnalyzeWordWrite(oldPCCWord, wordOf(l.PCC))
	// The ECC and PCC words are PCM cells too: their programming wears
	// them and applies any stuck bits they have accumulated.
	if s.Faults != nil {
		if res.ECCFlips.Any() {
			putWord64(l.ECC[:], s.Faults.onProgram(wear, SlotECC, eccWord(l.ECC)))
		}
		if res.PCCFlips.Any() {
			putWord64(l.PCC[:], s.Faults.onProgram(wear, SlotPCC, wordOf(l.PCC)))
		}
	}
	return res
}

// putWord64 stores v little-endian into an 8-byte slice (the inverse of
// eccWord/wordOf).
func putWord64(dst []byte, v uint64) {
	for i := range dst {
		dst[i] = byte(v >> uint(8*i))
	}
}

// InjectDrift applies the fault model's transient drift to one stored
// line, as the read path samples it before observing content. It
// reports whether a bit flipped. Never-written lines share the zero
// line and are skipped (their cells were never programmed).
func (s *Store) InjectDrift(lineIdx uint64) bool {
	if s.Faults == nil {
		return false
	}
	l := s.find(lineIdx)
	if l == nil {
		return false
	}
	return s.Faults.onRead(l) >= 0
}

func eccWord(e [ecc.WordsPerLine]byte) uint64 {
	var v uint64
	for i, b := range e {
		v |= uint64(b) << uint(8*i)
	}
	return v
}

func wordOf(p [ecc.WordBytes]byte) uint64 {
	var v uint64
	for i, b := range p {
		v |= uint64(b) << uint(8*i)
	}
	return v
}

// ReadLine copies the stored data of a line into out.
func (s *Store) ReadLine(lineIdx uint64, out *[ecc.LineBytes]byte) {
	*out = s.peek(lineIdx).Data
}

// ReconstructWord performs the RoW read-path reconstruction for the
// given line: it rebuilds the word at index missing from the other
// seven data words and the stored PCC word, exactly as the controller's
// XOR network would (Section IV-B). The bool result reports whether the
// reconstruction matches the stored word — it always should unless a
// fault was injected into the stored content.
func (s *Store) ReconstructWord(lineIdx uint64, missing int) (uint64, bool) {
	l := s.peek(lineIdx)
	got := ecc.ReconstructWord(&l.Data, missing, l.PCC)
	want := ecc.Word(&l.Data, missing)
	return got, got == want
}
