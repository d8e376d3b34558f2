// Package pcm models the Phase Change Memory devices of a rank: the
// functional content of every stored cache line (data plus SECDED ECC
// plus PCC parity, kept bit-accurate so that reconstruction and
// verification are real operations, not flags), the per-chip per-bank
// timing state (open rows, busy-until times), differential-write
// analysis (which bits flip, and whether the slow SET or the faster
// RESET transition dominates), and endurance counters.
package pcm

import (
	"fmt"
	"math/bits"

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
// written read as zero. Every written line is one value in a flat
// table under flat.Key(lineIdx), 84 bytes a line, so a line costs its own slot whatever its
// neighbours do: write-backs land about one line per 4 KB region,
// which made page-granular storage pay for 64 lines per written one. Table membership is what "written" means, so
// Lines() and the fault model's never-written skip are exact.
//
// The table comes from a pool and Release returns it, so a sweep that
// builds one system after another grows each channel's table once, not
// once per system.
type Store struct {
	lines *flat.Table[Line]

	// Faults, when non-nil, injects endurance-driven stuck-at cells on
	// every programming operation and drift flips on demand (see
	// InjectDrift). Nil means perfect cells at zero cost: no wear state
	// is kept and no randomness is consumed.
	Faults *FaultModel
}

// linePool recycles stores' line tables across systems.
var linePool flat.Pool[Line]

// NewStore returns an empty store.
func NewStore() *Store { return &Store{lines: linePool.Get()} }

// Release returns the store's line table to the pool. The store must
// not be used afterwards: any later call panics on the nil table.
func (s *Store) Release() {
	linePool.Put(s.lines)
	s.lines = nil
}

// Lines returns the number of distinct lines ever written.
func (s *Store) Lines() int { return s.lines.Len() }

var zeroLine Line

// peek returns a read-only view of the stored line, or the shared
// all-zero line if the address was never written. Internal callers on
// the read path use it to avoid copying; they must never mutate the
// result (TestPeekZeroLineStaysZero enforces the invariant).
func (s *Store) peek(lineIdx uint64) *Line {
	if l := s.lines.Get(flat.Key(lineIdx)); l != nil {
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
// pointer stays valid until the store next takes in a line it does not
// hold (through Get or WriteWords).
func (s *Store) Get(lineIdx uint64) *Line {
	l, _ := s.lines.Put(flat.Key(lineIdx))
	return l
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
	l := s.Get(lineIdx)
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
				stored = s.Faults.onProgram(lineIdx, w, newWord)
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
			putWord64(l.ECC[:], s.Faults.onProgram(lineIdx, SlotECC, eccWord(l.ECC)))
		}
		if res.PCCFlips.Any() {
			putWord64(l.PCC[:], s.Faults.onProgram(lineIdx, SlotPCC, wordOf(l.PCC)))
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
	l := s.lines.Get(flat.Key(lineIdx))
	if l == nil {
		return false
	}
	return s.Faults.onRead(lineIdx, l) >= 0
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
