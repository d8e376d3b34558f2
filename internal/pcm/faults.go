package pcm

import (
	"pcmap/internal/ecc"
	"pcmap/internal/sim"
)

// Slot indices of a line's stored words inside the fault model: eight
// data words, then the ECC check word, then the PCC parity word. They
// mirror the dimm package's chip slots but are line-relative (rotation
// maps them onto chips; wearout follows the stored content, which is
// what the cells hold regardless of which chip they live on).
const (
	// SlotECC is the line-relative slot of the SECDED check word.
	SlotECC = ecc.WordsPerLine
	// SlotPCC is the line-relative slot of the PCC parity word.
	SlotPCC = ecc.WordsPerLine + 1
	// NumSlots is the number of 64-bit stored words per line.
	NumSlots = ecc.WordsPerLine + 2
)

// FaultConfig selects which physical failure mechanisms the store
// injects. The zero value disables injection entirely (and costs
// nothing: the store takes no RNG draws and allocates no wear state).
type FaultConfig struct {
	// EnduranceBudget is the per-word write-endurance budget: once a
	// stored word has been programmed more than this many times, every
	// further programming operation permanently sticks one additional
	// (previously healthy) cell of that word at a pseudo-random value —
	// the PCM wearout failure mode. Zero disables wearout.
	EnduranceBudget uint64
	// DriftProb is the per-read probability that resistance drift flips
	// one stored bit of the accessed line (data, ECC or PCC region) — the
	// transient failure mode. The flip corrupts the stored bytes, so it
	// persists until the cell is reprogrammed. Zero disables drift.
	DriftProb float64
}

// Enabled reports whether any fault mechanism is active.
func (c FaultConfig) Enabled() bool { return c.EnduranceBudget > 0 || c.DriftProb > 0 }

// lineWear tracks the wear and permanent faults of one stored line. The
// store keeps it beside the line; the zero value is a line never
// programmed.
type lineWear struct {
	writes    [NumSlots]uint64 // programming operations per stored word
	stuckMask [NumSlots]uint64 // bit set: that cell no longer programs
	stuckVal  [NumSlots]uint64 // the value stuck cells read back as
}

// FaultModel injects deterministic, seedable faults into a Store's
// content: endurance-driven stuck-at cells on programming and
// drift-induced bit flips on reads. All corruption is applied to the
// stored Line bytes, so downstream ECC decode, PCC reconstruction and
// program-and-verify read-back observe real bad data, not flags. The
// per-line wear lives in the Store the model is attached to.
type FaultModel struct {
	cfg FaultConfig
	rng *sim.RNG

	// InjectedStuck counts cells permanently stuck so far.
	InjectedStuck uint64
	// InjectedDrift counts transient drift flips injected so far.
	InjectedDrift uint64
}

// NewFaultModel returns a model with its own private randomness stream;
// the same seed and access sequence reproduce the same faults.
func NewFaultModel(cfg FaultConfig, rng *sim.RNG) *FaultModel {
	return &FaultModel{cfg: cfg, rng: rng}
}

// Config returns the model's fault configuration.
func (f *FaultModel) Config() FaultConfig { return f.cfg }

// onProgram models one word-programming operation on a line whose wear
// is w: it advances the slot's wear counter, possibly sticks a fresh
// cell (when the endurance budget is exhausted), and returns the value
// the cells actually hold afterwards — the intended word with every
// stuck cell overridden by its stuck value.
func (f *FaultModel) onProgram(w *lineWear, slot int, intended uint64) uint64 {
	w.writes[slot]++
	if f.cfg.EnduranceBudget > 0 && w.writes[slot] > f.cfg.EnduranceBudget &&
		w.stuckMask[slot] != ^uint64(0) {
		// Wearout: one more cell of this word fails. Pick a healthy bit
		// position; whether it sticks at 0 or 1 depends on the failed
		// cell's physics, which we sample.
		bit := uint(f.rng.Intn(64))
		for w.stuckMask[slot]&(1<<bit) != 0 {
			bit = (bit + 1) % 64
		}
		w.stuckMask[slot] |= 1 << bit
		if f.rng.Bool(0.5) {
			w.stuckVal[slot] |= 1 << bit
		} else {
			w.stuckVal[slot] &^= 1 << bit
		}
		f.InjectedStuck++
	}
	if m := w.stuckMask[slot]; m != 0 {
		return intended&^m | w.stuckVal[slot]&m
	}
	return intended
}

// onRead models resistance drift for one read of the stored line l:
// with probability DriftProb a single stored bit of the line (any of
// its ten words) flips in place. It returns the slot that drifted, or
// -1.
func (f *FaultModel) onRead(l *Line) int {
	if f.cfg.DriftProb <= 0 || !f.rng.Bool(f.cfg.DriftProb) {
		return -1
	}
	slot := f.rng.Intn(NumSlots)
	bit := uint(f.rng.Intn(64))
	switch {
	case slot < ecc.WordsPerLine:
		l.Data[slot*ecc.WordBytes+int(bit/8)] ^= 1 << (bit % 8)
	case slot == SlotECC:
		l.ECC[bit/8] ^= 1 << (bit % 8)
	default:
		l.PCC[bit/8] ^= 1 << (bit % 8)
	}
	f.InjectedDrift++
	return slot
}
