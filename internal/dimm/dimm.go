// Package dimm models the PCMap DIMM of Section IV-D: a rank of ten x8
// PCM chips (eight data words, one SECDED ECC word, one PCC parity word
// per cache line), 8-way rank subsetting so each chip is independently
// addressable (Ahn et al. style buffered DIMM), and the data/ECC/PCC
// rotation layouts. The DIMM register that demultiplexes commands and
// reports chip busy/idle status is the chips' own busy state, which the
// controller polls with the Status command.
package dimm

import (
	"fmt"

	"pcmap/internal/obs"
	"pcmap/internal/pcm"
)

// Chip indices by conventional (non-rotated) role.
const (
	// ECCSlot is the layout slot holding the SECDED check bytes.
	ECCSlot = 8
	// PCCSlot is the layout slot holding the XOR parity word.
	PCCSlot = 9
	// Slots is the number of per-line slots and also chips per rank.
	Slots = 10
)

// Layout maps a cache line's ten slots (eight data words, ECC, PCC)
// onto the rank's ten chips, implementing the paper's two rotation
// schemes. The mapping is a pure function of the line index, so the
// controller needs no book-keeping state (Section IV-C2).
type Layout struct {
	// RotateData rotates the eight data words across the eight data
	// chips by lineIdx mod 8 (Figure 6). ECC and PCC stay on their
	// dedicated chips.
	RotateData bool
	// RotateECC rotates all ten slots across all ten chips by
	// lineIdx mod 10, spreading ECC/PCC updates like RAID-5 parity.
	// When set it subsumes data rotation.
	RotateECC bool
}

// DataChip returns the chip holding data word w (0..7) of the line.
func (l Layout) DataChip(lineIdx uint64, w int) int {
	switch {
	case l.RotateECC:
		return int((uint64(w) + lineIdx) % Slots)
	case l.RotateData:
		return int((uint64(w) + lineIdx) % 8)
	default:
		return w
	}
}

// ECCChip returns the chip holding the line's SECDED check bytes.
func (l Layout) ECCChip(lineIdx uint64) int {
	if l.RotateECC {
		return int((ECCSlot + lineIdx) % Slots)
	}
	return ECCSlot
}

// PCCChip returns the chip holding the line's PCC parity word.
func (l Layout) PCCChip(lineIdx uint64) int {
	if l.RotateECC {
		return int((PCCSlot + lineIdx) % Slots)
	}
	return PCCSlot
}

// DataChips returns the set of chips holding the line's eight data
// words as a bitmask over the rank's ten chips.
func (l Layout) DataChips(lineIdx uint64) uint16 {
	var m uint16
	for w := 0; w < 8; w++ {
		m |= 1 << uint(l.DataChip(lineIdx, w))
	}
	return m
}

// WordOnChip returns which data word of the line chip holds, or -1 if
// the chip holds the line's ECC or PCC word (or, without ECC rotation,
// is a dedicated code chip).
func (l Layout) WordOnChip(lineIdx uint64, chip int) int {
	for w := 0; w < 8; w++ {
		if l.DataChip(lineIdx, w) == chip {
			return w
		}
	}
	return -1
}

// Rank is one rank of a PCMap DIMM: ten chips plus the DIMM register.
type Rank struct {
	Chips  []*pcm.Chip
	Store  *pcm.Store
	Layout Layout
}

// NewRank builds a rank with the given bank count and layout, its
// chips splitting every bank into parts >= 1 independently schedulable
// partitions (1 = monolithic banks; PALP uses more).
func NewRank(banks, parts int, layout Layout) *Rank {
	r := &Rank{Store: pcm.NewStore(), Layout: layout}
	for i := 0; i < Slots; i++ {
		r.Chips = append(r.Chips, pcm.NewChip(i, banks, parts))
	}
	return r
}

// Release returns the rank's line store to its pool and drops it, so
// any later use of the rank's store panics.
func (r *Rank) Release() {
	r.Store.Release()
	r.Store = nil
}

// Instrument attaches every chip-bank of the rank to timeline tracks
// grouped under "pcm chan<channel>". A nil tracer is a no-op.
func (r *Rank) Instrument(tr *obs.Tracer, channel int) {
	if tr == nil {
		return
	}
	process := fmt.Sprintf("pcm chan%d", channel)
	for _, c := range r.Chips {
		c.Instrument(tr, process)
	}
}

// TotalWordWrites sums the programming operations across chips, for
// wear-balance reporting (PCMap's rotation spreads writes; the
// Section IV-C2 lifetime argument).
func (r *Rank) TotalWordWrites() (total uint64, perChip []uint64) {
	perChip = make([]uint64, len(r.Chips))
	for i, c := range r.Chips {
		perChip[i] = c.WordWrites
		total += c.WordWrites
	}
	return total, perChip
}
