package mem

import (
	"fmt"
	"math/bits"

	"pcmap/internal/ecc"
)

// Geometry is the memory shape the address map needs. It lives here
// (rather than taking config.Memory directly) so that config can
// depend on this package's unit types without an import cycle.
type Geometry struct {
	Channels      int
	Banks         int
	RowBytes      int64
	CapacityBytes int64
}

// AddrMap decodes line-aligned physical addresses into the DDR3
// topology coordinates of Table I. The bit layout, low to high, is
//
//	[6b line offset][channel][column][bank][row]
//
// so consecutive cache lines interleave across channels (maximizing
// channel parallelism) while consecutive channel-local lines walk the
// columns of one row (preserving row-buffer locality), the conventional
// DRAMSim2-style mapping.
type AddrMap struct {
	Channels int
	Banks    int

	chBits, colBits, bankBits int
	linesPerRow               int
	rows                      int64
}

// NewAddrMap builds the mapping for the given memory geometry.
func NewAddrMap(g Geometry) (*AddrMap, error) {
	a := &AddrMap{Channels: g.Channels, Banks: g.Banks}
	if g.Channels <= 0 || g.Channels&(g.Channels-1) != 0 || g.Banks <= 0 || g.Banks&(g.Banks-1) != 0 {
		return nil, fmt.Errorf("mem: channels (%d) and banks (%d) must be powers of two", g.Channels, g.Banks)
	}
	a.chBits = bits.TrailingZeros(uint(g.Channels))
	a.bankBits = bits.TrailingZeros(uint(g.Banks))
	a.linesPerRow = int(g.RowBytes / ecc.LineBytes)
	if a.linesPerRow <= 0 || a.linesPerRow&(a.linesPerRow-1) != 0 {
		return nil, fmt.Errorf("mem: lines per row %d must be a positive power of two", a.linesPerRow)
	}
	a.colBits = bits.TrailingZeros(uint(a.linesPerRow))
	// Dividing in turn equals dividing by the product, which could
	// overflow.
	a.rows = g.CapacityBytes / int64(g.Channels) / int64(g.Banks) / g.RowBytes
	if a.rows <= 0 {
		return nil, fmt.Errorf("mem: capacity %d too small for geometry", g.CapacityBytes)
	}
	return a, nil
}

// Coord locates a line within the memory system.
type Coord struct {
	Channel int
	Bank    int
	Row     int64
	Col     int
	// LineIdx is the channel-local line index used as the functional
	// store key (unique per channel).
	LineIdx uint64
	// RotIdx is the index that drives the rotation schemes: the
	// channel-local sequential line number, so successive channel-local
	// addresses get successive rotation offsets (Section IV-C2 uses
	// "Address modulo (k x L)"; we use the channel-local equivalent so
	// all eight/ten offsets occur regardless of channel interleaving).
	RotIdx uint64
}

// Decode maps a byte address to its coordinates. Addresses beyond the
// configured capacity wrap (the simulator's synthetic footprints stay
// inside capacity; wrapping just keeps arithmetic total).
func (a *AddrMap) Decode(addr uint64) Coord {
	line := addr >> 6
	var c Coord
	c.Channel = int(line & uint64(a.Channels-1))
	line >>= uint(a.chBits)
	c.Col = int(line & uint64(a.linesPerRow-1))
	line >>= uint(a.colBits)
	c.Bank = int(line & uint64(a.Banks-1))
	line >>= uint(a.bankBits)
	if rows := uint64(a.rows); rows&(rows-1) == 0 {
		c.Row = int64(line & (rows - 1)) // line % rows, without the division
	} else {
		c.Row = int64(line % rows)
	}
	c.LineIdx = (uint64(c.Row)*uint64(a.Banks)+uint64(c.Bank))*uint64(a.linesPerRow) + uint64(c.Col)
	c.RotIdx = uint64(c.Row)*uint64(a.linesPerRow) + uint64(c.Col)
	return c
}

// Channel returns the channel of addr, Decode(addr).Channel: the
// controller facade routes every request by it.
func (a *AddrMap) Channel(addr uint64) int { return int(addr>>6) & (a.Channels - 1) }

// Encode is the inverse of Decode for in-capacity coordinates, used by
// tests and trace tooling.
func (a *AddrMap) Encode(c Coord) uint64 {
	line := uint64(c.Row)
	line = line<<uint(a.bankBits) | uint64(c.Bank)
	line = line<<uint(a.colBits) | uint64(c.Col)
	line = line<<uint(a.chBits) | uint64(c.Channel)
	return line << 6
}

// CoordFromLineIdx rebuilds the full coordinates of a channel-local
// line index (the inverse of the LineIdx construction in Decode); the
// wear-leveling remapper uses it to locate a remapped physical line.
func (a *AddrMap) CoordFromLineIdx(channel int, lineIdx uint64) Coord {
	var c Coord
	c.Channel = channel
	c.Col = int(lineIdx % uint64(a.linesPerRow))
	rest := lineIdx / uint64(a.linesPerRow)
	c.Bank = int(rest % uint64(a.Banks))
	c.Row = int64(rest/uint64(a.Banks)) % a.rows
	c.LineIdx = lineIdx
	c.RotIdx = uint64(c.Row)*uint64(a.linesPerRow) + uint64(c.Col)
	return c
}

// LinesPerChannel returns the channel-local line count.
func (a *AddrMap) LinesPerChannel() uint64 {
	return uint64(a.rows) * uint64(a.Banks) * uint64(a.linesPerRow)
}

// LinesPerRow returns the number of cache lines per row buffer.
func (a *AddrMap) LinesPerRow() int { return a.linesPerRow }

// Rows returns the number of rows per bank.
func (a *AddrMap) Rows() int64 { return a.rows }
