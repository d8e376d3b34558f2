// Package noc models the on-chip interconnect of Table I: a 2x4
// packet-switched mesh with XY (dimension-ordered) routing, a 1-cycle
// router and 1-cycle link per hop. Cores and cache banks are placed on
// the mesh nodes; the model provides per-message latency plus light
// per-link serialization so hot links queue.
//
// Every route is computed once. New walks the XY path of each (from,
// to) node pair and stores it in one route table as the hop count
// followed by the directed links crossed, in order, so Send books a
// message by walking a few bytes and Latency reads the hop count. A
// second table holds each message size's flit serialization up to a
// cache line, and a third each cache bank's node: no message divides.
// The per-hop walk these tables replaced survives as the test
// reference (refMesh in ref_test.go).
package noc

import (
	"fmt"

	"pcmap/internal/config"
	"pcmap/internal/obs"
	"pcmap/internal/sim"
)

// maxLinks bounds the directed links of a mesh: config.Validate caps
// its nodes at MaxNoCNodes, four links each, so a link index fits the
// route table's bytes.
const maxLinks = config.MaxNoCNodes * numDirs

// Mesh is the interconnect. One Mesh instance serves a whole chip.
type Mesh struct {
	rows, cols int
	nodes      int
	hop        sim.Time // router plus link traversal of one hop
	link       sim.Time // per-hop link traversal
	flitBytes  int

	// route holds every node pair's XY route at a fixed stride:
	// route[(from*nodes+to)*stride] is its hop count and the next hop
	// count bytes the directed links it crosses, in order.
	route  []uint8
	stride int

	// serial[b] is the flit serialization of a b-byte message, for the
	// message sizes up to a cache line.
	serial [config.LineBytes + 1]sim.Time

	// bankNode[b] is cache bank b's node.
	bankNode [config.MaxNoCNodes]uint8

	// linkFree[l] is when directed link l is next free; links are
	// indexed by (fromNode, direction).
	linkFree [maxLinks]sim.Time

	Messages stats64
	Hops     stats64

	// Timeline instrumentation (nil when tracing is off): each message
	// becomes one span from departure to arrival on the mesh track.
	trace *obs.Tracer
	track obs.TrackID
	nmMsg obs.NameID
}

type stats64 struct{ n, sum uint64 }

func (s *stats64) add(v int) { s.n++; s.sum += uint64(v) }

// Count returns the number of recorded samples.
func (s *stats64) Count() uint64 { return s.n }

// Mean returns the average sample.
func (s *stats64) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.sum) / float64(s.n)
}

const numDirs = 4 // E, W, N, S

// New builds the mesh from a configuration that config.Validate
// accepts, precomputing its route, serialization and bank tables.
func New(cfg config.NoC) *Mesh {
	n := cfg.Rows * cfg.Cols
	m := &Mesh{
		rows:      cfg.Rows,
		cols:      cfg.Cols,
		nodes:     n,
		hop:       sim.CPUCycle.Times(cfg.RouterCycles) + sim.CPUCycle.Times(cfg.LinkCycles),
		link:      sim.CPUCycle.Times(cfg.LinkCycles),
		flitBytes: cfg.FlitBytes,
		// A route's hop count, then at most rows-1 + cols-1 links.
		stride: cfg.Rows + cfg.Cols - 1,
	}
	m.route = make([]uint8, n*n*m.stride)
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			i := m.at(from, to)
			m.walk(from, to, m.route[i:i+m.stride])
		}
	}
	for b := range m.serial {
		m.serial[b] = m.serialization(b)
	}
	for b := range m.bankNode {
		m.bankNode[b] = uint8(b % n)
	}
	return m
}

// walk writes the XY route from one node to another into r: column
// hops east or west, then row hops south or north.
func (m *Mesh) walk(from, to int, r []uint8) {
	row, col := from/m.cols, from%m.cols
	toRow, toCol := to/m.cols, to%m.cols
	hops := 0
	step := func(dir int) {
		hops++
		r[hops] = uint8((row*m.cols+col)*numDirs + dir)
	}
	for ; col < toCol; col++ {
		step(0) // east
	}
	for ; col > toCol; col-- {
		step(1) // west
	}
	for ; row < toRow; row++ {
		step(2) // south
	}
	for ; row > toRow; row-- {
		step(3) // north
	}
	r[0] = uint8(hops)
}

// serialization is the time a bytes-byte message's flits after the
// first take to cross a link.
func (m *Mesh) serialization(bytes int) sim.Time {
	flits := (bytes + m.flitBytes - 1) / m.flitBytes
	if flits < 1 {
		flits = 1
	}
	return m.link.Times(flits - 1)
}

// serialOf returns serialization(bytes), from the table for messages
// up to a cache line.
func (m *Mesh) serialOf(bytes int) sim.Time {
	if uint(bytes) < uint(len(m.serial)) {
		return m.serial[bytes]
	}
	return m.serialization(bytes)
}

// Instrument attaches the mesh to a timeline track. A nil tracer
// leaves the mesh untraced.
func (m *Mesh) Instrument(tr *obs.Tracer) {
	if tr == nil {
		return
	}
	m.trace = tr
	m.track = tr.Track("noc", "mesh")
	m.nmMsg = tr.Name("message")
}

// Nodes returns the node count.
func (m *Mesh) Nodes() int { return m.nodes }

// at returns the route-table offset of the route from one node to
// another.
func (m *Mesh) at(from, to int) int { return (from*m.nodes + to) * m.stride }

// HopCount returns the XY-routing hop count between two nodes.
func (m *Mesh) HopCount(from, to int) int { return int(m.route[m.at(from, to)]) }

// Send books a message of size bytes from node from to node to,
// departing no earlier than depart. It returns the arrival time,
// accounting router+link latency per hop, flit serialization, and
// queueing on each traversed link. from == to costs nothing.
func (m *Mesh) Send(from, to int, bytes int, depart sim.Time) sim.Time {
	if from == to {
		return depart
	}
	serialization := m.serialOf(bytes)
	i := m.at(from, to)
	hops := int(m.route[i])
	t := depart
	for _, l := range m.route[i+1 : i+1+hops] {
		if m.linkFree[l] > t {
			t = m.linkFree[l]
		}
		t += m.hop
		m.linkFree[l] = t - m.link + serialization
	}
	t += serialization
	m.Messages.add(1)
	m.Hops.add(hops)
	m.trace.Span(m.track, m.nmMsg, depart, t-depart)
	return t
}

// Latency returns the unloaded latency for a message (no booking).
func (m *Mesh) Latency(from, to int, bytes int) sim.Time {
	return m.hop.Times(m.HopCount(from, to)) + m.serialOf(bytes)
}

// CoreNode maps core i to its mesh node (cores fill the mesh row-major;
// config.Validate keeps every core on a node of its own).
func (m *Mesh) CoreNode(core int) int { return core }

// BankNode maps cache bank b to its mesh node (banks co-located with
// nodes round-robin, the usual tiled layout).
func (m *Mesh) BankNode(bank int) int {
	if uint(bank) < uint(len(m.bankNode)) {
		return int(m.bankNode[bank])
	}
	return bank % m.nodes
}

func (m *Mesh) String() string { return fmt.Sprintf("mesh(%dx%d)", m.rows, m.cols) }
