package noc

import (
	"testing"

	"pcmap/internal/config"
	"pcmap/internal/sim"
)

// refMesh is the reference the differential tests and FuzzMeshSend
// hold Mesh to: the mesh before its route table, which split node ids
// into (row, col) and walked the XY path hop by hop on every message,
// dividing for the coordinates and the flit count each time.
type refMesh struct {
	rows, cols   int
	router, link sim.Time
	flitBytes    int
	linkFree     []sim.Time

	Messages, Hops stats64
}

func newRefMesh(cfg config.NoC) *refMesh {
	return &refMesh{
		rows:      cfg.Rows,
		cols:      cfg.Cols,
		router:    sim.CPUCycle.Times(cfg.RouterCycles),
		link:      sim.CPUCycle.Times(cfg.LinkCycles),
		flitBytes: cfg.FlitBytes,
		linkFree:  make([]sim.Time, cfg.Rows*cfg.Cols*numDirs),
	}
}

func (m *refMesh) Nodes() int { return m.rows * m.cols }

func (m *refMesh) coord(node int) (int, int) { return node / m.cols, node % m.cols }

func (m *refMesh) HopCount(from, to int) int {
	fr, fc := m.coord(from)
	tr, tc := m.coord(to)
	return abs(fr-tr) + abs(fc-tc)
}

func (m *refMesh) Send(from, to int, bytes int, depart sim.Time) sim.Time {
	if from == to {
		return depart
	}
	flits := (bytes + m.flitBytes - 1) / m.flitBytes
	if flits < 1 {
		flits = 1
	}
	serialization := m.link.Times(flits - 1)
	t := depart
	hops := 0
	book := m.router + m.link
	r, c := m.coord(from)
	tr, tc := m.coord(to)
	for c != tc {
		dir := 0 // east
		if c > tc {
			dir = 1 // west
		}
		idx := (r*m.cols+c)*numDirs + dir
		if m.linkFree[idx] > t {
			t = m.linkFree[idx]
		}
		t += book
		m.linkFree[idx] = t - m.link + serialization
		hops++
		if dir == 0 {
			c++
		} else {
			c--
		}
	}
	for r != tr {
		dir := 2 // south
		if r > tr {
			dir = 3 // north
		}
		idx := (r*m.cols+c)*numDirs + dir
		if m.linkFree[idx] > t {
			t = m.linkFree[idx]
		}
		t += book
		m.linkFree[idx] = t - m.link + serialization
		hops++
		if dir == 2 {
			r++
		} else {
			r--
		}
	}
	t += serialization
	m.Messages.add(1)
	m.Hops.add(hops)
	return t
}

func (m *refMesh) Latency(from, to int, bytes int) sim.Time {
	hops := m.HopCount(from, to)
	flits := (bytes + m.flitBytes - 1) / m.flitBytes
	if flits < 1 {
		flits = 1
	}
	return (m.router + m.link).Times(hops) + m.link.Times(flits-1)
}

func (m *refMesh) CoreNode(core int) int { return core % m.Nodes() }

func (m *refMesh) BankNode(bank int) int { return bank % m.Nodes() }

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// meshGeometries are the (rows, cols) shapes the differential tests
// cover: a single node, a line, the Table I 2x4 mesh, a square, an odd
// rectangle and the largest mesh, whose last link index fills a byte.
var meshGeometries = [][2]int{{1, 1}, {1, 8}, {2, 4}, {4, 4}, {3, 5}, {8, 8}}

// meshFlits are the flit sizes they cover, 24 bytes dividing no
// message size of the hierarchy.
var meshFlits = []int{8, 16, 24}

// meshConfig returns the NoC configuration an encoded run names: its
// geometry and flit size, with router and link cycles of 1 to 3.
func meshConfig(geometry, flit, cycles byte) config.NoC {
	g := meshGeometries[int(geometry)%len(meshGeometries)]
	return config.NoC{
		Rows:         g[0],
		Cols:         g[1],
		RouterCycles: 1 + int(cycles)%3,
		LinkCycles:   1 + int(cycles/3)%3,
		FlitBytes:    meshFlits[int(flit)%len(meshFlits)],
	}
}

// genMeshOps encodes a run of n random messages for checkMeshOps: a
// 3-byte header (geometry, flit size, cycles), then per message its
// source, destination, size in bytes and departure step. A step of 0
// departs with the previous message; half the messages do, so links
// queue.
func genMeshOps(geometry, flit int, n int, rng *sim.RNG) []byte {
	data := []byte{byte(geometry), byte(flit), byte(rng.Intn(9))}
	for i := 0; i < n; i++ {
		step := byte(0)
		if rng.Bool(0.5) {
			step = byte(rng.Intn(256))
		}
		data = append(data, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), step)
	}
	return data
}

// checkMeshOps decodes a run and holds Mesh to refMesh message by
// message: every arrival, every unloaded latency and hop count, every
// core's and bank's node, and the Messages and Hops statistics. A
// message departs step quarter-cycles after the previous one, so
// departures repeat and rise.
func checkMeshOps(t *testing.T, data []byte) {
	if len(data) < 3 {
		return
	}
	cfg := meshConfig(data[0], data[1], data[2])
	m, ref := New(cfg), newRefMesh(cfg)
	n := ref.Nodes()
	if m.Nodes() != n {
		t.Fatalf("%v: %d nodes, reference %d", m, m.Nodes(), n)
	}
	var depart sim.Time
	for i, op := 0, data[3:]; len(op) >= 4; i, op = i+1, op[4:] {
		from, to, bytes := int(op[0])%n, int(op[1])%n, int(op[2])
		depart += (sim.CPUCycle / 4).Times(int(op[3]))
		if got, want := m.Send(from, to, bytes, depart), ref.Send(from, to, bytes, depart); got != want {
			t.Fatalf("%v flit %d message %d (%d->%d, %d B at %d): arrives %d, reference %d",
				m, cfg.FlitBytes, i, from, to, bytes, depart.Ticks(), got.Ticks(), want.Ticks())
		}
		if got, want := m.Latency(from, to, bytes), ref.Latency(from, to, bytes); got != want {
			t.Fatalf("%v flit %d: latency(%d, %d, %d B) %d, reference %d", m, cfg.FlitBytes, from, to, bytes, got.Ticks(), want.Ticks())
		}
		if got, want := m.HopCount(from, to), ref.HopCount(from, to); got != want {
			t.Fatalf("%v: hops(%d, %d) %d, reference %d", m, from, to, got, want)
		}
		if m.CoreNode(from) != ref.CoreNode(from) || m.BankNode(int(op[2])) != ref.BankNode(int(op[2])) {
			t.Fatalf("%v: core %d on node %d (reference %d), bank %d on node %d (reference %d)", m,
				from, m.CoreNode(from), ref.CoreNode(from), op[2], m.BankNode(int(op[2])), ref.BankNode(int(op[2])))
		}
		if m.Messages != ref.Messages || m.Hops != ref.Hops {
			t.Fatalf("%v message %d: messages %+v hops %+v, reference %+v %+v", m, i, m.Messages, m.Hops, ref.Messages, ref.Hops)
		}
	}
}

// TestMeshMatchesReference holds the route table to the per-hop walk
// on every geometry and flit size: first every node pair in turn, all
// departing at one instant and then one a cycle (so the pairs queue on
// each other's links), then random message streams.
func TestMeshMatchesReference(t *testing.T) {
	rng := sim.NewRNG(35)
	for g, geo := range meshGeometries {
		for f := range meshFlits {
			n := geo[0] * geo[1]
			for _, step := range []byte{0, 4} {
				data := []byte{byte(g), byte(f), byte(rng.Intn(9))}
				for from := 0; from < n; from++ {
					for to := 0; to < n; to++ {
						data = append(data, byte(from), byte(to), byte(rng.Intn(2*config.LineBytes)), step)
					}
				}
				checkMeshOps(t, data)
			}
			checkMeshOps(t, genMeshOps(g, f, 5_000, rng))
		}
	}
}

// FuzzMeshSend holds Mesh to the reference on any message stream (see
// checkMeshOps), seeded with short runs of every geometry and flit
// size.
func FuzzMeshSend(f *testing.F) {
	rng := sim.NewRNG(35)
	for g := range meshGeometries {
		for fl := range meshFlits {
			f.Add(genMeshOps(g, fl, 200, rng))
		}
	}
	f.Fuzz(checkMeshOps)
}
