package stats

import (
	"math"
	"sort"
	"testing"

	"pcmap/internal/sim"
)

// refSortSweep is the batch form of the IRLP sweep: sort every
// recorded edge by time, then integrate once. The streaming tracker
// must reproduce it bit for bit.
func refSortSweep(deltas []irlpDelta, maxChips int) (avg float64, maxBusy int, busy sim.Time) {
	deltas = append([]irlpDelta(nil), deltas...)
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].at < deltas[j].at })
	var (
		writes, chips int
		last          sim.Time
		integral      float64
	)
	for _, d := range deltas {
		if dt := d.at - last; writes > 0 && dt > 0 {
			busy += dt
			c := chips
			if c > maxChips {
				c = maxChips
			}
			integral += float64(dt.Ticks()) * float64(c)
			if c > maxBusy {
				maxBusy = c
			}
		}
		last = d.at
		writes += int(d.write)
		chips += int(d.chip)
	}
	if busy > 0 {
		avg = integral / float64(busy.Ticks())
	}
	return avg, maxBusy, busy
}

// TestIRLPStreamingMatchesSortSweep drives random intervals under the
// tracker's contract (non-decreasing now, every interval starting at
// or after it, Reset at random points) and requires the streaming
// summary to equal the batch sweep of the same intervals exactly. Time
// ranges are small so many edges share a tick, and reads put more
// chips in service than the clamp.
func TestIRLPStreamingMatchesSortSweep(t *testing.T) {
	const maxChips = 8
	rng := sim.NewRNG(29)
	for trial := 0; trial < 300; trial++ {
		x := NewIRLP()
		var recorded []irlpDelta
		var now sim.Time
		for op := 0; op < 400; op++ {
			switch r := rng.Intn(20); {
			case r < 6:
				now += sim.Time(rng.Intn(4))
				x.Advance(now, maxChips)
			case r < 10:
				s := now + sim.Time(rng.Intn(3))
				e := s + sim.Time(rng.Intn(40))
				x.AddWriteWindow(s, e)
				if e > s {
					recorded = append(recorded, irlpDelta{at: s, write: 1}, irlpDelta{at: e, write: -1})
				}
			case r < 19:
				s := now + sim.Time(rng.Intn(3))
				e := s + sim.Time(rng.Intn(25))
				x.AddChipService(s, e)
				if e > s {
					recorded = append(recorded, irlpDelta{at: s, chip: 1}, irlpDelta{at: e, chip: -1})
				}
			default:
				if rng.Intn(4) == 0 {
					x.Reset()
					recorded = recorded[:0]
				}
			}
		}
		x.Finalize(maxChips)
		wantAvg, wantMax, wantBusy := refSortSweep(recorded, maxChips)
		if math.Float64bits(x.Average()) != math.Float64bits(wantAvg) {
			t.Fatalf("trial %d: avg %v, sort-sweep %v", trial, x.Average(), wantAvg)
		}
		if x.MaxBusy() != wantMax || x.WriteBusyTime() != wantBusy {
			t.Fatalf("trial %d: max %d busy %v, sort-sweep max %d busy %v",
				trial, x.MaxBusy(), x.WriteBusyTime(), wantMax, wantBusy)
		}
	}
}

// TestIRLPChipCountMatchesUnitEdges reports random streams of write
// windows and n-chip services to one tracker as one edge pair each, and
// to a second with each service split into n one-chip services. Many
// intervals start at the swept frontier (folded in at once) and many
// edges share an instant; the summaries must be equal bit for bit.
func TestIRLPChipCountMatchesUnitEdges(t *testing.T) {
	const maxChips = 8
	rng := sim.NewRNG(35)
	for trial := 0; trial < 300; trial++ {
		counted, unit := NewIRLP(), NewIRLP()
		var now sim.Time
		for op := 0; op < 400; op++ {
			switch r := rng.Intn(20); {
			case r < 6:
				now += sim.Time(rng.Intn(4))
				counted.Advance(now, maxChips)
				unit.Advance(now, maxChips)
			case r < 10:
				s := now + sim.Time(rng.Intn(2))
				e := s + sim.Time(rng.Intn(40))
				counted.AddWriteWindow(s, e)
				unit.AddWriteWindow(s, e)
			default:
				s := now + sim.Time(rng.Intn(2))
				e := s + sim.Time(rng.Intn(25))
				n := rng.Intn(11)
				counted.AddChipService(s, e, n)
				for i := 0; i < n; i++ {
					unit.AddChipService(s, e)
				}
			}
		}
		counted.Finalize(maxChips)
		unit.Finalize(maxChips)
		if math.Float64bits(counted.Average()) != math.Float64bits(unit.Average()) ||
			counted.MaxBusy() != unit.MaxBusy() || counted.WriteBusyTime() != unit.WriteBusyTime() {
			t.Fatalf("trial %d: avg %v max %d busy %v, unit edges avg %v max %d busy %v", trial,
				counted.Average(), counted.MaxBusy(), counted.WriteBusyTime(),
				unit.Average(), unit.MaxBusy(), unit.WriteBusyTime())
		}
	}
	for _, n := range []int{-1, math.MaxInt8 + 1, 1 << 8} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a chip count of %d must panic, not wrap", n)
				}
			}()
			NewIRLP().AddChipService(10, 20, n)
		}()
	}
	x := NewIRLP()
	x.AddWriteWindow(0, 10)
	x.AddChipService(0, 10, math.MaxInt8)
	x.Finalize(math.MaxInt8)
	if x.MaxBusy() != math.MaxInt8 {
		t.Errorf("the largest chip count reads %d chips busy, want %d", x.MaxBusy(), math.MaxInt8)
	}
}

func TestIRLPAddBeforeFrontierPanics(t *testing.T) {
	x := NewIRLP()
	x.AddWriteWindow(100, 300)
	x.Advance(200, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("an interval starting before the swept frontier must panic")
		}
	}()
	x.AddChipService(150, 250)
}

// TestIRLPSteadyStateAllocs pins the controller's per-request pattern
// (advance to now, report a write window and its chip services) at
// zero allocations once the heap has grown to the in-flight depth.
func TestIRLPSteadyStateAllocs(t *testing.T) {
	x := NewIRLP()
	var now sim.Time
	step := func() {
		now += 10
		x.Advance(now, 8)
		x.AddWriteWindow(now+2, now+60)
		x.AddChipService(now, now+30)
		x.AddChipService(now+2, now+45)
	}
	for i := 0; i < 100; i++ {
		step()
	}
	if n := testing.AllocsPerRun(1000, step); n > 0 {
		t.Fatalf("steady-state add+advance allocates %v per call, want 0", n)
	}
}

// TestIRLPReleaseRecyclesHeap: a released tracker's heap array backs
// the next tracker that starts from empty, so each system's trackers
// do not grow their heaps again.
func TestIRLPReleaseRecyclesHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops values at random")
	}
	a := NewIRLP()
	for i := 1; i <= 100; i++ {
		a.AddWriteWindow(sim.Time(i), sim.Time(i+1000))
	}
	heap := &a.pending[:1][0]
	a.Release()
	if a.pending != nil {
		t.Fatal("Release must detach the heap")
	}
	b := NewIRLP()
	b.AddWriteWindow(5, 10)
	if &b.pending[:1][0] != heap || cap(b.pending) < 200 {
		t.Fatalf("a tracker starting from empty did not take the released heap (cap %d)", cap(b.pending))
	}
	b.Advance(10, 8)
	b.Finalize(8)
	if b.WriteBusyTime() != 5 {
		t.Fatalf("recycled heap changed the sweep: write-busy time %d, want 5", b.WriteBusyTime().Ticks())
	}
}
