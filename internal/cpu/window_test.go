package cpu

import (
	"slices"
	"testing"

	"pcmap/internal/sim"
)

// scanWindow is the reference load window: the core's original
// scan-based model, which recomputes retirement, the outstanding count
// and the earliest known completion by walking every pending load.
type scanWindow struct {
	pending []load
}

func (s *scanWindow) retireCompleted(now sim.Time) {
	i := 0
	for _, l := range s.pending {
		if l.done != 0 && l.done <= now {
			continue
		}
		s.pending[i] = l
		i++
	}
	s.pending = s.pending[:i]
}

func (s *scanWindow) outstanding(now sim.Time) int {
	n := 0
	for _, l := range s.pending {
		if l.done == 0 || l.done > now {
			n++
		}
	}
	return n
}

// earliest returns the earliest known completion, 0 if none is known.
func (s *scanWindow) earliest() sim.Time {
	var earliest sim.Time
	for _, l := range s.pending {
		if l.done != 0 && (earliest == 0 || l.done < earliest) {
			earliest = l.done
		}
	}
	return earliest
}

func (s *scanWindow) markDone(seq uint64, t sim.Time) {
	for i := range s.pending {
		if s.pending[i].seq == seq && s.pending[i].done == 0 {
			s.pending[i].done = t
			return
		}
	}
}

// checkWindow drives a window and the reference through the operation
// stream ops — appends with known or unknown completion, markDone on a
// pending or absent load, retires at a rising now — and fails at the
// first divergence in the pending slices, the earliest known completion
// or, after a retire, the outstanding count.
func checkWindow(t *testing.T, ops []byte) {
	t.Helper()
	w := newWindow(4)
	var ref scanWindow
	now := sim.Time(1000)
	var seq uint64
	arg := func(i int) int {
		if i+1 < len(ops) {
			return int(ops[i+1])
		}
		return 0
	}
	for i := 0; i < len(ops); i += 2 {
		switch ops[i] % 4 {
		case 0: // a cache hit: completion known at issue
			seq++
			done := now + sim.Time(1+arg(i)%64)
			w.add(seq, done)
			ref.pending = append(ref.pending, load{seq: seq, done: done})
		case 1: // a PCM fetch: completion unknown
			seq++
			w.add(seq, 0)
			ref.pending = append(ref.pending, load{seq: seq, done: 0})
		case 2: // a fill lands, at or before the core's clock or after it
			a := arg(i)
			target := seq - uint64(a%8)
			at := now + sim.Time(a%48-24)
			w.markDone(target, at)
			ref.markDone(target, at)
		case 3: // the core retires at its clock
			now += sim.Time(arg(i) % 40)
			w.retire(now)
			ref.retireCompleted(now)
			if got, want := len(w.pending), ref.outstanding(now); got != want {
				t.Fatalf("op %d: %d pending after retire at %d, want %d outstanding", i, got, now, want)
			}
		}
		if !slices.Equal(w.pending, ref.pending) {
			t.Fatalf("op %d: pending %v, want %v", i, w.pending, ref.pending)
		}
		want := ref.earliest()
		if want == 0 {
			want = never
		}
		if w.nextDone != want {
			t.Fatalf("op %d: nextDone %d, want %d", i, w.nextDone, want)
		}
	}
}

// TestLoadWindowMatchesScan checks the window's incremental nextDone
// against the scan-based reference over random operation streams.
func TestLoadWindowMatchesScan(t *testing.T) {
	rng := sim.NewRNG(3)
	ops := make([]byte, 256)
	for n := 0; n < 2000; n++ {
		for i := range ops {
			ops[i] = byte(rng.Uint64())
		}
		checkWindow(t, ops)
	}
}

func FuzzLoadWindow(f *testing.F) {
	f.Add([]byte{0, 5, 1, 0, 2, 0, 3, 10, 3, 30})
	f.Add([]byte{1, 0, 1, 0, 0, 63, 2, 1, 2, 24, 3, 0, 3, 39})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 2, 0, 3, 1, 3, 2, 3, 3})
	f.Fuzz(checkWindow)
}
