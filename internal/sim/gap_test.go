package sim_test

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"pcmap/internal/sim"
	"pcmap/internal/workloads"
)

// gapMeans returns every profile's mean gap, plus 0 and 199, once each.
func gapMeans() []float64 {
	seen := map[float64]bool{0: true, 199: true}
	for _, name := range workloads.Names() {
		seen[workloads.MustByName(name).MeanGap()] = true
	}
	var means []float64
	for m := range seen {
		means = append(means, m)
	}
	sort.Float64s(means)
	return means
}

// TestGapTableExact compares a table with the formula at every bucket
// edge, 64 ulps of the draw's 53-bit uniform either side, and over a
// long run of draws, for every profile's mean gap and for 0 and 199.
func TestGapTableExact(t *testing.T) {
	draws := 20_000_000
	if testing.Short() || raceEnabled {
		draws = 1_000_000
	}
	for _, mean := range gapMeans() {
		t.Run(fmt.Sprint(mean), func(t *testing.T) {
			t.Parallel()
			tab := sim.NewGapTable(mean)
			const ulp = 1 << 11 // one step of Float64's 53-bit u
			for b := uint64(0); b <= 1<<sim.GapBits; b++ {
				edge := b << (64 - sim.GapBits) // wraps to 0 past the last bucket
				for k := -64; k <= 64; k++ {
					for _, low := range []uint64{0, ulp - 1} {
						x := edge + uint64(k)*ulp + low
						if got, want := tab.Gap(x), sim.ExpGap(x, mean); got != want {
							t.Fatalf("x %#x: table gap %d, formula %d", x, got, want)
						}
					}
				}
			}
			table, formula := sim.NewRNG(uint64(mean*1e6)+1), sim.NewRNG(uint64(mean*1e6)+1)
			for i := 0; i < draws; i++ {
				if got, want := tab.Draw(table), int(formula.Exp(mean)+0.5); got != want {
					t.Fatalf("draw %d: table gap %d, formula %d", i, got, want)
				}
			}
		})
	}
}

// TestGapTableShared draws from one table on several goroutines at
// once, as a sweep's simulations share their profiles' tables: racing
// first draws fill each bucket to the same state, and every draw gives
// the formula's gap.
func TestGapTableShared(t *testing.T) {
	const mean, draws = 2.125, 200_000
	tab := sim.NewGapTable(mean)
	var wg sync.WaitGroup
	for g := uint64(0); g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			table, formula := sim.NewRNG(g), sim.NewRNG(g)
			for i := 0; i < draws; i++ {
				if got, want := tab.Draw(table), int(formula.Exp(mean)+0.5); got != want {
					t.Errorf("goroutine %d draw %d: table gap %d, formula %d", g, i, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzGapDraw checks that any mean, finite or not, and any random bits
// give the formula's gap, at the bits themselves and at the edges of
// their bucket.
func FuzzGapDraw(f *testing.F) {
	f.Add(2.125, uint64(0))
	f.Add(0.0, uint64(1)<<63)
	f.Add(199.0, ^uint64(0))
	f.Add(1.5, uint64(0xfff0_0000_0000_0000))
	f.Add(-3.0, uint64(12345))
	f.Add(math.Inf(1), uint64(1)<<52)
	f.Add(math.NaN(), uint64(99))
	f.Add(1e12, uint64(0x7ff0_0000_0000_0800))
	f.Fuzz(func(t *testing.T, mean float64, x uint64) {
		tab := sim.NewGapTable(mean)
		const width = 1 << (64 - sim.GapBits)
		lo := x &^ (width - 1)
		for _, y := range []uint64{x, lo, lo + width - 1, x ^ 1<<11} {
			if got, want := tab.Gap(y), sim.ExpGap(y, mean); got != want {
				t.Fatalf("mean %g, x %#x: table gap %d, formula %d", mean, y, got, want)
			}
		}
	})
}
