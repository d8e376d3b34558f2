package workloads

import (
	"fmt"
	"strings"
	"testing"

	"pcmap/internal/sim"
)

// mixGenerators builds one generator per core of the named mix, forked
// from one seeded RNG the way a system assembles them.
func mixGenerators(t *testing.T, name string, seed uint64) []*Generator {
	t.Helper()
	m, ok := MixByName(name)
	if !ok {
		t.Fatalf("unknown mix %q", name)
	}
	var shared *SharedRegion
	if m.Multithreaded {
		shared = NewSharedRegion()
	}
	rng := sim.NewRNG(seed)
	var gens []*Generator
	for i, p := range m.Profiles() {
		gens = append(gens, NewGenerator(p, i, rng.Fork(), shared))
	}
	return gens
}

// TestFeedMatchesGenerator: a feed yields exactly its generator's
// sequence with no producer, with one producer for all feeds, with one
// producer per feed, and with producers stopped and restarted in the
// middle of a batch (queued batches first, then inline fills, then a
// new producer continuing the same stream).
func TestFeedMatchesGenerator(t *testing.T) {
	// phases alternate producer-on and producer-off stretches of ops
	// per core; none is a multiple of feedBatch, so every switch lands
	// mid-batch.
	type phase struct {
		ops      int
		producer bool
	}
	modes := []struct {
		name    string
		perFeed bool // one producer per feed instead of one for all
		phases  []phase
	}{
		{"inline", false, []phase{{3000, false}}},
		{"producer", false, []phase{{3000, true}}},
		{"per-feed-producers", true, []phase{{3000, true}}},
		{"restart", false, []phase{{1000, true}, {300, false}, {1100, true}, {5, true}, {900, false}}},
		{"per-feed-restart", true, []phase{{700, true}, {1300, false}, {1000, true}}},
	}
	for _, mix := range []string{"canneal", "MP4"} {
		for _, seed := range []uint64{1, 7} {
			for _, mode := range modes {
				t.Run(fmt.Sprintf("%s/seed%d/%s", mix, seed, mode.name), func(t *testing.T) {
					ref := mixGenerators(t, mix, seed)
					var feeds []*Feed
					for _, g := range mixGenerators(t, mix, seed) {
						feeds = append(feeds, NewFeed(g))
					}
					defer func() {
						for _, f := range feeds {
							f.Release()
						}
					}()
					var want, got Op
					n := 0
					for _, ph := range mode.phases {
						var prods []*Producer
						if ph.producer {
							if mode.perFeed {
								for _, f := range feeds {
									prods = append(prods, Produce(f))
								}
							} else {
								prods = append(prods, Produce(feeds...))
							}
						}
						for i := 0; i < ph.ops; i++ {
							for c, f := range feeds {
								ref[c].Next(&want)
								f.Next(&got)
								if got != want {
									t.Fatalf("core %d op %d: feed %+v, generator %+v", c, n, got, want)
								}
							}
							n++
						}
						for _, p := range prods {
							p.Stop()
						}
					}
				})
			}
		}
	}
}

// TestProducerCarriesGeneratorPanic: a generator that panics on the
// producer goroutine surfaces as a panic on the consuming goroutine,
// where the simulation's own recovery can catch it, and again from
// Stop, so it cannot pass unnoticed.
func TestProducerCarriesGeneratorPanic(t *testing.T) {
	p := MustByName("canneal")
	p.FootprintLines = 0 // every PCM-bound op divides by zero
	f := NewFeed(NewGenerator(p, 0, sim.NewRNG(3), nil))
	prod := Produce(f)
	expectPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			v := recover()
			if v == nil {
				t.Fatalf("%s did not panic", what)
			}
			if !strings.Contains(fmt.Sprint(v), "workloads: producer:") {
				t.Fatalf("%s panicked with %v, want the producer's panic", what, v)
			}
		}()
		fn()
	}
	expectPanic("Next", func() {
		var op Op
		for {
			f.Next(&op)
		}
	})
	expectPanic("Stop", prod.Stop)
}
