package workloads

import (
	"fmt"
	"slices"
	"testing"

	"pcmap/internal/flat"
)

// TestRecycledMemoChangesNothing builds and releases one mix's feeds,
// whose memos have grown to the cap, then builds a different mix whose
// generators hold those grown memos. Its feeds must yield exactly the
// ops of generators with fresh memos, with and without a producer.
func TestRecycledMemoChangesNothing(t *testing.T) {
	const ops = 200_000
	for _, producer := range []bool{false, true} {
		t.Run(fmt.Sprintf("producer=%v", producer), func(t *testing.T) {
			var grown []*flat.Table[uint8]
			for _, g := range mixGenerators(t, "MP1", 3) {
				for line := uint64(0); line < memoLines; line++ {
					g.patternFor(line * 64)
				}
				grown = append(grown, g.patterns)
				NewFeed(g).Release()
			}

			// NewGenerator draws memos from the pool, which may have
			// dropped some; hand any generator that did not get a grown
			// memo one the others left, so every memo under test is
			// pre-grown.
			recycled := mixGenerators(t, "canneal", 5)
			spare := slices.Clone(grown)
			for _, g := range recycled {
				if i := slices.Index(spare, g.patterns); i >= 0 {
					spare = slices.Delete(spare, i, i+1)
				}
			}
			for _, g := range recycled {
				if !slices.Contains(grown, g.patterns) {
					g.patterns, spare = spare[0], spare[1:]
					g.patterns.Clear()
				}
			}

			ref := mixGenerators(t, "canneal", 5)
			for _, g := range ref {
				g.patterns = new(flat.Table[uint8])
			}
			var feeds []*Feed
			for _, g := range recycled {
				feeds = append(feeds, NewFeed(g))
			}
			if producer {
				defer Produce(feeds...).Stop()
			}
			var got, want Op
			for i := 0; i < ops; i++ {
				for c, f := range feeds {
					f.Next(&got)
					ref[c].Next(&want)
					if got != want {
						t.Fatalf("core %d op %d: recycled memo gives %+v, fresh %+v", c, i, got, want)
					}
				}
			}
		})
	}
}
