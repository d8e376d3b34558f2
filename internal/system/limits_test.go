package system

import (
	"errors"
	"math"
	"testing"

	"pcmap/internal/coherence"
	"pcmap/internal/config"
	"pcmap/internal/flat"
	"pcmap/internal/mem"
	"pcmap/internal/pcm"
	"pcmap/internal/sim"
	"pcmap/internal/workloads"
)

// TestLargestConfigLineNumbersFit builds the largest configuration
// Validate accepts (MaxCores cores, the largest capacity) and checks
// that the highest line number any generator, the directory or a PCM
// store can form there still takes a flat.Key: the bound Validate
// enforces is the one the tables need.
func TestLargestConfigLineNumbersFit(t *testing.T) {
	cfg := config.Default()
	cfg.Cores = config.MaxCores
	cfg.NoC.Rows, cfg.NoC.Cols = 4, 4
	cfg.Memory.CapacityBytes = math.MaxInt64 &^ (1<<20 - 1)
	var re *config.RangeError
	if err := cfg.Validate(); !errors.As(err, &re) || re.Field != "Memory.CapacityBytes" {
		t.Fatalf("huge capacity: got %v, want a capacity RangeError", err)
	}
	cfg.Memory.CapacityBytes = re.Max
	if err := cfg.Validate(); err != nil {
		t.Fatalf("largest capacity rejected: %v", err)
	}

	// A channel's store holds its lines, Start-Gap's extra line after
	// them and the spare pool from that index on.
	amap, err := mem.NewAddrMap(cfg.Memory.Geometry())
	if err != nil {
		t.Fatal(err)
	}
	top := amap.LinesPerChannel() - 1 + uint64(max(cfg.Memory.SpareLines, 1))
	if top > flat.MaxLine || top < flat.MaxLine-1<<20 {
		t.Fatalf("highest store line %#x, want at most and near the bound %#x", top, uint64(flat.MaxLine))
	}
	pcm.NewStore().Get(top)

	// Generators, and so the directory, the hierarchy's fetches and
	// the pattern memos, see private regions up to the last core's
	// LLC pool and the shared region.
	shared := workloads.NewSharedRegion()
	highest := shared.Base + shared.Lines*64
	for _, name := range workloads.Names() {
		g := workloads.NewGenerator(workloads.MustByName(name), config.MaxCores-1, sim.NewRNG(1), shared)
		base, lines := g.LLCPoolRange()
		highest = max(highest, base+uint64(lines)*64)
	}
	d := coherence.NewDirectory()
	d.Load(highest-64, config.MaxCores-1)
	if d.Sharers(highest-64) != 1<<(config.MaxCores-1) {
		t.Fatalf("core %d not recorded as a sharer", config.MaxCores-1)
	}
	flat.Key(highest/64 - 1)
}
