package cache_test

import (
	"testing"

	"pcmap/internal/config"
	"pcmap/internal/system"
)

// TestLargeCacheFootprintBounded: cache state follows occupancy. The
// 256 MB LLC has 4,194,304 ways, but a machine holds only the lines
// system.New prewarms (under 0.61M for canneal and MP4), so its state
// is about one 8-byte header a set plus pooled blocks for the sets that
// hold more than one line. Dense 4-byte slots cost 17.3 MB.
func TestLargeCacheFootprintBounded(t *testing.T) {
	lvl := config.Default().DRAMLLC
	sets := int(lvl.SizeBytes) / (lvl.Ways * lvl.LineBytes)
	for _, mix := range []string{"canneal", "MP4"} {
		s, err := system.New(system.WithWorkload(mix))
		if err != nil {
			t.Fatal(err)
		}
		got := s.Hier.LLC.StateBytes()
		t.Logf("%s: LLC state %d bytes", mix, got)
		if got < sets*8 || got > 5<<20 {
			t.Errorf("%s: LLC state %d bytes, want between its %d bytes of headers and 5 MB", mix, got, sets*8)
		}
		s.Release()
	}
}
