package system

import (
	"reflect"
	"testing"

	"pcmap/internal/cache"
)

// hasHighTags reports whether c has grown its array for tag bits 14
// and up (the unexported cache.Cache.hi).
func hasHighTags(c *cache.Cache) bool {
	return !reflect.ValueOf(c).Elem().FieldByName("hi").IsNil()
}

// TestDefaultMachineL2AndLLCStayNarrow pins where the 4-byte cache slot
// pays off: in the default machine every address lies below 9 GB, so
// L2 and LLC tags fit the 14-bit tag word and neither level grows a hi
// array, while the 32-byte-line L1s need 19-bit tags and each grows
// one. A stray allocation on the L2 or LLC would silently add 4 bytes
// for each set header and pool slot (2.4-2.6 MB on the prewarmed LLC).
func TestDefaultMachineL2AndLLCStayNarrow(t *testing.T) {
	for _, mix := range []string{"canneal", "MP4"} {
		s, err := New(WithWorkload(mix))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(2_000, 20_000); err != nil {
			t.Fatal(err)
		}
		if hasHighTags(s.Hier.L2) || hasHighTags(s.Hier.LLC) {
			t.Errorf("%s: hi array on L2 %v, LLC %v; want neither", mix,
				hasHighTags(s.Hier.L2), hasHighTags(s.Hier.LLC))
		}
		for i, l1 := range s.Hier.L1 {
			if !hasHighTags(l1) {
				t.Errorf("%s: L1 %d has no hi array, but its tags need 19 bits", mix, i)
			}
		}
		s.Release()
	}
}
