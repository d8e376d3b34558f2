package dimm

import (
	"testing"
	"testing/quick"
)

func TestLayoutNoRotation(t *testing.T) {
	l := Layout{}
	for idx := uint64(0); idx < 20; idx++ {
		for w := 0; w < 8; w++ {
			if got := l.DataChip(idx, w); got != w {
				t.Fatalf("line %d word %d -> chip %d, want %d", idx, w, got, w)
			}
		}
		if l.ECCChip(idx) != ECCSlot || l.PCCChip(idx) != PCCSlot {
			t.Fatalf("ECC/PCC must be fixed without rotation")
		}
	}
}

func TestLayoutDataRotation(t *testing.T) {
	l := Layout{RotateData: true}
	// Successive lines shift word 0 across the eight data chips
	// (Figure 6) and never touch the code chips.
	seen := map[int]bool{}
	for idx := uint64(0); idx < 8; idx++ {
		c := l.DataChip(idx, 0)
		if c >= 8 {
			t.Fatalf("data word on code chip %d", c)
		}
		seen[c] = true
		if l.ECCChip(idx) != ECCSlot || l.PCCChip(idx) != PCCSlot {
			t.Fatal("data rotation must not move ECC/PCC")
		}
	}
	if len(seen) != 8 {
		t.Fatalf("word 0 visited %d chips over 8 lines, want 8", len(seen))
	}
}

func TestLayoutECCRotationCoversAllChips(t *testing.T) {
	l := Layout{RotateECC: true}
	eccSeen := map[int]bool{}
	pccSeen := map[int]bool{}
	for idx := uint64(0); idx < 10; idx++ {
		eccSeen[l.ECCChip(idx)] = true
		pccSeen[l.PCCChip(idx)] = true
	}
	if len(eccSeen) != 10 || len(pccSeen) != 10 {
		t.Fatalf("rotation over 10 lines should visit all 10 chips: ecc=%d pcc=%d", len(eccSeen), len(pccSeen))
	}
}

func TestLayoutSlotsDisjoint(t *testing.T) {
	// Property: for any line and layout, the 8 data chips, the ECC chip
	// and the PCC chip are 10 distinct chips.
	if err := quick.Check(func(idx uint64, rd, re bool) bool {
		l := Layout{RotateData: rd, RotateECC: re}
		used := map[int]bool{}
		for w := 0; w < 8; w++ {
			used[l.DataChip(idx, w)] = true
		}
		used[l.ECCChip(idx)] = true
		used[l.PCCChip(idx)] = true
		return len(used) == 10
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWordOnChipInverse(t *testing.T) {
	if err := quick.Check(func(idx uint64, w8 uint8, rd, re bool) bool {
		w := int(w8) % 8
		l := Layout{RotateData: rd, RotateECC: re}
		chip := l.DataChip(idx, w)
		return l.WordOnChip(idx, chip) == w
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWordOnChipCodeChips(t *testing.T) {
	l := Layout{RotateECC: true}
	for idx := uint64(0); idx < 30; idx++ {
		if l.WordOnChip(idx, l.ECCChip(idx)) != -1 {
			t.Fatal("ECC chip must not hold a data word")
		}
		if l.WordOnChip(idx, l.PCCChip(idx)) != -1 {
			t.Fatal("PCC chip must not hold a data word")
		}
	}
}

func TestDataChipsMask(t *testing.T) {
	l := Layout{}
	if m := l.DataChips(0); m != 0xff {
		t.Fatalf("mask %#x, want 0xff", m)
	}
	l = Layout{RotateECC: true}
	for idx := uint64(0); idx < 10; idx++ {
		m := l.DataChips(idx)
		if popcount16(m) != 8 {
			t.Fatalf("line %d data mask %#x has wrong popcount", idx, m)
		}
		if m&(1<<uint(l.ECCChip(idx))) != 0 || m&(1<<uint(l.PCCChip(idx))) != 0 {
			t.Fatalf("line %d data mask overlaps code chips", idx)
		}
	}
}

func popcount16(x uint16) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
