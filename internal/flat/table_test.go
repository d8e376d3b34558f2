package flat

import (
	"encoding/binary"
	"testing"
	"unsafe"
)

// check compares every key of ref, plus each key in also, against t,
// and the lengths.
func check(tb testing.TB, step int, tab *Table[uint64], ref map[uint32]uint64, also []uint32) {
	tb.Helper()
	if tab.Len() != len(ref) {
		tb.Fatalf("step %d: Len %d, reference %d", step, tab.Len(), len(ref))
	}
	for k, want := range ref {
		if v := tab.Get(k); v == nil || *v != want {
			tb.Fatalf("step %d: key %#x: got %v, reference %d", step, k, v, want)
		}
	}
	for _, k := range also {
		if _, ok := ref[k]; !ok && tab.Get(k) != nil {
			tb.Fatalf("step %d: deleted key %#x still present", step, k)
		}
	}
}

// apply performs one operation on the table and the reference and
// fails on the first disagreement in what the operation reports.
func apply(tb testing.TB, step int, tab *Table[uint64], ref map[uint32]uint64, op byte, key uint32, val uint64) {
	tb.Helper()
	switch op % 4 {
	case 0, 1: // Put (twice as likely, so the table fills)
		v, existed := tab.Put(key)
		if _, ok := ref[key]; existed != ok {
			tb.Fatalf("step %d: Put(%#x) existed=%v, reference %v", step, key, existed, ok)
		}
		if !existed && *v != 0 {
			tb.Fatalf("step %d: Put(%#x) inserted non-zero value %d", step, key, *v)
		}
		*v = val
		ref[key] = val
	case 2: // Delete, or (when op's bit 2 is set) Lookup and DeleteSlot
		_, ok := ref[key]
		if op&4 == 0 {
			if got := tab.Delete(key); got != ok {
				tb.Fatalf("step %d: Delete(%#x) = %v, reference %v", step, key, got, ok)
			}
		} else if i, v := tab.Lookup(key); (v != nil) != ok {
			tb.Fatalf("step %d: Lookup(%#x) = %d, %v, reference present %v", step, key, i, v, ok)
		} else if v != nil {
			tab.DeleteSlot(i)
		}
		delete(ref, key)
	default:
		v := tab.Get(key)
		want, ok := ref[key]
		if (v != nil) != ok || (ok && *v != want) {
			tb.Fatalf("step %d: Get(%#x) = %v, reference %d (present %v)", step, key, v, want, ok)
		}
		if i, lv := tab.Lookup(key); lv != v || (v != nil) != (i >= 0 && &tab.slots[i].val == v) {
			tb.Fatalf("step %d: Lookup(%#x) = %d, %v, Get %v", step, key, i, lv, v)
		}
	}
}

// TestTableMatchesMapClustered confines traffic to keys whose home
// slots are the last few of a new table's slots, so probe runs wrap
// around the table's end and backward-shift deletes move entries across
// it. The set stays small enough that the table never grows, and every
// key is compared after every operation.
func TestTableMatchesMapClustered(t *testing.T) {
	var probe Table[uint64]
	probe.Put(1)
	last := len(probe.slots) - 1
	var keys []uint32
	for k := uint32(1); len(keys) < 64; k++ {
		if probe.home(k) >= last-3 {
			keys = append(keys, k)
		}
	}
	for seed := uint64(1); seed <= 10; seed++ {
		var tab Table[uint64]
		ref := map[uint32]uint64{}
		x := seed
		for step := 0; step < 5_000; step++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			apply(t, step, &tab, ref, byte(x>>8), keys[x%uint64(len(keys))], x)
			check(t, step, &tab, ref, keys)
		}
		if len(tab.slots) != len(probe.slots) {
			t.Fatalf("table grew to %d slots; the clustered set must fit the initial %d", len(tab.slots), len(probe.slots))
		}
	}
}

// TestTableGrowthAndClear fills a table through many doublings, deletes
// every other key, clears it and refills it: every key stays reachable
// and Clear keeps the grown slots.
func TestTableGrowthAndClear(t *testing.T) {
	var tab Table[uint64]
	ref := map[uint32]uint64{}
	const n = 100_000
	for k := uint32(1); k <= n; k++ {
		apply(t, int(k), &tab, ref, 0, k*64, uint64(k))
	}
	for k := uint32(2); k <= n; k += 2 {
		apply(t, int(k), &tab, ref, 2, k*64, 0)
	}
	check(t, n, &tab, ref, nil)
	grown := len(tab.slots)
	tab.Clear()
	if tab.Len() != 0 || tab.Get(64) != nil || len(tab.slots) != grown {
		t.Fatalf("after Clear: Len %d, slots %d (want 0 keys in %d slots)", tab.Len(), len(tab.slots), grown)
	}
	clear(ref)
	for k := uint32(1); k <= n/2; k++ {
		apply(t, int(k), &tab, ref, 0, k, uint64(k))
	}
	check(t, n, &tab, ref, nil)
	if len(tab.slots) != grown {
		t.Fatalf("refill after Clear reallocated: %d slots, had %d", len(tab.slots), grown)
	}
}

// TestTableZeroValue pins the empty table's behaviour before its first
// Put allocates the slots.
func TestTableZeroValue(t *testing.T) {
	var tab Table[int]
	if tab.Get(7) != nil || tab.Delete(7) || tab.Len() != 0 {
		t.Fatal("an empty table must hold no keys")
	}
	tab.Clear()
	if v, existed := tab.Put(7); existed || *v != 0 || tab.Len() != 1 {
		t.Fatalf("first Put: existed %v, value %d, Len %d", existed, *v, tab.Len())
	}
	if len(tab.slots) != 1<<initialBits {
		t.Fatalf("first Put allocated %d slots, want %d", len(tab.slots), 1<<initialBits)
	}
}

// TestTableWarmAllocFree pins Get and Put of present keys at zero
// allocations: values live in place, so only a doubling allocates.
func TestTableWarmAllocFree(t *testing.T) {
	var tab Table[[80]byte]
	const keys = 4096
	for k := uint32(1); k <= keys; k++ {
		tab.Put(k * 64)
	}
	var i uint32
	if n := testing.AllocsPerRun(1000, func() {
		k := (i%keys + 1) * 64
		v, _ := tab.Put(k)
		v[0]++
		if tab.Get(k) == nil {
			t.Fatal("present key missing")
		}
		i++
	}); n != 0 {
		t.Fatalf("warm Get/Put allocated %.1f/op, want 0", n)
	}
}

// FuzzTable decodes the input as a sequence of Put/Get/Delete/Clear
// operations, each a byte choosing the operation and key space and two
// bytes of key, and checks every result and every key against a Go map.
func FuzzTable(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 0, 1, 2, 0, 1, 3, 0, 1})
	f.Add([]byte("\x00\x00\x01\x00\x01\x00\x00\x00\x02\x02\x00\x01\x03\x00\x02\x30\x00\x00\x03\x00\x01"))
	long := make([]byte, 0, 3*3000)
	for i := 0; i < 3000; i++ {
		op := byte(i % 4)
		if i%7 == 0 {
			op = 2
		}
		if i%16 == 8 {
			op |= 4 // spread keys 64 apart
		}
		long = binary.LittleEndian.AppendUint16(append(long, op), uint16(i*37))
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		var tab Table[uint64]
		ref := map[uint32]uint64{}
		var seen []uint32
		for step := 0; len(data) >= 3; step++ {
			op := data[0]
			key := uint32(binary.LittleEndian.Uint16(data[1:3])) + 1
			if op&4 != 0 {
				key *= 64
			}
			data = data[3:]
			if op&0x30 == 0x30 {
				tab.Clear()
				clear(ref)
				continue
			}
			apply(t, step, &tab, ref, op, key, uint64(step))
			seen = append(seen, key)
		}
		check(t, -1, &tab, ref, seen)
	})
}

// TestKey pins the line-number-to-key mapping at both ends of its
// range and the panic past it: a line that does not fit must never be
// truncated onto another line's key.
func TestKey(t *testing.T) {
	if Key(0) != 1 || Key(MaxLine) != 1<<32-1 {
		t.Fatalf("Key(0) = %d, Key(MaxLine) = %d", Key(0), Key(MaxLine))
	}
	defer func() {
		if _, ok := recover().(LineError); !ok {
			t.Fatal("Key(MaxLine+1) did not panic with a LineError")
		}
	}()
	Key(MaxLine + 1)
}

// TestPoolPutClears pins that a table given back to a Pool is empty,
// with its grown slot array kept, and that Get always hands out an
// empty table, whether the pool recycled one or made a new one.
func TestPoolPutClears(t *testing.T) {
	var p Pool[uint64]
	tab := p.Get()
	for k := uint32(1); k <= 1000; k++ {
		v, _ := tab.Put(k)
		*v = uint64(k)
	}
	grown := len(tab.slots)
	p.Put(tab)
	if tab.Len() != 0 || tab.Get(1) != nil || len(tab.slots) != grown {
		t.Fatalf("after Put: Len %d, slots %d (want 0 keys in %d slots)", tab.Len(), len(tab.slots), grown)
	}
	for i := 0; i < 3; i++ {
		if got := p.Get(); got.Len() != 0 || got.Get(1) != nil {
			t.Fatalf("Get %d returned a table holding %d keys", i, got.Len())
		}
	}
}

// TestSlotSizes pins that a slot takes its value's alignment, not its
// key's: the generators' uint8 memo slots are 5 bytes, while 4-byte
// values (the PCM store's index, the directory) and pointers (the
// pending fetches) keep their 8 and 16.
func TestSlotSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"uint8", unsafe.Sizeof(slot[uint8]{}), 5},
		{"uint32", unsafe.Sizeof(slot[uint32]{}), 8},
		{"[4]byte", unsafe.Sizeof(slot[[4]byte]{}), 8},
		{"pointer", unsafe.Sizeof(slot[*int]{}), 16},
	} {
		if c.got != c.want {
			t.Errorf("slot[%s] is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}
