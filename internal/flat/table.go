// Package flat provides Table, the open-addressing hash table behind
// the simulator's line-keyed hot structures: the PCM store's line
// index, the coherence directory, the cache hierarchy's outstanding
// fetches and the workload generators' write-pattern memo. Every owner
// keys its table by line number through Key, so a key is 32 bits
// whatever the value, and a slot takes its value's alignment: a table
// of uint8 spends 5 bytes a slot, of 4-byte values 8, of pointers 16.
// Values live in place in one slot array, so tracking a key allocates
// nothing beyond the array's doublings, and a lookup is one probe
// sequence over adjacent slots.
package flat

import (
	"fmt"
	"sync"
)

// MaxLine is the largest line number Key accepts. config.Validate
// rejects any machine whose memory or cores could form a larger one.
const MaxLine = 1<<32 - 2

// Key returns a line's table key, the line number plus one (key 0
// marks an empty slot). It panics if the line does not fit, so a
// truncated key can never alias two lines.
//
// Owners call Key at each Get, Put and Delete rather than the table
// deriving keys itself: on 84-byte slots (the PCM store's lines, once
// held in place), deriving the key inside Put made a warm lookup about
// 60% slower.
func Key(line uint64) uint32 {
	if line > MaxLine {
		panic(LineError(line))
	}
	return uint32(line + 1)
}

// LineError is Key's panic value: a line number too large for a key.
type LineError uint64

func (e LineError) Error() string {
	return fmt.Sprintf("flat: line number %#x does not fit a 32-bit key", uint64(e))
}

// slot is one entry of a table. Its key is four little-endian bytes,
// not a uint32, so the slot aligns to its value alone: a uint8 slot is
// 5 bytes, not 8. find compares the four bytes as one array, a single
// 32-bit compare on amd64; k decodes it only to hash it again.
// Neither calls binary.LittleEndian: its Uint32 is not inlined into a
// generic method's shape body, and a call per probe step made
// mp-compute about 5% slower.
type slot[V any] struct {
	key [4]byte // all zero marks the slot empty
	val V
}

// keyBytes returns a key as a slot stores it.
func keyBytes(key uint32) [4]byte {
	return [4]byte{byte(key), byte(key >> 8), byte(key >> 16), byte(key >> 24)}
}

// k returns the slot's key, the inverse of keyBytes.
func (s *slot[V]) k() uint32 {
	return uint32(s.key[0]) | uint32(s.key[1])<<8 | uint32(s.key[2])<<16 | uint32(s.key[3])<<24
}

// Table maps non-zero uint32 keys (see Key) to values of type V held
// in place. It probes linearly from a Fibonacci hash of the key, keeps
// a power-of-two slot count that starts at 256 and doubles before the
// table passes 3/4 full, and deletes by shifting later entries of the
// probe run back into the hole (Knuth's algorithm R), so there are no
// tombstones and probe runs never lengthen with churn.
//
// The zero Table is empty and ready to use; it allocates its slots on
// the first Put. A *V returned by Get, Lookup or Put, and a slot
// returned by Lookup, stay valid until the next Put, Delete, DeleteSlot
// or Clear, any of which may move entries.
type Table[V any] struct {
	slots []slot[V]
	n     int   // occupied slots
	shift uint8 // 64 - log2(len(slots)): home keeps the hash's top bits
}

// initialBits sizes a table's first slot array (256 slots), small
// enough that building a system does not notice it.
const initialBits = 8

// Len returns the number of keys in the table.
func (t *Table[V]) Len() int { return t.n }

// home is the slot a key hashes to (Fibonacci hashing: the top bits of
// the key times 2^64/phi).
func (t *Table[V]) home(key uint32) int {
	return int((uint64(key) * 0x9e3779b97f4a7c15) >> t.shift)
}

// find returns the slot holding key, or the empty slot ending its
// probe sequence and false. The table must have slots.
func (t *Table[V]) find(key uint32) (int, bool) {
	want := keyBytes(key)
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		switch t.slots[i].key {
		case want:
			return i, true
		case [4]byte{}:
			return i, false
		}
	}
}

// Get returns key's value, or nil if the key is absent.
func (t *Table[V]) Get(key uint32) *V {
	_, v := t.Lookup(key)
	return v
}

// Lookup returns key's slot and value, or -1 and nil if the key is
// absent. An owner that may delete what it looked up passes the slot
// to DeleteSlot rather than probing again through Delete.
func (t *Table[V]) Lookup(key uint32) (int, *V) {
	if t.n == 0 {
		return -1, nil
	}
	if i, ok := t.find(key); ok {
		return i, &t.slots[i].val
	}
	return -1, nil
}

// Put returns key's value, inserting a zero V first if the key is
// absent; existed reports whether it was present. Key must be non-zero.
func (t *Table[V]) Put(key uint32) (v *V, existed bool) {
	if key == 0 {
		panic("flat: zero key")
	}
	if t.slots == nil {
		t.slots = make([]slot[V], 1<<initialBits)
		t.shift = 64 - initialBits
	}
	i, ok := t.find(key)
	if !ok {
		if 4*(t.n+1) > 3*len(t.slots) {
			t.grow()
			i, _ = t.find(key)
		}
		t.slots[i].key = keyBytes(key)
		t.n++
	}
	return &t.slots[i].val, ok
}

// grow doubles the slot array and reinserts every entry.
func (t *Table[V]) grow() {
	old := t.slots
	t.slots = make([]slot[V], 2*len(old))
	t.shift--
	mask := len(t.slots) - 1
	for k := range old {
		if old[k].key == [4]byte{} {
			continue
		}
		i := t.home(old[k].k())
		for t.slots[i].key != [4]byte{} {
			i = (i + 1) & mask
		}
		t.slots[i] = old[k]
	}
}

// Delete removes key and reports whether it was present.
func (t *Table[V]) Delete(key uint32) bool {
	i, v := t.Lookup(key)
	if v != nil {
		t.DeleteSlot(i)
	}
	return v != nil
}

// DeleteSlot removes the entry in slot i, as Lookup returned it.
func (t *Table[V]) DeleteSlot(i int) {
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].key != [4]byte{}; j = (j + 1) & mask {
		// The entry at j may fill the hole at i only if i lies on its
		// probe path, i.e. no further from j than its home slot is.
		if (j-t.home(t.slots[j].k()))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = slot[V]{}
	t.n--
}

// Clear removes every key but keeps the grown slot array, so a table
// that is refilled to the same size does not allocate again.
func (t *Table[V]) Clear() {
	clear(t.slots)
	t.n = 0
}

// Pool recycles tables across their owners' lifetimes: a sweep builds
// one system after another, and each owner's table would otherwise
// grow from 256 slots again. Get returns an empty table; Put clears
// the table and keeps its slot array for the next Get. A table's slot
// count never reaches an output, since a Table has no iteration. The
// zero Pool is ready to use and must not be copied after first use.
type Pool[V any] struct {
	p sync.Pool
}

// Get returns an empty table, recycled when the pool holds one.
func (p *Pool[V]) Get() *Table[V] {
	if t, ok := p.p.Get().(*Table[V]); ok {
		return t
	}
	return new(Table[V])
}

// Put clears t and returns it to the pool. The caller must not use t
// afterwards.
func (p *Pool[V]) Put(t *Table[V]) {
	t.Clear()
	p.p.Put(t)
}
