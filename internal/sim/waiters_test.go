package sim

import (
	"slices"
	"testing"
)

func TestWaitersWakeInOrderOnce(t *testing.T) {
	var w Waiters
	var got []int
	for i := 0; i < 3; i++ {
		w.Add(func() { got = append(got, i) })
	}
	w.Wake()
	w.Wake() // one-shot: nothing left to call
	if !slices.Equal(got, []int{0, 1, 2}) {
		t.Fatalf("woke %v, want [0 1 2]", got)
	}
}

// TestWaitersReRegisterDuringWake: a callback that registers again —
// a core whose retry stalls once more — lands on the next wake-up's
// list, also when it wakes the list recursively.
func TestWaitersReRegisterDuringWake(t *testing.T) {
	var w Waiters
	var got []string
	var a, b func()
	a = func() {
		got = append(got, "a")
		w.Add(a)
	}
	b = func() {
		got = append(got, "b")
		w.Wake() // recursive: wakes a's re-registration only
		w.Add(b)
	}
	w.Add(a)
	w.Add(b)
	w.Wake()
	if want := []string{"a", "b", "a"}; !slices.Equal(got, want) {
		t.Fatalf("first wake ran %v, want %v", got, want)
	}
	got = got[:0]
	w.Wake()
	if want := []string{"a", "b", "a"}; !slices.Equal(got, want) {
		t.Fatalf("second wake ran %v, want %v", got, want)
	}
}
