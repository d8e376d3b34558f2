package sim

// Waiters is a list of one-shot callbacks woken together — cores
// waiting for a stalled access to become retryable, requests waiting
// for a queue slot. It keeps two backing arrays and swaps them on each
// wake-up, so a steady stream of register/wake cycles allocates
// nothing. Like the Engine, Waiters is not safe for concurrent use.
type Waiters struct {
	list, spare []func()
}

// Add registers fn for the next Wake.
func (w *Waiters) Add(fn func()) { w.list = append(w.list, fn) }

// Wake calls every callback registered before the call, in
// registration order, and unregisters them. A callback that registers
// again during the call lands on the next wake-up's list: the loop
// never runs over the list being appended to, even when a callback
// wakes the same list recursively.
func (w *Waiters) Wake() {
	if len(w.list) == 0 {
		return
	}
	fns := w.list
	w.list, w.spare = w.spare[:0], nil
	for _, fn := range fns {
		fn()
	}
	clear(fns)
	if w.spare == nil {
		w.spare = fns[:0]
	}
}
