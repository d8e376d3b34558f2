package mem

// Queue is a bounded FIFO of requests with FR-FCFS selection support:
// the scheduler prefers row-buffer hits and, among equals, older
// requests (Section II-B).
type Queue struct {
	reqs []*Request
	cap  int
}

// NewQueue returns an empty queue with the given capacity.
func NewQueue(capacity int) *Queue { return &Queue{cap: capacity} }

// Len returns the number of queued requests.
func (q *Queue) Len() int { return len(q.reqs) }

// Full reports whether the queue is at capacity.
func (q *Queue) Full() bool { return len(q.reqs) >= q.cap }

// Occupancy returns the fill fraction in [0,1].
func (q *Queue) Occupancy() float64 {
	if q.cap == 0 {
		return 0
	}
	return float64(len(q.reqs)) / float64(q.cap)
}

// Push appends r. It reports false (and does not enqueue) when full.
func (q *Queue) Push(r *Request) bool {
	if q.Full() {
		return false
	}
	q.reqs = append(q.reqs, r)
	return true
}

// Oldest returns the oldest request matching pred, or nil. A nil pred
// matches everything.
func (q *Queue) Oldest(pred func(*Request) bool) *Request {
	for _, r := range q.reqs {
		if pred == nil || pred(r) {
			return r
		}
	}
	return nil
}

// SelectFRFCFS returns the request the FR-FCFS policy would issue next:
// the oldest ready row-hit request if any, otherwise the oldest ready
// request. classify reports whether a request is ready and whether it
// is a row hit; the scan stops at the first ready row hit.
func (q *Queue) SelectFRFCFS(classify func(*Request) (ready, rowHit bool)) *Request {
	var firstReady *Request
	for _, r := range q.reqs {
		ready, rowHit := classify(r)
		if !ready {
			continue
		}
		if rowHit {
			return r
		}
		if firstReady == nil {
			firstReady = r
		}
	}
	return firstReady
}

// Remove deletes r from the queue (no-op if absent), preserving order.
func (q *Queue) Remove(r *Request) {
	for i, x := range q.reqs {
		if x == r {
			q.reqs = append(q.reqs[:i], q.reqs[i+1:]...)
			return
		}
	}
}

// Each calls fn for every queued request in arrival order; fn returning
// false stops the walk.
func (q *Queue) Each(fn func(*Request) bool) {
	for _, r := range q.reqs {
		if !fn(r) {
			return
		}
	}
}
