// Package mem provides the memory-controller building blocks shared by
// the baseline and PCMap controllers: the request type, DDR3-style
// physical address mapping, shared command/data bus models with
// turnaround accounting, FR-FCFS queue selection, and the metrics the
// paper's evaluation reports.
package mem

import (
	"pcmap/internal/ecc"
	"pcmap/internal/sim"
)

// Kind distinguishes reads from writes.
type Kind int

const (
	// Read is a demand cache-line fetch (64 B, critical path).
	Read Kind = iota
	// Write is a cache-line write-back from the LLC with a dirty-word
	// mask identifying the essential words.
	Write
)

func (k Kind) String() string {
	if k == Read {
		return "read"
	}
	return "write"
}

// Request is one memory transaction presented to a controller.
type Request struct {
	Kind Kind
	// Addr is the line-aligned physical byte address.
	Addr uint64
	// Mask marks the dirty 8-byte words of a write-back (bit w =>
	// word w changed in the cache). Zero means a fully silent
	// write-back. Ignored for reads.
	Mask uint8
	// Data optionally carries the new line content for writes. When
	// nil, the controller synthesizes changed words so the functional
	// store still exercises real differential writes and parity
	// updates.
	Data *[ecc.LineBytes]byte
	// Core identifies the requesting core (for per-core stats and
	// rollback delivery); -1 for traffic with no core attribution.
	Core int
	// OnDone, if non-nil, runs when the request completes. For RoW
	// reads completion is the moment reconstructed data is returned to
	// the CPU; verification results arrive later via OnVerify.
	OnDone func(*Request)
	// OnVerify, if non-nil, runs for RoW-served reads when the
	// deferred SECDED verification completes; faulty reports whether
	// the initially returned data turned out wrong (the CPU must
	// discard or roll back).
	OnVerify func(r *Request, faulty bool)

	// Timestamps filled by the controller.
	Arrive sim.Time
	Issue  sim.Time
	Done   sim.Time

	// Coord is the request's physical placement, filled by the
	// controller at enqueue and kept current while the request is
	// queued: a wear-leveling gap move or a spare-line remap
	// re-decodes every queued request.
	Coord Coord

	// Started marks a request that has left the queue's schedulable
	// pool and is in service (its queue slot is held until completion,
	// as the controller's buffers hold the data until then).
	Started bool

	// Reconstructed is set when the read was served by RoW, with the
	// busy chip's word rebuilt from PCC parity.
	Reconstructed bool
	// DelayedByWrite is set when the request's service was ever
	// blocked behind an ongoing write (Figure 1's metric).
	DelayedByWrite bool

	// ReadData receives the returned line content for reads.
	ReadData [ecc.LineBytes]byte

	// Err is set before OnDone when the request could not be served
	// correctly — for reads, an *UncorrectableError when stored
	// corruption survived SECDED correction and PCC reconstruction.
	// Nil on every successfully served request.
	Err error
}

// Latency returns the request's total service latency.
func (r *Request) Latency() sim.Time { return r.Done - r.Arrive }
