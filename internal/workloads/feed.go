package workloads

import (
	"fmt"
	"sync"
)

// A core's op stream depends only on its generator (its RNG, pools and
// pattern memo), never on simulated time or on the memory system, so
// it can be produced ahead of the core that consumes it: the simulated
// machine is driven by a trace that happens to be built on the fly.
// A Feed hands a core its generator's ops in fixed batches. While a
// Producer is attached, a second goroutine fills the batches ahead of
// the core; otherwise the core fills them itself, with the same code.
// Either way the core sees exactly the sequence Generator.Next yields,
// so outputs never depend on the host schedule (DESIGN.md §13).

const (
	// feedBatch is how many ops one hand-off carries: large enough that
	// a channel operation per batch is noise next to generating it,
	// small enough that a system's batches stay a few hundred KB.
	feedBatch = 256
	// feedDepth is how many batches a producer may fill ahead of a
	// core.
	feedDepth = 3
)

type batch [feedBatch]Op

// batchPool recycles batches across systems: a sweep builds and
// releases one system after another, and each attached feed holds
// feedDepth+1 batches.
var batchPool = sync.Pool{New: func() any { return new(batch) }}

// Feed delivers one generator's ops in batches. Next runs on the
// simulation goroutine; while a Producer is attached the generator
// belongs to the producer goroutine, and batches change hands only
// through channels.
type Feed struct {
	gen  *Generator
	cur  *batch
	next int // index of cur's next op; feedBatch when cur is spent

	// idle holds batches that are neither current, queued in full, nor
	// handed to a producer. Only the consuming goroutine touches it.
	idle []*batch

	// full queues filled batches, oldest first. Its capacity covers
	// every batch the feed owns, so a producer's send never blocks.
	//pcmaplint:chanowner never closed; a feed's batches outlive any one producer, and Release drains it
	full chan *batch

	prod *Producer // attached producer; nil while the core fills inline
}

// NewFeed returns a feed of g's ops with no producer attached.
func NewFeed(g *Generator) *Feed {
	return &Feed{gen: g, next: feedBatch, full: make(chan *batch, feedDepth+1)}
}

// Generator returns the generator the feed draws from. It must not be
// advanced while a producer is attached.
func (f *Feed) Generator() *Generator { return f.gen }

// Next fills op with the stream's next operation: the same sequence
// the generator's Next yields, whether or not a producer is attached.
func (f *Feed) Next(op *Op) {
	if f.next == feedBatch {
		f.refill()
	}
	*op = f.cur[f.next]
	f.next++
}

// refill replaces the spent current batch with the stream's next one.
// Batches a stopped producer filled come first: they precede
// everything the generator has not yet produced.
func (f *Feed) refill() {
	spent := f.cur
	f.next = 0
	if p := f.prod; p != nil {
		if spent != nil {
			p.work <- job{f, spent}
		}
		f.cur = p.take(f)
		return
	}
	select {
	case b := <-f.full:
		if spent != nil {
			f.idle = append(f.idle, spent)
		}
		f.cur = b
		return
	default:
	}
	if spent == nil {
		spent = batchPool.Get().(*batch)
	}
	f.fill(spent)
	f.cur = spent
}

// fill draws a batch's worth of ops from the generator.
func (f *Feed) fill(b *batch) {
	for i := range b {
		f.gen.Next(&b[i])
	}
}

// Release returns the feed's batches and its generator's write-pattern
// memo to their pools, discarding any ops not yet consumed. No
// producer may be attached, and neither the feed nor its generator may
// be used afterwards.
func (f *Feed) Release() {
	if f.prod != nil {
		panic("workloads: Release of a feed with a producer attached")
	}
	if m := f.gen.patterns; m != nil {
		m.Clear()
		memoPool.Put(m)
		f.gen.patterns = nil
	}
	if f.cur != nil {
		batchPool.Put(f.cur)
		f.cur = nil
	}
	for _, b := range f.idle {
		batchPool.Put(b)
	}
	f.idle = nil
	for len(f.full) > 0 {
		batchPool.Put(<-f.full)
	}
}

// job is one batch for a producer to fill from its feed's generator.
type job struct {
	f *Feed
	b *batch
}

// Producer fills its feeds' batches on a goroutine of its own until
// Stop. A panic in a generator is carried back to the consuming
// goroutine, so the simulation goroutine's recovery (the experiment
// runner's panic isolation) still sees it.
type Producer struct {
	feeds []*Feed

	// work queues spent batches to refill. Its capacity covers every
	// batch of every feed, so handing one back never blocks.
	//pcmaplint:chanowner never closed; Stop returns what is left in it to the feeds' idle lists
	work chan job

	stop    chan struct{} // closed by Stop
	done    chan struct{} // closed when the goroutine exits
	failure any           // a generator panic; written before done closes
}

// Produce attaches a new producer to feeds and starts it. The caller
// must Stop it before using the feeds' generators directly or
// releasing the feeds; until then Next may be called on the feeds only
// from the goroutine that called Produce.
func Produce(feeds ...*Feed) *Producer {
	p := &Producer{
		feeds: feeds,
		work:  make(chan job, len(feeds)*(feedDepth+1)),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	for _, f := range feeds {
		if f.prod != nil {
			panic("workloads: feed already has a producer")
		}
		f.prod = p
		for len(f.idle)+len(f.full) < feedDepth {
			f.idle = append(f.idle, batchPool.Get().(*batch))
		}
		for _, b := range f.idle {
			p.work <- job{f, b}
		}
		f.idle = f.idle[:0]
	}
	go func() {
		defer close(p.done)
		defer func() { p.failure = recover() }()
		for {
			select {
			case <-p.stop:
				return
			case j := <-p.work:
				j.f.fill(j.b)
				j.f.full <- j.b
			}
		}
	}()
	return p
}

// take waits for f's next filled batch.
func (p *Producer) take(f *Feed) *batch {
	select {
	case b := <-f.full:
		return b
	case <-p.done:
		// The goroutine exits early only when a generator panicked.
		panic(fmt.Sprintf("workloads: producer: %v", p.failure))
	}
}

// Stop ends the producer's goroutine, waits for it to exit and detaches
// the feeds. Batches it filled stay queued on their feeds, so their
// streams continue where they were; the generators are the caller's
// again. Stop re-raises a generator panic.
func (p *Producer) Stop() {
	close(p.stop)
	<-p.done
	for len(p.work) > 0 {
		j := <-p.work
		j.f.idle = append(j.f.idle, j.b)
	}
	for _, f := range p.feeds {
		f.prod = nil
	}
	if p.failure != nil {
		panic(fmt.Sprintf("workloads: producer: %v", p.failure))
	}
}
