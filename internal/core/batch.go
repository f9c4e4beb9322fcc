package core

import (
	"sync/atomic"

	"hybrids/internal/hds"
)

// Outcome is one batched operation's result plus whether it reached a
// combiner at all: Rejected marks publishes refused by a concurrent Close
// (the store was never touched), which would otherwise be
// indistinguishable from an applied operation that returned ok=false.
type Outcome struct {
	// Result is the operation's hds result (zero when Rejected).
	Result hds.Result
	// Rejected reports that the publish was refused by Close.
	Rejected bool
}

const (
	// spinLoads is how many plain loads of its countdown a waiting round
	// makes before it parks: about 10 µs on a 2-vCPU x86 host, longer than
	// a contended round's wait and shorter than the runnable delay of a
	// wake from another P (DESIGN §5.5). No yield: loads only.
	spinLoads = 30000
	// parked is the bit a round sets in pending before it parks.
	parked = 1 << 30
)

// Batcher executes operations with non-blocking calls (§3.5): it keeps up
// to window operations in flight by publishing them in rounds, one list
// entry per (round, partition), and waiting once per round on a countdown
// that the last holder to apply an entry completes — itself, without
// waiting, when every partition it touched was free. The serving layer
// keeps one per connection. All of its state is reused, so steady-state
// Apply calls perform no allocation. A Batcher belongs to one goroutine;
// it is not safe for concurrent use.
type Batcher struct {
	h      *Hybrid
	window int

	// The round in flight, read by the partitions' holders between the
	// publish and their done: the caller's operations and outcome slots,
	// and per partition the indices of the operations it owns, in index
	// order.
	ops []hds.Request
	out []Outcome
	idx [][]int32

	// nodes holds the Batcher's list entry for each partition, reused
	// every round. touched lists the partitions the round has an entry
	// for; scratch receives outcomes when the caller passes no out.
	nodes   []request
	touched []int
	scratch []Outcome

	// pending counts the round's entries not yet applied, plus the parked
	// bit once the caller has stopped spinning; the holder that brings the
	// count to zero with the bit set sends the round's one wake.
	pending atomic.Int32
	wake    chan struct{}
}

// NewBatcher returns a Batcher whose Apply keeps up to window operations
// in flight. window <= 1 keeps one call in flight (blocking behaviour
// through the same path).
func (h *Hybrid) NewBatcher(window int) *Batcher {
	if window <= 0 {
		window = 1
	}
	b := &Batcher{
		h:       h,
		window:  window,
		idx:     make([][]int32, len(h.parts)),
		nodes:   make([]request, len(h.parts)),
		touched: make([]int, 0, len(h.parts)),
		scratch: make([]Outcome, window),
		wake:    make(chan struct{}, 1),
	}
	for p := range b.idx {
		b.idx[p] = make([]int32, 0, window)
		b.nodes[p].grp = b
	}
	return b
}

// Apply executes ops in rounds of at most window operations. Operations
// on one key apply in index order; operations on different partitions
// overlap. When out is non-nil it must hold len(ops) entries and out[i]
// receives ops[i]'s Outcome. Apply returns the number of operations a
// combiner actually applied and, of those, the number whose result was ok
// — so legitimate misses (applied but not succeeded, e.g. a read of an
// absent key) are distinguishable from operations refused by a concurrent
// Close (not applied at all; a round that straddles Close may be refused
// on some partitions only). A key outside the key space panics before
// anything of its round is published.
func (b *Batcher) Apply(ops []hds.Request, out []Outcome) (applied, succeeded int) {
	if out != nil && len(out) != len(ops) {
		panic("core: Batcher.Apply out length does not match ops")
	}
	for lo := 0; lo < len(ops); lo += b.window {
		hi := min(lo+b.window, len(ops))
		res := b.scratch[:hi-lo]
		if out != nil {
			res = out[lo:hi]
		}
		b.round(ops[lo:hi], res)
		for i := range res {
			if !res[i].Rejected {
				applied++
			}
			if res[i].Result.OK {
				succeeded++
			}
		}
	}
	return applied, succeeded
}

// round routes ops, publishes one entry per partition touched, serving
// each before publishing to the next, and waits — a spin, then a park —
// until every entry is applied or refused; after Close it marks every op
// Rejected without publishing.
func (b *Batcher) round(ops []hds.Request, out []Outcome) {
	h := b.h
	// Route the whole round before publishing any of it. The lists are
	// reset here, not after the wake, so a panic on an invalid key leaves
	// nothing behind for the next call.
	for _, p := range b.touched {
		b.idx[p] = b.idx[p][:0]
	}
	b.touched = b.touched[:0]
	for i := range ops {
		p := h.Partition(ops[i].Key)
		if len(b.idx[p]) == 0 {
			b.touched = append(b.touched, p)
		}
		b.idx[p] = append(b.idx[p], int32(i))
	}
	if h.closed.Load() {
		for i := range out {
			out[i] = Outcome{Rejected: true}
		}
		return
	}
	b.ops, b.out = ops, out
	b.pending.Store(int32(len(b.touched)))
	// Publish to a free partition while one is left: a held one may be
	// free by then, and this caller applies its own entry.
	for i := range b.touched {
		for j := i + 1; j < len(b.touched) && h.parts[b.touched[i]].held.Load(); j++ {
			b.touched[i], b.touched[j] = b.touched[j], b.touched[i]
		}
		p := b.touched[i]
		h.parts[p].publish(&b.nodes[p])
	}
	for i := 0; i < spinLoads; i++ {
		if b.pending.Load() == 0 {
			return
		}
	}
	if b.pending.Add(parked) != parked {
		<-b.wake
	}
}

// done is called by a partition's holder after applying (or refusing) its
// entry of the round.
func (b *Batcher) done() {
	if b.pending.Add(-1) == parked {
		b.wake <- struct{}{}
	}
}
