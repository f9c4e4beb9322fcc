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

// Batcher executes operations with non-blocking calls (§3.5): it keeps up
// to window operations in flight by publishing them in rounds, one
// mailbox entry per (round, partition), and waiting once per round on a
// countdown that the last holder to apply an entry completes — itself,
// without parking, when every partition it touched was free. The serving
// layer keeps one per connection. All of its state is reused, so
// steady-state Apply calls perform no allocation. A Batcher belongs to
// one goroutine; it is not safe for concurrent use.
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

	// touched lists the partitions the round has an entry for; scratch
	// receives outcomes when the caller passes no out.
	touched []int
	scratch []Outcome

	// pending counts the round's entries not yet applied; the holder
	// that brings it to zero sends the one wake of the round.
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
		touched: make([]int, 0, len(h.parts)),
		scratch: make([]Outcome, window),
		wake:    make(chan struct{}, 1),
	}
	for p := range b.idx {
		b.idx[p] = make([]int32, 0, window)
	}
	return b
}

// Apply executes ops in rounds of at most window operations. Operations
// on one key apply in index order; operations on different partitions
// overlap. When out is non-nil it must hold len(ops) entries and out[i]
// receives ops[i]'s Outcome. Apply returns the number of operations a
// combiner actually applied and, of those, the number whose result was ok
// — so legitimate misses (applied but not succeeded, e.g. a read of an
// absent key) are distinguishable from rounds refused by a concurrent
// Close (not applied at all). A key outside the key space panics before
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
		if !b.round(ops[lo:hi], res) {
			continue
		}
		applied += hi - lo
		for i := range res {
			if res[i].Result.OK {
				succeeded++
			}
		}
	}
	return applied, succeeded
}

// round routes ops, publishes one entry per partition touched — serving
// each partition before publishing to the next, so it never blocks on a
// send while an entry of its own waits for it — and waits until every
// entry is applied, reporting true; after Close it marks every op
// Rejected and reports false, with no store touched.
func (b *Batcher) round(ops []hds.Request, out []Outcome) bool {
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
	b.ops, b.out = ops, out
	b.pending.Store(int32(len(b.touched)))
	h.mu.RLock()
	if h.closed {
		h.mu.RUnlock()
		for i := range out {
			out[i] = Outcome{Rejected: true}
		}
		return false
	}
	for _, p := range b.touched {
		h.parts[p].publish(request{grp: b})
	}
	h.mu.RUnlock()
	<-b.wake
	return true
}

// done is called by a partition's holder after applying its entry of the
// round.
func (b *Batcher) done() {
	if b.pending.Add(-1) == 0 {
		b.wake <- struct{}{}
	}
}
