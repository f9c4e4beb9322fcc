package core

import (
	"sync"
	"sync/atomic"
)

// Future states. A future starts pending, moves to parked when a waiter
// blocks on it, and to done when the holder completes it; parked -> done
// carries a wake send.
const (
	futPending uint32 = iota
	futParked
	futDone
)

// future is one blocking call's completion handle (§3.2): wait blocks
// until the partition's holder — often the caller itself, before it gets
// here — has applied the operation, and returns its results. It parks
// without spinning (DESIGN §5.5).
//
// Futures are pooled: wait consumes the handle and recycles it, so the
// blocking hot path performs no per-operation allocation.
type future struct {
	node  request // the call's list entry; node.fut points back here
	value uint64
	ok    bool
	state atomic.Uint32
	// wake is allocated once per pooled instance and reused across
	// operations; it holds at most one permit (sent only on the
	// parked -> done transition).
	wake chan struct{}
	// snap, when set, makes the entry a barrier: the holder takes it and
	// runs it on the partition's store in list order instead of applying
	// an operation.
	snap func(s Store)
}

// futPool recycles futures across operations. Instances leave the pool in
// the pending state with an empty wake channel and no barrier closure.
var futPool = sync.Pool{New: func() any {
	f := &future{wake: make(chan struct{}, 1)}
	f.node.fut = f
	return f
}}

// newFuture draws a pending future from the pool.
func newFuture() *future {
	return futPool.Get().(*future)
}

// complete publishes the operation's results and wakes a parked waiter.
// Called exactly once, by the partition's holder (or by the publisher
// itself for a rejected late publish).
func (f *future) complete(value uint64, ok bool) {
	f.value = value
	f.ok = ok
	if f.state.Swap(futDone) == futParked {
		f.wake <- struct{}{}
	}
}

// wait blocks until completion, consumes the future, and returns the read
// value (Get) and the operation's success flag. At most one goroutine may
// wait on a future.
func (f *future) wait() (uint64, bool) {
	if f.state.Load() != futDone && f.state.CompareAndSwap(futPending, futParked) {
		<-f.wake
	}
	value, ok := f.value, f.ok
	f.state.Store(futPending)
	futPool.Put(f)
	return value, ok
}
