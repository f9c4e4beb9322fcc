package offload

import (
	"fmt"
	"slices"

	"hybrids/internal/dsim/fc"
	"hybrids/internal/dsim/kv"
	"hybrids/internal/sim/machine"
	"hybrids/internal/sim/trace"
)

// inflight carries one non-blocking operation through the window.
type inflight[S any] struct {
	op   kv.Op
	part int
	st   S
}

// window manages a host thread's in-flight non-blocking NMP calls (§3.5).
//
// Each host thread owns k publication slots in every partition's list:
// window position i maps to slot thread*k+i of whichever partition that
// operation targets. Because an in-flight operation occupies one window
// position, two in-flight operations can never collide on a (partition,
// slot) pair.
type window[S any] struct {
	pubs   []*fc.PubList
	thread int
	k      int
	ops    []*inflight[S] // the operation at each position; nil when free
	count  int
	next   int // round-robin poll cursor
}

// openWindow creates thread's window of k in-flight operations over the
// per-partition publication lists.
func openWindow[S any](pubs []*fc.PubList, thread, k int) *window[S] {
	for _, p := range pubs {
		if (thread+1)*k > p.Slots() {
			panic(fmt.Sprintf("offload: thread %d window %d exceeds %d slots", thread, k, p.Slots()))
		}
	}
	return &window[S]{pubs: pubs, thread: thread, k: k, ops: make([]*inflight[S], k)}
}

func (w *window[S]) full() bool  { return w.count == w.k }
func (w *window[S]) empty() bool { return w.count == 0 }

// post publishes req for a, to partition a.part, through the first free
// window position without blocking. The window must not be full.
func (w *window[S]) post(c *machine.Ctx, a *inflight[S], req fc.Request) {
	if w.full() {
		panic("offload: post on full window")
	}
	pos := slices.Index(w.ops, nil)
	if pos < 0 {
		// full() said a position was free but none is: count and ops
		// have desynced. Fail loudly here rather than letting postAt die
		// with an opaque index-out-of-range.
		panic(fmt.Sprintf("offload: window accounting desync: count=%d k=%d but every position is occupied",
			w.count, w.k))
	}
	w.postAt(c, pos, a, req)
}

// postAt publishes req for a through a specific free window position.
// Multi-phase protocols (the hybrid B+ tree's LOCK_PATH / RESUME_INSERT
// exchange) use it to keep a conversation on one publication slot, since
// the combiner keys its pending state by slot.
func (w *window[S]) postAt(c *machine.Ctx, pos int, a *inflight[S], req fc.Request) {
	if w.ops[pos] != nil {
		panic("offload: postAt on occupied position")
	}
	w.ops[pos] = a
	w.count++
	w.pubs[a.part].Post(c, w.thread*w.k+pos, req)
}

// harvest blocks until some in-flight operation completes, then removes
// it from the window and returns it with its response and window
// position. The window must not be empty. Each round registers
// completion watchers on every in-flight slot (fc.PubList.Watch is
// idempotent), then polls one in-flight operation per occupied position
// in round-robin order, so the polling cost of deep windows stays
// proportional to progress, and parks if none has completed: a watched
// completion always wakes the thread, including one that lands during
// the poll round.
func (w *window[S]) harvest(c *machine.Ctx) (*inflight[S], fc.Response, int) {
	if w.empty() {
		panic("offload: harvest on empty window")
	}
	for {
		for pos, a := range w.ops {
			if a != nil {
				w.pubs[a.part].Watch(c, w.thread*w.k+pos)
			}
		}
		for probes := w.count; probes > 0; probes-- {
			pos := w.next
			for w.ops[pos] == nil {
				pos = (pos + 1) % w.k
			}
			// Advance the cursor before polling: the next probe polls the
			// next in-flight operation.
			w.next = (pos + 1) % w.k
			a, slot := w.ops[pos], w.thread*w.k+pos
			if w.pubs[a.part].Done(c, slot) {
				resp := w.pubs[a.part].ReadResponse(c, slot)
				w.ops[pos] = nil
				w.count--
				return a, resp, pos
			}
		}
		// Cycles parked waiting for any in-flight completion are offload
		// wait; fc.PubList.Done carves out each request's serialization
		// share when it observes the completion.
		parked := c.Now()
		c.A.Block()
		c.AttrAdd(trace.BucketOffloadWait, c.Now()-parked)
	}
}
