package hds

import "fmt"

// Port is the slice of a partition's publication list a window posts
// through: slot-addressed request publication and completion polling.
// The simulator's fc.PubList implements Port over MMIO with virtual-time
// costs; the native runtime needs none, since a round's operations for
// one partition travel as one list entry.
type Port[Ctx, Req, Resp any] interface {
	// Slots returns the publication-list capacity in slots.
	Slots() int
	// Post publishes req through slot without waiting for completion.
	Post(c Ctx, slot int, req Req)
	// Done reports whether the request in slot has completed. One call
	// makes at most one completion poll.
	Done(c Ctx, slot int) bool
	// ReadResponse returns the response for a completed slot and releases
	// the slot for reuse.
	ReadResponse(c Ctx, slot int) Resp
	// Watch registers interest in slot's completion so a park between
	// poll rounds is woken by it. Implementations without parking may
	// make it a no-op. Watch must be idempotent: Window.Harvest re-calls
	// it on every in-flight slot before each park round, so repeated
	// registrations by the same caller must not accumulate waiter
	// entries or wake permits.
	Watch(c Ctx, slot int)
}

// Window manages a host thread's in-flight non-blocking NMP calls (§3.5).
//
// Each host thread owns k publication slots in every partition's list:
// window position i maps to slot thread*k+i of whichever partition that
// operation targets. Because an in-flight operation occupies one window
// position, two in-flight operations can never collide on a (partition,
// slot) pair.
type Window[Ctx, Req, Resp any] struct {
	thread int
	k      int
	ports  []Port[Ctx, Req, Resp]
	park   func(Ctx)

	inflight []inflightOp
	used     []bool
	count    int
	next     int // round-robin poll cursor
}

type inflightOp struct {
	part int
	tag  any
}

// NewWindow creates a window of k in-flight operations for thread over
// the per-partition ports. park is called between Harvest poll rounds
// once watchers are registered on every in-flight slot; it blocks the
// calling thread until a watched completion wakes it (the simulator
// parks in virtual time and attributes the wait; the native runtime may
// simply yield). A nil park spins.
func NewWindow[Ctx, Req, Resp any](thread, k int, ports []Port[Ctx, Req, Resp], park func(Ctx)) *Window[Ctx, Req, Resp] {
	if k <= 0 {
		panic("hds: window size must be positive")
	}
	for _, p := range ports {
		if (thread+1)*k > p.Slots() {
			panic(fmt.Sprintf("hds: thread %d window %d exceeds %d slots", thread, k, p.Slots()))
		}
	}
	return &Window[Ctx, Req, Resp]{
		thread:   thread,
		k:        k,
		ports:    ports,
		park:     park,
		inflight: make([]inflightOp, k),
		used:     make([]bool, k),
	}
}

// Full reports whether every window position is occupied.
func (w *Window[Ctx, Req, Resp]) Full() bool { return w.count == w.k }

// Empty reports whether no operations are in flight.
func (w *Window[Ctx, Req, Resp]) Empty() bool { return w.count == 0 }

// Len returns the number of in-flight operations.
func (w *Window[Ctx, Req, Resp]) Len() int { return w.count }

// Post publishes req to partition part without blocking, associating tag
// with the operation for completion handling. The window must not be full.
// It returns the window position used (for PostAt follow-ups).
func (w *Window[Ctx, Req, Resp]) Post(c Ctx, part int, req Req, tag any) int {
	if w.Full() {
		panic("hds: Post on full window")
	}
	pos := -1
	for i, u := range w.used {
		if !u {
			pos = i
			break
		}
	}
	if pos == -1 {
		// Full() said a slot was free but the scan found none: count and
		// used have desynced. Fail loudly here rather than letting PostAt
		// die with an opaque index-out-of-range.
		panic(fmt.Sprintf("hds: window accounting desync: count=%d k=%d but no free slot in used=%v",
			w.count, w.k, w.used))
	}
	w.PostAt(c, pos, part, req, tag)
	return pos
}

// PostAt publishes req through a specific free window position. Multi-phase
// protocols (the hybrid B+ tree's LOCK_PATH / RESUME_INSERT exchange) use
// it to keep a conversation on one publication slot, since the combiner
// keys its pending state by slot.
func (w *Window[Ctx, Req, Resp]) PostAt(c Ctx, pos, part int, req Req, tag any) {
	if w.used[pos] {
		panic("hds: PostAt on occupied position")
	}
	w.used[pos] = true
	w.inflight[pos] = inflightOp{part: part, tag: tag}
	w.count++
	w.ports[part].Post(c, w.thread*w.k+pos, req)
}

// SlotFor returns the publication-list slot index behind a window position.
func (w *Window[Ctx, Req, Resp]) SlotFor(pos int) int { return w.thread*w.k + pos }

// TryHarvest polls the next in-flight operation in round-robin order and,
// if complete, removes it from the window and returns its tag, response
// and window position. A single call makes at most one completion poll,
// keeping the polling cost of deep windows proportional to progress.
func (w *Window[Ctx, Req, Resp]) TryHarvest(c Ctx) (tag any, resp Resp, pos int, ok bool) {
	if w.count == 0 {
		return nil, resp, -1, false
	}
	for probe := 0; probe < w.k; probe++ {
		pos := (w.next + probe) % w.k
		if !w.used[pos] {
			continue
		}
		w.next = (pos + 1) % w.k
		p := w.ports[w.inflight[pos].part]
		slot := w.thread*w.k + pos
		if !p.Done(c, slot) {
			// Cursor already advanced: the next call probes the
			// next in-flight operation.
			return nil, resp, -1, false
		}
		resp = p.ReadResponse(c, slot)
		tag = w.inflight[pos].tag
		w.used[pos] = false
		w.inflight[pos] = inflightOp{}
		w.count--
		return tag, resp, pos, true
	}
	return nil, resp, -1, false
}

// Harvest blocks until some in-flight operation completes, then returns
// its tag, response and window position. The window must not be empty.
// The wait registers completion watchers on every in-flight slot and
// parks between poll rounds, so a completion always wakes the thread.
func (w *Window[Ctx, Req, Resp]) Harvest(c Ctx) (tag any, resp Resp, pos int) {
	if w.count == 0 {
		panic("hds: Harvest on empty window")
	}
	for {
		// Register watchers first so a completion landing during the
		// poll round leaves a wake permit.
		for i := 0; i < w.k; i++ {
			if w.used[i] {
				w.ports[w.inflight[i].part].Watch(c, w.thread*w.k+i)
			}
		}
		for probes := w.count; probes > 0; probes-- {
			if tag, resp, pos, ok := w.TryHarvest(c); ok {
				return tag, resp, pos
			}
		}
		if w.park != nil {
			w.park(c)
		}
	}
}
