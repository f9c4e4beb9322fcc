package core

import (
	"sync/atomic"

	"hybrids/internal/hds"
)

// Outcome is one batched operation's result plus whether it reached a
// combiner at all: Rejected marks publishes refused by a concurrent Close
// (the store was never touched), which would otherwise be
// indistinguishable from an applied operation that returned ok=false.
// Close rejects no Scan: its Result is ok with its pair count.
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
// to window operations in flight in rounds, one entry per (round,
// partition), and waits once per round on a countdown that the last
// holder to apply an entry completes. The caller applies the entries of
// the partitions it finds free and publishes the rest to their holders,
// so it waits for nothing when every partition it touched was free. A
// Scan is served in the round by its start partition's holder and, if
// short of its limit there, continued after the wait through ScanAppend.
// The serving layer keeps one per connection. All of its state is reused,
// so steady-state Apply calls perform no allocation. A Batcher belongs to
// one goroutine; it is not safe for concurrent use.
//
// A call of one (a blocking call or a barrier) whose spin on the holder
// flag ran out is a round of one on a pooled Batcher (Hybrid.call) that
// parks at once: its entry carries the call's one operation, or the
// barrier's closure, which the holder runs in place of operations.
type Batcher struct {
	// The call, read by the partitions' holders between a round's publish
	// and their done: a barrier's closure, ops, outcome slots and the
	// per-partition state. pending counts the round's entries not yet
	// applied, plus the parked bit once the caller has stopped spinning;
	// the holder that brings the count to zero with the bit set sends the
	// round's one wake, on a channel made at the Batcher's first park.
	// op1 and out1 are a pooled call's ops and out.
	snap    func(s Store)
	ops     []hds.Request
	out     []Outcome
	parts   []batchPart
	pending atomic.Int32
	wake    chan struct{}
	op1     [1]hds.Request
	out1    [1]Outcome

	h      *Hybrid
	window int
	spin   int // loads of pending before the round parks

	// kv holds the scans' pairs, scan i's region being pairs[i]. touched
	// lists the partitions the round has an entry for; scratch receives
	// outcomes when the caller passes no out.
	kv      []KV
	pairs   [][]KV
	touched []int32
	scratch []Outcome
}

// batchPart is a Batcher's state for one partition: its list entry,
// reused every round, and the round's data ops it owns and the scans
// starting in it (index order).
type batchPart struct {
	entry     request
	idx, sidx []int32
}

// NewBatcher returns a Batcher whose Apply keeps up to window operations
// in flight (at least one). Its rounds spin spinLoads loads before they
// park; a pooled round of one parks at once (DESIGN §5.5).
func (h *Hybrid) NewBatcher(window int) *Batcher {
	return h.newBatcher(max(window, 1), spinLoads)
}

// newBatcher makes a Batcher in three allocations, so a pool refill stays
// cheap: the Batcher, its per-partition state, and one array backing
// every partition's idx list and touched. The wake channel waits for the
// first park, which a call on a free partition never reaches.
func (h *Hybrid) newBatcher(window, spin int) *Batcher {
	n := len(h.parts)
	slots := make([]int32, n*window+min(n, window))
	b := &Batcher{h: h, window: window, spin: spin, parts: make([]batchPart, n), touched: slots[n*window : n*window]}
	for p := range b.parts {
		b.parts[p].entry.grp = b
		b.parts[p].idx = slots[p*window : p*window : (p+1)*window]
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
// anything of its round is published. A Scan reserves Value pairs and
// sees the writes before it in ops, none after.
func (b *Batcher) Apply(ops []hds.Request, out []Outcome) (applied, succeeded int) {
	if out == nil {
		if len(b.scratch) < len(ops) {
			b.scratch = make([]Outcome, len(ops))
		}
		out = b.scratch[:len(ops)]
	} else if len(out) != len(ops) {
		panic("core: Batcher.Apply out length does not match ops")
	}
	b.ops, b.out, b.kv = ops, out, b.kv[:0]
	clear(b.pairs)
	for lo := 0; lo < len(ops); {
		lo = b.round(lo, min(lo+b.window, len(ops)))
	}
	for i := range out {
		if !out[i].Rejected {
			applied++
		}
		if out[i].Result.OK {
			succeeded++
		}
	}
	return applied, succeeded
}

// Pairs returns the last Apply's pairs for Scan ops[i]; valid until the next Apply.
func (b *Batcher) Pairs(i int) []KV { return b.pairs[i] }

// round routes ops[lo:hi] up to its first write at or above a scan's
// start partition, makes one entry per partition touched, applying it on
// a free partition and publishing it to a held one's holder, waits until
// all are applied or refused, finishes the scans and returns where it
// stopped.
func (b *Batcher) round(lo, hi int) int {
	h, ops, parts := b.h, b.ops, b.parts
	// Route the whole round before publishing any of it. The lists are
	// reset here, not after the wake, so a panic on an invalid key leaves
	// nothing behind for the next call.
	for _, p := range b.touched {
		bp := &parts[p]
		if bp.idx = bp.idx[:0]; len(bp.sidx) > 0 { // sidx is written only when it holds scans
			bp.sidx = bp.sidx[:0]
		}
	}
	b.touched = b.touched[:0]
	floor := len(parts) // the lowest start partition of the round's scans
	for i := lo; i < hi; i++ {
		p, scan := 0, ops[i].Kind == hds.Scan
		if scan {
			p = int(min(ops[i].Key/h.span, uint64(len(parts)-1)))
			floor = min(floor, p)
			b.reserve(i, ops[i].Value)
		} else if p = h.Partition(ops[i].Key); p >= floor && ops[i].Kind != hds.Read {
			hi = i
			break
		}
		bp := &parts[p]
		if len(bp.idx) == 0 && len(bp.sidx) == 0 {
			b.touched = append(b.touched, int32(p))
		}
		if scan {
			bp.sidx = append(bp.sidx, int32(i))
		} else {
			bp.idx = append(bp.idx, int32(i))
		}
	}
	b.pending.Store(int32(len(b.touched)))
	// Serve a free partition while one is left: a held one may be free by
	// then. A free one is taken with the election's CAS, its list combined
	// and the entry applied in place, tallied as a combine of it alone.
	for i := range b.touched {
		for j := i + 1; j < len(b.touched) && h.parts[b.touched[i]].held.Load(); j++ {
			b.touched[i], b.touched[j] = b.touched[j], b.touched[i]
		}
		p := b.touched[i]
		if part, e := h.parts[p], &parts[p].entry; part.held.Load() || !part.held.CompareAndSwap(false, true) {
			part.publish(e)
		} else {
			part.combine()
			part.round(1, len(parts[p].idx)+len(parts[p].sidx))
			part.apply(e)
			part.held.Store(false)
			part.serve()
		}
	}
	b.wait()
	for _, p := range b.touched {
		for _, i := range parts[p].sidx {
			if kv := &b.pairs[i]; int(p)+1 < len(parts) {
				*kv = h.ScanAppend(*kv, uint64(p+1)*h.span, cap(*kv)-len(*kv))
			}
			b.out[i] = Outcome{Result: hds.Result{Value: uint64(len(b.pairs[i])), OK: true}}
		}
	}
	return hi
}

// reserve carves op i's region of limit pairs from kv, regrown when full.
func (b *Batcher) reserve(i int, limit uint64) {
	b.pairs = append(b.pairs, make([][]KV, max(i+1-len(b.pairs), 0))...)
	if n := uint64(len(b.kv)); uint64(cap(b.kv))-n < limit {
		b.kv = make([]KV, 0, n+limit)
	}
	n := len(b.kv)
	b.pairs[i], b.kv = b.kv[n:n:n+int(limit)], b.kv[:n+int(limit)]
}

// wait returns once the round's entries are all applied or refused: it
// makes up to spin plain loads of the countdown, then sets the parked bit
// and parks until the last holder's wake.
func (b *Batcher) wait() {
	for i := 0; i < b.spin && b.pending.Load() != 0; i++ {
	}
	if b.pending.Load() == 0 {
		return
	}
	if b.wake == nil {
		b.wake = make(chan struct{}, 1)
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
