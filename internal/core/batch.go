package core

import (
	"sync/atomic"

	"hybrids/internal/hds"
)

// Outcome is one batched operation's result plus whether it was applied
// at all: Rejected marks operations refused by a concurrent Close (the
// store was never touched), which would otherwise be indistinguishable
// from an applied operation that returned ok=false.
// Close rejects no Scan: its Result is ok with its pair count.
type Outcome struct {
	// Result is the operation's hds result (zero when Rejected).
	Result hds.Result
	// Rejected reports that Close refused the operation: it was not applied.
	Rejected bool
}

// Batcher executes operations with non-blocking calls (§3.5): it keeps up
// to window operations in flight in rounds. A round routes its ops to
// their partitions, answering each read its partition's host portion
// holds (hot.go) with no lock taken, and then takes each touched partition
// in routing order and applies that partition's remaining ops there,
// holding one lock at a time. A Scan is served in
// the round on its start partition and, if short of its limit there,
// continued after the round through ScanAppend. The serving layer keeps
// one per connection and drops it with the connection: the map holds
// nothing of it. All of its state is reused, so steady-state Apply calls
// perform no allocation. A Batcher belongs to one goroutine; it is not
// safe for concurrent use.
type Batcher struct {
	// The call: ops, outcome slots and the per-partition state.
	ops   []hds.Request
	out   []Outcome
	parts []batchPart

	h              *Hybrid
	window, stripe int

	// kv holds the scans' pairs, scan i's region being pairs[i]. touched
	// lists the partitions the round has ops for; scratch receives
	// outcomes when the caller passes no out.
	kv      []KV
	pairs   [][]KV
	touched []int32
	scratch []Outcome
}

// batchPart is a Batcher's state for one partition: the round's data ops
// it applies under the lock and the scans starting in it (index order);
// fresh, the round's reads the host portion answered; and unjudged, the
// hits the partition's window has not been handed.
type batchPart struct {
	idx, sidx       []int32
	fresh, unjudged int32
}

// hitStripes is the number of hit cells per partition. NewBatcher hands
// out stripes round-robin, so up to hitStripes Batchers running at once
// count on lines of their own; more share cells, whose adds stay exact.
const hitStripes = 8

// hitCell counts reads a partition's host portion answered, on a 64-byte
// line of its own. Batchers add to it once per round, any reader loads it.
type hitCell struct {
	n atomic.Uint64
	_ [56]byte
}

// NewBatcher returns a Batcher whose Apply keeps up to window operations
// in flight (at least one), counting its hits in the next stripe. It is
// made in three allocations: the Batcher, its per-partition state, and
// one array backing every partition's idx list and touched.
func (h *Hybrid) NewBatcher(window int) *Batcher {
	window = max(window, 1)
	n := len(h.parts)
	slots := make([]int32, n*window+min(n, window))
	b := &Batcher{h: h, window: window, parts: make([]batchPart, n), touched: slots[n*window : n*window]}
	b.stripe = int(h.stripes.Add(1) % hitStripes)
	for p := range b.parts {
		b.parts[p].idx = slots[p*window : p*window : (p+1)*window]
	}
	return b
}

// hitsOn sums partition p's hit cells: the reads its host portion answered.
func (h *Hybrid) hitsOn(p int) (n uint64) {
	for i := range h.parts[p].hitCells {
		n += h.parts[p].hitCells[i].n.Load()
	}
	return n
}

// Apply executes ops in rounds of at most window operations. Operations
// on one key apply in index order; operations on different partitions
// overlap. When out is non-nil it must hold len(ops) entries and out[i]
// receives ops[i]'s Outcome. Apply returns the number of operations
// actually applied and, of those, the number whose result was ok
// — so legitimate misses (applied but not succeeded, e.g. a read of an
// absent key) are distinguishable from operations refused by a concurrent
// Close (not applied at all; a round that straddles Close may be refused
// on some partitions only). A key outside the key space panics before
// any partition of its round is taken. A Scan reserves Value pairs and
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
// start partition, answering the reads the host portion holds, applies
// each touched partition's other ops under its lock, in routing order,
// finishes the scans and returns where it stopped. A read is
// answered from the table only if no op before it in the round waits for
// the lock on its key, and no scan at or below its partition: those it
// must follow.
func (b *Batcher) round(lo, hi int) int {
	h, ops, parts := b.h, b.ops, b.parts
	// Route the whole round before taking any partition. The lists are
	// reset here, not after the round, so a panic on an invalid key
	// leaves nothing behind for the next call.
	for _, p := range b.touched {
		bp := &parts[p]
		if bp.idx = bp.idx[:0]; len(bp.sidx) > 0 { // sidx is written only when it holds scans
			bp.sidx = bp.sidx[:0]
		}
	}
	b.touched = b.touched[:0]
	floor := len(parts) // the lowest start partition of the round's scans
	hits := false
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
		if ops[i].Kind == hds.Read && p < floor && !b.waits(bp, ops[i].Key) {
			if v, ok := h.parts[p].hit(ops[i].Key); ok {
				b.out[i] = Outcome{Result: hds.Result{Value: v, OK: true}}
				bp.fresh++
				hits = true
				continue
			}
		}
		if len(bp.idx) == 0 && len(bp.sidx) == 0 {
			b.touched = append(b.touched, int32(p))
		}
		if scan {
			bp.sidx = append(bp.sidx, int32(i))
		} else {
			bp.idx = append(bp.idx, int32(i))
		}
	}
	if hits {
		for p := range parts {
			if bp := &parts[p]; bp.fresh > 0 {
				h.parts[p].hitCells[b.stripe].n.Add(uint64(bp.fresh))
				bp.unjudged = min(bp.unjudged+bp.fresh, hotWindow) // a window's worth judges as well as more
				bp.fresh = 0
			}
		}
	}
	// Take each touched partition in routing order. One lock at a time,
	// so no round or barrier waits on a lock held by a waiter.
	for _, p := range b.touched {
		part := h.parts[p]
		part.lock()
		b.serve(part)
	}
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

// waits reports whether an op the round has routed to bp's lock is on key.
func (b *Batcher) waits(bp *batchPart, key uint64) bool {
	for _, j := range bp.idx {
		if b.ops[j].Key == key {
			return true
		}
	}
	return false
}

// serve applies the round's ops on part, whose lock the caller has just
// taken, tallies the round and lets go: it hands the window the Batcher's
// hits there, applies the data ops, counted in ops, and then the scans
// starting there, into their regions. Behind Close's barrier the data ops
// complete as Rejected without touching the store; the scans still run
// (only reads follow them).
func (b *Batcher) serve(part *partition) {
	bp, ops, out := &b.parts[part.id], b.ops, b.out
	part.round(len(bp.idx) + len(bp.sidx))
	if part.refusing {
		for _, i := range bp.idx {
			out[i] = Outcome{Rejected: true}
		}
	} else {
		part.counted(bp.unjudged)
		bp.unjudged = 0
		part.ops += uint64(len(bp.idx))
		for _, i := range bp.idx {
			out[i] = Outcome{Result: part.exec(ops[i])}
		}
	}
	for _, i := range bp.sidx {
		if kv := &b.pairs[i]; cap(*kv) > 0 {
			*kv = part.scan(*kv, ops[i].Key, cap(*kv))
		}
	}
	part.mu.Unlock()
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
