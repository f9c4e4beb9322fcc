// Package core realizes the HybriDS programming model on real hardware:
// a concurrent ordered map split into a host-managed routing layer and a
// set of partition-owned stores, each served by flat combining — the
// software stand-in for the paper's per-partition NMP cores. A caller
// pushes its request onto the partition's publication list (§3.2) and
// then tries to become the partition's combiner: if the partition is
// free it takes the whole list and applies the entries, its own and
// other callers', oldest first against the single-threaded store; if
// another caller holds the partition, that holder applies the entry.
// Callers either wait on one call (blocking NMP calls, §3.2, through
// pooled futures) or hold a window of calls in flight (non-blocking NMP
// calls, §3.5) through a Batcher, which publishes one list entry per
// (round, partition) and waits once per round on a single countdown. The
// package starts no goroutine of its own.
//
// The request vocabulary is internal/hds — the same Kinds the simulator's
// experiment drivers issue — so a workload runs unchanged against either
// stack. On a machine with actual near-memory hardware, the elected
// combiner is replaced by an NMP core and the lists by memory-mapped
// ones, which is the system internal/dsim simulates.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hybrids/internal/cds"
	"hybrids/internal/hds"
	"hybrids/internal/metrics"
)

// Store is a single-threaded ordered map owned by one partition. After
// Build, only the caller currently holding the partition uses it.
// cds.BTree implements it; any ordered map can be plugged in.
type Store interface {
	// Get returns the value stored under key.
	Get(key uint64) (uint64, bool)
	// Put inserts key -> value, returning false if the key exists.
	Put(key, value uint64) bool
	// Update overwrites an existing key's value, returning false if
	// absent.
	Update(key, value uint64) bool
	// Delete removes key, returning false if absent.
	Delete(key uint64) bool
	// Len returns the number of stored pairs.
	Len() int
	// Ascend visits pairs in ascending key order starting at from until
	// fn returns false.
	Ascend(from uint64, fn func(key, value uint64) bool)
}

// Instrumented is implemented by stores that expose structural-event
// counters (cds.BTree does). New registers
// each partition store that implements it under "core/p<i>/store", so
// per-partition structural metrics are engine-uniform without the runtime
// knowing any concrete store type.
type Instrumented interface {
	// Instrument registers the store's counters in reg under prefix.
	Instrument(reg *metrics.Registry, prefix string)
}

// Config parameterizes a hybrid map.
type Config struct {
	// Partitions is the number of partition stores, each combined by one
	// caller at a time (the paper uses 8 NMP vaults).
	Partitions int
	// KeyMax bounds the key space; keys are 1..KeyMax-1 and partitions
	// own equal ranges.
	KeyMax uint64
	// NewStore builds each partition's store; nil defaults to cds.NewBTree.
	NewStore func(partition int) Store
	// Metrics receives the runtime's per-partition instruments
	// (core/p<i>/...); nil creates a private registry reachable through
	// Hybrid.Metrics. The registry is unsynchronized: each instrument is
	// touched only by the partition's current holder, ordered by the
	// holder flag, so snapshots are consistent only at quiescence (all
	// published futures consumed, or after Close).
	Metrics *metrics.Registry
}

// KV is one key-value pair (Build input, Dump output).
type KV struct {
	// Key is the pair's key.
	Key uint64
	// Value is the pair's value.
	Value uint64
}

// request is one publication-list node, in one of three shapes: a
// blocking call (req and its completion handle fut), an in-order barrier
// (fut alone, carrying the closure in fut.snap), or one Batcher round's
// operations for this partition (grp alone). Its publisher owns it (a
// future embeds one, a Batcher keeps one per partition) and reuses it.
type request struct {
	req  hds.Request
	fut  *future
	grp  *Batcher
	next *request
}

// Hybrid is a concurrent ordered map with one combiner at a time per
// partition. All exported methods are safe for concurrent use.
type Hybrid struct {
	cfg   Config
	reg   *metrics.Registry
	parts []*partition
	span  uint64
	// closed refuses data calls and rounds before they publish; Close's
	// barriers refuse the ones that raced it (partition.refusing).
	closed atomic.Bool
}

// partition is one combining domain: the store, its publication list, the
// election state and the per-partition instruments. Store, refusing and
// instruments belong to whichever caller holds the partition.
type partition struct {
	id    int
	store Store

	// head is the publication list, newest entry first; held is the
	// holder flag. Both are sequentially consistent atomics, which is what
	// makes a push visible to the holder's re-check after its release
	// (DESIGN §5.5). refusing is set by Close's barrier: every data entry
	// taken after it completes as refused, with no store touched.
	head     atomic.Pointer[request]
	held     atomic.Bool
	refusing bool

	cOps     *metrics.Counter
	cBuilt   *metrics.Counter
	hBatch   *metrics.Histogram
	hMailbox *metrics.Histogram
}

// New creates a hybrid map. It starts no goroutine.
func New(cfg Config) *Hybrid {
	if cfg.Partitions <= 0 {
		cfg.Partitions = 8
	}
	if cfg.KeyMax == 0 {
		cfg.KeyMax = 1 << 62
	}
	if cfg.NewStore == nil {
		cfg.NewStore = func(int) Store { return cds.NewBTree() }
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	// span is ceil(KeyMax/Partitions), written so that it cannot wrap.
	h := &Hybrid{
		cfg:  cfg,
		reg:  reg,
		span: (cfg.KeyMax-1)/uint64(cfg.Partitions) + 1,
	}
	for p := 0; p < cfg.Partitions; p++ {
		part := &partition{
			id:       p,
			store:    cfg.NewStore(p),
			cOps:     reg.Counter(fmt.Sprintf("core/p%d/ops", p)),
			cBuilt:   reg.Counter(fmt.Sprintf("core/p%d/built", p)),
			hBatch:   reg.Histogram(fmt.Sprintf("core/p%d/batch", p)),
			hMailbox: reg.Histogram(fmt.Sprintf("core/p%d/mailbox", p)),
		}
		if ins, ok := part.store.(Instrumented); ok {
			ins.Instrument(reg, fmt.Sprintf("core/p%d/store", p))
		}
		h.parts = append(h.parts, part)
	}
	return h
}

// Metrics returns the registry carrying the runtime's instruments. Read
// it only at quiescence (see Config.Metrics).
func (h *Hybrid) Metrics() *metrics.Registry { return h.reg }

// exec executes one operation against the partition's store.
func (p *partition) exec(req hds.Request) (value uint64, ok bool) {
	switch req.Kind {
	case hds.Read:
		value, ok = p.store.Get(req.Key)
	case hds.Insert:
		ok = p.store.Put(req.Key, req.Value)
	case hds.Update:
		ok = p.store.Update(req.Key, req.Value)
	case hds.Remove:
		ok = p.store.Delete(req.Key)
	case hds.Scan:
		// Per-partition range read: count pairs with key >= Key, at most
		// Value of them. Cross-partition scans that need the pairs
		// themselves go through Hybrid.Scan instead.
		var n uint64
		p.store.Ascend(req.Key, func(uint64, uint64) bool {
			if n >= req.Value {
				return false
			}
			n++
			return true
		})
		value, ok = n, true
	}
	return value, ok
}

// apply runs one list entry and completes it, counting its operations in
// cOps first. Behind Close's barrier a data entry completes as refused
// (Rejected, or ok=false) without touching the store; barriers still run.
func (p *partition) apply(r *request) {
	if b := r.grp; b != nil {
		idx, ops, out := b.idx[p.id], b.ops, b.out
		if p.refusing {
			for _, i := range idx {
				out[i] = Outcome{Rejected: true}
			}
		} else {
			p.cOps.Add(uint64(len(idx)))
			for _, i := range idx {
				value, ok := p.exec(ops[i])
				out[i] = Outcome{Result: hds.Result{Value: value, OK: ok}}
			}
		}
		b.done()
		return
	}
	switch fn := r.fut.snap; {
	case fn != nil:
		r.fut.snap = nil
		fn(p.store)
		r.fut.complete(0, true)
	case p.refusing:
		r.fut.complete(0, false)
	default:
		p.cOps.Inc()
		r.fut.complete(p.exec(r.req))
	}
}

// publish pushes r onto the partition's list, which never waits, and
// serves the partition: when it returns, r is applied or left to a holder
// that will find it.
func (p *partition) publish(r *request) {
	for {
		r.next = p.head.Load()
		if p.head.CompareAndSwap(r.next, r) {
			break
		}
	}
	p.serve()
}

// serve is the election. While the list is non-empty and the partition is
// free, the caller takes it and combines; a caller that loses the swap
// leaves its entry to the winner, which re-checks the list after every
// release — so a push that lost the race is seen by that re-check.
func (p *partition) serve() {
	for p.head.Load() != nil && p.held.CompareAndSwap(false, true) {
		p.combine()
		p.held.Store(false)
	}
}

// combine is one combine round, run while holding the partition: it
// takes the whole list with one swap, reverses it in place and applies it
// oldest first. Every instrument write that covers an entry happens
// before that entry completes, so a caller that has consumed everything
// it published can snapshot the registry without racing a holder.
func (p *partition) combine() {
	r := p.head.Swap(nil)
	if r == nil {
		return // taken by the previous holder between our load and swap
	}
	var oldest *request
	entries, n := 0, 0
	for r != nil {
		next := r.next
		r.next, oldest = oldest, r
		r = next
		entries++
		if oldest.grp != nil {
			n += len(oldest.grp.idx[p.id])
		} else {
			n++
		}
	}
	p.hMailbox.Observe(uint64(entries))
	p.hBatch.Observe(uint64(n))
	for r := oldest; r != nil; {
		next := r.next // a completed node is its publisher's again at once
		p.apply(r)
		r = next
	}
}

// queued counts the entries on the list. Only the holder takes entries
// off it, so a holder may walk it while others push.
func (p *partition) queued() int {
	n := 0
	for r := p.head.Load(); r != nil; r = r.next {
		n++
	}
	return n
}

// Close refuses further data operations and runs one barrier per
// partition: an entry ahead of a partition's barrier is applied by the
// time Close returns, an entry behind it is refused without touching the
// store (ok=false, or Rejected), so a round that straddles Close may be
// applied on some partitions and refused on others. Close is idempotent,
// and read-only accessors (Len, Dump, Scan) keep working afterwards.
func (h *Hybrid) Close() {
	h.closed.Store(true)
	for _, part := range h.parts {
		h.barrier(part.id, func(Store) { part.refusing = true })
	}
}

// Closed reports whether Close has begun.
func (h *Hybrid) Closed() bool { return h.closed.Load() }

// Partition returns the partition owning key.
func (h *Hybrid) Partition(key uint64) int {
	if key == 0 || key >= h.cfg.KeyMax {
		panic(fmt.Sprintf("core: key %d outside key space [1,%d)", key, h.cfg.KeyMax))
	}
	return int(key / h.span)
}

// Partitions returns the number of partitions.
func (h *Hybrid) Partitions() int { return len(h.parts) }

// KeyMax returns the exclusive key-space bound; valid keys are
// 1..KeyMax-1 (key 0 is the -inf sentinel).
func (h *Hybrid) KeyMax() uint64 { return h.cfg.KeyMax }

// async publishes req to its partition and returns the call's future, or
// — after Close — a future already completed as a rejection (ok=false)
// with no store touched.
func (h *Hybrid) async(req hds.Request) *future {
	part := h.Partition(req.Key)
	fut := newFuture()
	if h.closed.Load() {
		fut.complete(0, false)
	} else {
		fut.node.req = req
		h.parts[part].publish(&fut.node)
	}
	return fut
}

// Apply executes one request as a blocking NMP call (§3.2) and returns
// its result.
func (h *Hybrid) Apply(req hds.Request) hds.Result {
	value, ok := h.async(req).wait()
	return hds.Result{Value: value, OK: ok}
}

// Get returns the value stored under key (blocking call).
func (h *Hybrid) Get(key uint64) (uint64, bool) {
	r := h.Apply(hds.Request{Kind: hds.Read, Key: key})
	return r.Value, r.OK
}

// Put inserts key -> value, returning false if the key exists.
func (h *Hybrid) Put(key, value uint64) bool {
	return h.Apply(hds.Request{Kind: hds.Insert, Key: key, Value: value}).OK
}

// Update overwrites an existing key's value, returning false if absent.
func (h *Hybrid) Update(key, value uint64) bool {
	return h.Apply(hds.Request{Kind: hds.Update, Key: key, Value: value}).OK
}

// Delete removes key, returning false if absent.
func (h *Hybrid) Delete(key uint64) bool {
	return h.Apply(hds.Request{Kind: hds.Remove, Key: key}).OK
}

// barrier runs fn on partition p's store while holding the partition, in
// list order (after every entry published before it), and waits for it.
// Barriers are not data operations: they work after Close too.
func (h *Hybrid) barrier(p int, fn func(s Store)) {
	fut := newFuture()
	fut.snap = fn
	h.parts[p].publish(&fut.node)
	fut.wait()
}

// Len sums the partition store sizes. Each partition's count is read
// while holding the partition, in list order, so the result is a
// per-partition linearizable size (exact at quiescence).
func (h *Hybrid) Len() int {
	total := 0
	for p := range h.parts {
		h.barrier(p, func(s Store) { total += s.Len() })
	}
	return total
}

// Dump returns every stored pair in ascending key order. Partitions own
// contiguous key ranges, so concatenating per-partition ascents in
// partition order yields the global order. Each partition is read while
// holding it, in list order (exact at quiescence, e.g. after Close).
func (h *Hybrid) Dump() []KV {
	var out []KV
	for p := range h.parts {
		h.barrier(p, func(s Store) {
			s.Ascend(0, func(k, v uint64) bool {
				out = append(out, KV{Key: k, Value: v})
				return true
			})
		})
	}
	return out
}

// Scan returns up to limit pairs with keys >= from, in ascending key
// order. Partitions own contiguous key ranges, so the walk visits them in
// partition order and stops as soon as limit pairs are collected. Each
// partition is read while holding it, in list order (a barrier), so the
// result is per-partition linearizable: it observes every operation
// published to a partition before the scan reached it, but partitions are
// visited one after another, not atomically. from may be 0 (scan from the
// smallest key).
func (h *Hybrid) Scan(from uint64, limit int) []KV {
	return h.ScanAppend(nil, from, limit)
}

// ScanAppend is Scan appending into dst (which may be nil), returning the
// extended slice. With a reusable buffer of sufficient capacity a scan
// performs no allocation; the pairs are appended after dst's existing
// contents.
func (h *Hybrid) ScanAppend(dst []KV, from uint64, limit int) []KV {
	if limit <= 0 {
		return dst
	}
	c := cursorPool.Get().(*scanCursor)
	c.dst, c.from, c.base, c.limit = dst, from, len(dst), limit
	for p := 0; p < len(h.parts) && len(c.dst)-c.base < limit; p++ {
		if from/h.span > uint64(p) {
			continue // partition's whole key range lies below from
		}
		h.barrier(p, c.ascend)
	}
	dst = c.dst
	c.dst = nil
	cursorPool.Put(c)
	return dst
}

// scanCursor is one ScanAppend's state, pooled with its callbacks bound
// once: closures made per scan would escape and allocate.
type scanCursor struct {
	dst         []KV
	from        uint64
	base, limit int
	ascend      func(s Store)
	visit       func(k, v uint64) bool
}

var cursorPool = sync.Pool{New: func() any {
	c := new(scanCursor)
	c.ascend = func(s Store) { s.Ascend(c.from, c.visit) }
	c.visit = func(k, v uint64) bool { // a barrier runs only while there is room
		c.dst = append(c.dst, KV{Key: k, Value: v})
		return len(c.dst)-c.base < c.limit
	}
	return c
}}
