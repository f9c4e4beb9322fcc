// Package core realizes the HybriDS programming model on real hardware:
// a concurrent ordered map split into a host-managed routing layer and a
// set of partition-owned stores, each served by flat combining — the
// software stand-in for the paper's per-partition NMP cores. A caller
// publishes its request to the partition's mailbox (the publication list)
// and then tries to become the partition's combiner: if the partition is
// free it drains the mailbox in batches and applies the entries, its own
// and other callers', against the single-threaded store; if another
// caller holds the partition, that holder applies the entry. Callers
// either wait on one call (blocking NMP calls, §3.2, through pooled
// futures) or hold a window of calls in flight (non-blocking NMP calls,
// §3.5) through a Batcher, which publishes one mailbox entry per (round,
// partition) and waits once per round on a single countdown. The package
// starts no goroutine of its own.
//
// The request vocabulary is internal/hds — the same Kinds the simulator's
// experiment drivers issue — so a workload runs unchanged against either
// stack. On a machine with actual near-memory hardware, the elected
// combiner is replaced by an NMP core and the mailboxes by memory-mapped
// publication lists; the simulated version of exactly that system lives
// in internal/dsim.
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
// counters (cds.BTree and cds.BSkipList do). New registers
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
	// MailboxDepth is each partition's mailbox capacity in entries — a
	// blocking call or barrier is one entry, a Batcher round is one entry
	// per partition it touches — and the cap on the entries a holder
	// takes in one drain before it applies them.
	MailboxDepth int
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

// request is one mailbox entry, in one of three shapes: a blocking call
// (req and its completion handle fut), an in-order barrier (fut alone,
// carrying the closure in fut.snap), or one Batcher round's operations
// for this partition (grp alone).
type request struct {
	req hds.Request
	fut *future
	grp *Batcher
}

// Hybrid is a concurrent ordered map with one combiner at a time per
// partition. All exported methods are safe for concurrent use.
type Hybrid struct {
	cfg   Config
	reg   *metrics.Registry
	parts []*partition
	span  uint64
	// mu guards the closed flag: data publishers hold it shared around
	// the mailbox send, Close holds it exclusively while setting the
	// flag, so every data entry is either in its mailbox ahead of Close's
	// barriers or refused.
	mu     sync.RWMutex
	closed bool
}

// partition is one combining domain: the store, its mailbox, the election
// state and the per-partition instruments. Store, batch and instruments
// belong to whichever caller holds the partition (see Config.Metrics).
type partition struct {
	id    int
	store Store
	reqs  chan request

	// held is the holder flag: the caller that swaps it to true is the
	// partition's combiner until it stores false. undrained counts the
	// entries announced (after their send) and not yet drained; it dips
	// below zero while a drained entry's announce is still on its way.
	// Both are sequentially consistent atomics, which is what makes a
	// publisher's announce visible to the holder's re-check after its
	// release (DESIGN §5.5).
	held      atomic.Bool
	undrained atomic.Int32
	batch     []request

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
	if cfg.MailboxDepth <= 0 {
		cfg.MailboxDepth = 64
	}
	if cfg.NewStore == nil {
		cfg.NewStore = func(int) Store { return cds.NewBTree() }
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	h := &Hybrid{
		cfg:  cfg,
		reg:  reg,
		span: (cfg.KeyMax + uint64(cfg.Partitions) - 1) / uint64(cfg.Partitions),
	}
	for p := 0; p < cfg.Partitions; p++ {
		part := &partition{
			id:       p,
			store:    cfg.NewStore(p),
			reqs:     make(chan request, cfg.MailboxDepth),
			batch:    make([]request, 0, cfg.MailboxDepth),
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

// apply runs one mailbox entry and completes it, counting its operations
// in cOps first.
func (p *partition) apply(r request) {
	if b := r.grp; b != nil {
		idx, ops, out := b.idx[p.id], b.ops, b.out
		p.cOps.Add(uint64(len(idx)))
		for _, i := range idx {
			value, ok := p.exec(ops[i])
			out[i] = Outcome{Result: hds.Result{Value: value, OK: ok}}
		}
		b.done()
		return
	}
	if fn := r.fut.snap; fn != nil {
		r.fut.snap = nil
		fn(p.store)
		r.fut.complete(0, true)
		return
	}
	p.cOps.Inc()
	r.fut.complete(p.exec(r.req))
}

// publish sends r to the mailbox, announces it and serves the partition:
// when it returns, r is applied or left to a holder that will find it.
// The send blocks while the mailbox is full, which is safe because
// nothing between an entry's send and its publisher's serve can block, so
// every entry in a full mailbox is about to be drained (DESIGN §5.5).
func (p *partition) publish(r request) {
	p.reqs <- r
	p.undrained.Add(1)
	p.serve()
}

// serve is the election. While entries are announced and the partition is
// free, the caller takes it and combines; a caller that loses the swap
// leaves its entry to the winner, which re-checks the count after every
// release — so an announce that lost the race is seen by that re-check.
func (p *partition) serve() {
	for p.undrained.Load() > 0 && p.held.CompareAndSwap(false, true) {
		p.combine()
		p.held.Store(false)
	}
}

// combine is one combine round, run while holding the partition: it
// takes the entries the mailbox holds (at most MailboxDepth, its capacity)
// into the partition's batch — the native analogue of a flat-combining
// scan over the publication list — and applies them in mailbox order.
// Every instrument write that covers an entry happens before that entry
// completes, so a caller that has consumed everything it published can
// snapshot the registry without racing a holder.
func (p *partition) combine() {
	// Only the holder receives, so the entries counted here stay until
	// taken; later arrivals are left to serve's re-check.
	batch := p.batch[:len(p.reqs)]
	if len(batch) == 0 {
		return // drained by the previous holder between our load and swap
	}
	p.hMailbox.Observe(uint64(len(batch)))
	n := 0
	for i := range batch {
		r := <-p.reqs
		batch[i] = r
		if r.grp != nil {
			n += len(r.grp.idx[p.id])
		} else {
			n++
		}
	}
	p.undrained.Add(-int32(len(batch)))
	p.hBatch.Observe(uint64(n))
	for _, r := range batch {
		p.apply(r)
	}
}

// Close refuses further data operations and drains every mailbox: entries
// published before Close are fully applied and completed when it returns;
// a publish that happens after Close is refused without touching a store
// (a blocking call returns ok=false, a Batcher round marks every op
// Rejected). Close is idempotent, and read-only accessors (Len, Dump,
// Scan) keep working afterwards: the mailboxes stay open, the closed flag
// refuses data operations only.
func (h *Hybrid) Close() {
	h.mu.Lock()
	h.closed = true
	h.mu.Unlock()
	for p := range h.parts {
		h.barrier(p, func(Store) {})
	}
}

// Closed reports whether Close has begun.
func (h *Hybrid) Closed() bool {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.closed
}

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
	h.mu.RLock()
	if h.closed {
		fut.complete(0, false)
	} else {
		h.parts[part].publish(request{req: req, fut: fut})
	}
	h.mu.RUnlock()
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
// mailbox order (after every entry published before it), and waits for
// it. Barriers are not data operations: they work after Close too.
func (h *Hybrid) barrier(p int, fn func(s Store)) {
	fut := newFuture()
	fut.snap = fn
	h.parts[p].publish(request{fut: fut})
	fut.wait()
}

// Len sums the partition store sizes. Each partition's count is read
// while holding the partition, in mailbox order, so the result is a
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
// holding it, in mailbox order (exact at quiescence, e.g. after Close).
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
// partition is read while holding it, in mailbox order (a barrier), so
// the result is per-partition linearizable: it observes every operation
// published to a partition before the scan reached it, but partitions are
// visited one after another, not atomically. from may be 0 (scan from the
// smallest key).
func (h *Hybrid) Scan(from uint64, limit int) []KV {
	return h.ScanAppend(nil, from, limit)
}

// ScanAppend is Scan appending into dst (which may be nil), returning the
// extended slice. Callers with a reusable buffer avoid Scan's per-call
// allocation; the pairs are appended after dst's existing contents.
func (h *Hybrid) ScanAppend(dst []KV, from uint64, limit int) []KV {
	if limit <= 0 {
		return dst
	}
	base := len(dst)
	for p := 0; p < len(h.parts) && len(dst)-base < limit; p++ {
		if hi := uint64(p+1) * h.span; from >= hi {
			continue // partition's whole key range lies below from
		}
		h.barrier(p, func(s Store) {
			s.Ascend(from, func(k, v uint64) bool {
				if len(dst)-base >= limit {
					return false
				}
				dst = append(dst, KV{Key: k, Value: v})
				return true
			})
		})
	}
	return dst
}
