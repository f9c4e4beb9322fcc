// Package core realizes the HybriDS programming model on real hardware:
// a concurrent ordered map split into a host-managed routing layer and a
// set of partition-owned stores, each served by a dedicated combiner
// goroutine — the software stand-in for the paper's per-partition NMP
// cores. Requests are published to a partition's mailbox (the publication
// list), the combiner drains the mailbox in batches and applies requests
// against its single-threaded store (flat combining), and callers either
// wait on one call (blocking NMP calls, §3.2, through pooled futures) or
// hold a window of calls in flight (non-blocking NMP calls, §3.5) through
// a Batcher, which publishes one mailbox entry per (round, partition) and
// parks once per round on a single countdown.
//
// The request vocabulary is internal/hds — the same Kinds the simulator's
// experiment drivers issue — so a workload runs unchanged against either
// stack. On a machine with actual near-memory hardware, the combiner
// goroutines are replaced by NMP cores and the mailboxes by memory-mapped
// publication lists; the simulated version of exactly that system lives
// in internal/dsim.
package core

import (
	"fmt"
	"sync"

	"hybrids/internal/cds"
	"hybrids/internal/hds"
	"hybrids/internal/metrics"
	"hybrids/internal/radix"
)

// Store is a single-threaded ordered map owned by one partition. The
// combiner goroutine is its only user after the hybrid map starts.
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
	// Partitions is the number of partition stores and combiner
	// goroutines (the paper uses 8 NMP vaults).
	Partitions int
	// KeyMax bounds the key space; keys are 1..KeyMax-1 and partitions
	// own equal ranges.
	KeyMax uint64
	// MailboxDepth is each partition's mailbox capacity in entries — a
	// blocking call or barrier is one entry, a Batcher round is one entry
	// per partition it touches — and the cap on the entries one combine
	// round drains.
	MailboxDepth int
	// NewStore builds each partition's store; nil defaults to cds.NewBTree.
	NewStore func(partition int) Store
	// Metrics receives the runtime's per-partition instruments
	// (core/p<i>/...); nil creates a private registry reachable through
	// Hybrid.Metrics. The registry is unsynchronized: each instrument is
	// touched only by its owning combiner goroutine, so snapshots are
	// consistent only at quiescence (all published futures consumed, or
	// after Close).
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

// Hybrid is a concurrent ordered map with partition-per-combiner
// parallelism. All exported methods are safe for concurrent use.
type Hybrid struct {
	cfg   Config
	reg   *metrics.Registry
	parts []*partition
	span  uint64
	wg    sync.WaitGroup
	// mu guards the closed flag: publishers hold it shared around the
	// mailbox send, Close holds it exclusively while closing mailboxes,
	// so no send can race a close.
	mu     sync.RWMutex
	closed bool
}

// partition is one combiner's domain: the store it owns, its mailbox and
// its per-partition instruments (touched only by the combiner after
// start; see Config.Metrics).
type partition struct {
	id    int
	store Store
	reqs  chan request

	cOps     *metrics.Counter
	cBuilt   *metrics.Counter
	hBatch   *metrics.Histogram
	hMailbox *metrics.Histogram
}

// New creates and starts a hybrid map.
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
			cOps:     reg.Counter(fmt.Sprintf("core/p%d/ops", p)),
			cBuilt:   reg.Counter(fmt.Sprintf("core/p%d/built", p)),
			hBatch:   reg.Histogram(fmt.Sprintf("core/p%d/batch", p)),
			hMailbox: reg.Histogram(fmt.Sprintf("core/p%d/mailbox", p)),
		}
		if ins, ok := part.store.(Instrumented); ok {
			ins.Instrument(reg, fmt.Sprintf("core/p%d/store", p))
		}
		h.parts = append(h.parts, part)
		h.wg.Add(1)
		go h.combine(part)
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

// combine is the partition's combiner loop: the software NMP core. Each
// round blocks for one entry, drains whatever else the mailbox holds (up
// to MailboxDepth entries) into a local batch — the native analogue of a
// flat-combining scan over the publication list — and then applies the
// batch in mailbox order. Every instrument write that covers an entry
// happens before that entry completes, so a caller that has consumed
// everything it published can snapshot the registry without racing the
// combiner.
func (h *Hybrid) combine(p *partition) {
	defer h.wg.Done()
	batch := make([]request, 0, h.cfg.MailboxDepth)
	for {
		r, ok := <-p.reqs
		if !ok {
			return
		}
		p.hMailbox.Observe(uint64(len(p.reqs) + 1))
		batch = append(batch[:0], r)
		closed := false
	drain:
		for len(batch) < h.cfg.MailboxDepth {
			select {
			case r, ok := <-p.reqs:
				if !ok {
					closed = true
					break drain
				}
				batch = append(batch, r)
			default:
				break drain
			}
		}
		n := 0
		for _, r := range batch {
			if r.grp != nil {
				n += len(r.grp.idx[p.id])
			} else {
				n++
			}
		}
		p.hBatch.Observe(uint64(n))
		for _, r := range batch {
			p.apply(r)
		}
		if closed {
			return
		}
	}
}

// Close drains every mailbox and shuts the combiners down: entries
// published before Close are fully applied and completed; a publish that
// happens after Close is refused without touching a store (a blocking
// call returns ok=false, a Batcher round marks every op Rejected). Close
// is idempotent, and read-only accessors (Len, Dump, Scan) keep working on
// the quiescent stores afterwards.
func (h *Hybrid) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	for _, p := range h.parts {
		close(p.reqs)
	}
	h.mu.Unlock()
	h.wg.Wait()
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

// async publishes req to its partition's mailbox and returns the call's
// future, or — after Close — a future already completed as a rejection
// (ok=false) with no store touched.
func (h *Hybrid) async(req hds.Request) *future {
	part := h.Partition(req.Key)
	fut := newFuture()
	h.mu.RLock()
	if h.closed {
		h.mu.RUnlock()
		fut.complete(0, false)
		return fut
	}
	h.parts[part].reqs <- request{req: req, fut: fut}
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

// barrier runs fn on partition p's store on the combiner, in request
// order (after every entry published before it), waits for it and reports
// true. After Close it reports false without running fn: closed-ness is
// decided under the same lock as the publish, so a Close can never slip
// between the check and the send.
func (h *Hybrid) barrier(p int, fn func(s Store)) bool {
	h.mu.RLock()
	if h.closed {
		h.mu.RUnlock()
		return false
	}
	fut := newFuture()
	fut.snap = fn
	h.parts[p].reqs <- request{fut: fut}
	h.mu.RUnlock()
	fut.wait()
	return true
}

// read is barrier for read-only closures: after Close it runs fn directly
// on the store, once the combiners have drained and exited.
func (h *Hybrid) read(p int, fn func(s Store)) {
	if !h.barrier(p, fn) {
		h.wg.Wait()
		fn(h.parts[p].store)
	}
}

// Len sums the partition store sizes. Each partition's count is read by
// its combiner in request order, so the result is a per-partition
// linearizable size (exact at quiescence).
func (h *Hybrid) Len() int {
	total := 0
	for p := range h.parts {
		h.read(p, func(s Store) { total += s.Len() })
	}
	return total
}

// Dump returns every stored pair in ascending key order. Partitions own
// contiguous key ranges, so concatenating per-partition ascents in
// partition order yields the global order. Each partition is read by its
// combiner in request order (exact at quiescence, e.g. after Close).
func (h *Hybrid) Dump() []KV {
	var out []KV
	for p := range h.parts {
		h.read(p, func(s Store) {
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
// partition is read by its combiner in request order (a barrier), so the
// result is per-partition linearizable: it observes every operation
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
		h.read(p, func(s Store) {
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

// Build populates the partition stores directly — in parallel, one
// goroutine per partition, bypassing the mailboxes — for untimed workload
// loading before concurrent use. It is a bulk load: each partition's pairs
// are copied out of pairs (the caller's slice is left untouched), sorted
// by key and inserted in ascending order, which is the order every engine
// packs densest. The sort is stable, so of duplicate keys the first pair
// in pairs is the one kept. It must not run concurrently with any
// operation.
func (h *Hybrid) Build(pairs []KV) {
	// One counting pass sizes every partition's run of one shared copy.
	ends := make([]int, len(h.parts))
	for _, kv := range pairs {
		ends[h.Partition(kv.Key)]++
	}
	sum := 0
	for p, n := range ends {
		ends[p], sum = sum, sum+n
	}
	sorted := make([]KV, len(pairs))
	for _, kv := range pairs {
		p := h.Partition(kv.Key)
		sorted[ends[p]] = kv
		ends[p]++
	}
	var wg sync.WaitGroup
	start := 0
	for p, end := range ends {
		run := sorted[start:end]
		start = end
		if len(run) == 0 {
			continue
		}
		wg.Add(1)
		go func(part *partition) {
			defer wg.Done()
			// Two stable passes, low half first, sort by the whole key;
			// keys below 2^32 have no high half to sort by.
			radix.SortFunc(run, func(kv KV) uint32 { return uint32(kv.Key) })
			if h.cfg.KeyMax > 1<<32 {
				radix.SortFunc(run, func(kv KV) uint32 { return uint32(kv.Key >> 32) })
			}
			for _, kv := range run {
				if part.store.Put(kv.Key, kv.Value) {
					part.cBuilt.Inc()
				}
			}
		}(h.parts[p])
	}
	wg.Wait()
}
