// Package core realizes the HybriDS programming model on real hardware:
// a concurrent ordered map split into a host-managed routing layer and a
// set of partition-owned stores, each served by flat combining — the
// software stand-in for the paper's per-partition NMP cores. A caller
// pushes its request onto the partition's publication list (§3.2) and
// then tries to become the partition's combiner: if the partition is
// free it takes the whole list and applies the entries, its own and
// other callers', oldest first against the single-threaded store; if
// another caller holds the partition, that holder applies the entry.
// Callers hold a window of calls in flight, scans included (non-blocking
// NMP calls, §3.5), through a Batcher, which makes one entry per (round,
// partition) and waits once per round on a single countdown. A round
// publishes an entry only to a held partition: a free one it takes,
// combines and applies its entry in place. A call of one (a blocking
// call, §3.2, or a barrier) waits for the partition instead: the first
// time a bounded spin finds it free, the caller takes it, combines the
// list and applies its own operation, or runs the barrier's closure,
// with no entry. Past the spin it is a round of one on a pooled Batcher.
// Whichever way in it took, the holder counts each round in the
// partition's own fields, read only through a barrier. The package starts
// no goroutine of its own.
//
// The request vocabulary is internal/hds — the same Kinds the simulator's
// experiment drivers issue — so a workload runs unchanged against either
// stack. On a machine with actual near-memory hardware, the elected
// combiner is replaced by an NMP core and the lists by memory-mapped
// ones, which is the system internal/dsim simulates.
package core

import (
	"fmt"
	"math"
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
}

// KV is one key-value pair (Build input, Dump output).
type KV struct {
	// Key is the pair's key.
	Key uint64
	// Value is the pair's value.
	Value uint64
}

// request is one publication-list node: a Batcher round's entry for one
// partition. The Batcher keeps one per partition and reuses it.
type request struct {
	grp  *Batcher
	next *request
}

// Hybrid is a concurrent ordered map with one combiner at a time per
// partition. All exported methods are safe for concurrent use.
type Hybrid struct {
	cfg Config
	// reg holds only the counters the Instrumented stores register.
	reg   *metrics.Registry
	parts []*partition
	span  uint64
	// calls pools the one-op Batchers of blocking calls and barriers.
	calls sync.Pool
}

// partition is one combining domain: the store, the cursor rounds' scans
// are served through, its publication list, the election state and its
// tallies. All but list and election belong to its current holder, which
// stands in for the partition's NMP core and so alone counts its rounds.
// It fills two cache lines of its own: the first holds all a blocking
// call writes and reads but its bucket pair, the second the rest.
type partition struct {
	// head is the publication list, newest entry first; held is the
	// holder flag. Both are sequentially consistent atomics, which is what
	// makes a push visible to the holder's re-check after its release
	// (DESIGN §5.5). refusing is set by Close's barrier: every data entry
	// taken after it completes as refused, with no store touched. rounds
	// counts the combine rounds (a direct step is the round of one entry
	// it replaces), batchSum their ops and barriers, mailboxSum their
	// entries; ops counts the data operations applied, built the pairs
	// Build loaded. buckets[i] counts the rounds whose batch size ([0])
	// and entry count ([1]) are i bits long: a pointer-free allocation of
	// its own, so no malloc header moves it off a line boundary, and a
	// pair per bucket, so a round of one writes one of its lines.
	head                              atomic.Pointer[request]
	held                              atomic.Bool
	refusing                          bool
	rounds, batchSum, mailboxSum, ops uint64
	store                             Store
	cur                               *scanCursor
	id                                int
	built                             uint64
	buckets                           *[metrics.NumBuckets][2]uint64
	_                                 [32]byte
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
	reg := metrics.NewRegistry()
	// span is ceil(KeyMax/Partitions), written so that it cannot wrap.
	h := &Hybrid{
		cfg:  cfg,
		reg:  reg,
		span: (cfg.KeyMax-1)/uint64(cfg.Partitions) + 1,
	}
	h.calls.New = func() any { // every entry of a call carries its one op
		b := h.newBatcher(1, 0)
		b.ops, b.out = b.op1[:], b.out1[:]
		for p := range b.parts {
			b.parts[p].idx = b.parts[p].idx[:1]
		}
		return b
	}
	for p := 0; p < cfg.Partitions; p++ {
		part := &partition{
			id:      p,
			store:   cfg.NewStore(p),
			cur:     cursorPool.New().(*scanCursor),
			buckets: new([metrics.NumBuckets][2]uint64),
		}
		if ins, ok := part.store.(Instrumented); ok {
			ins.Instrument(reg, fmt.Sprintf("core/p%d/store", p))
		}
		h.parts = append(h.parts, part)
	}
	return h
}

// exec executes one operation against the partition's store.
func (p *partition) exec(req hds.Request) (res hds.Result) {
	switch req.Kind {
	case hds.Read:
		res.Value, res.OK = p.store.Get(req.Key)
	case hds.Insert:
		res.OK = p.store.Put(req.Key, req.Value)
	case hds.Update:
		res.OK = p.store.Update(req.Key, req.Value)
	case hds.Remove:
		res.OK = p.store.Delete(req.Key)
	}
	return res
}

// apply runs one list entry and completes it: a barrier's closure, or
// the entry's operations, counted in ops first. Behind Close's barrier
// the data operations complete as Rejected without touching the store;
// barriers still run, and so do a round's scans, after its data ops (only
// reads follow them).
func (p *partition) apply(r *request) {
	b := r.grp
	if b.snap != nil {
		b.snap(p.store)
		b.done()
		return
	}
	bp, ops, out := &b.parts[p.id], b.ops, b.out
	if p.refusing {
		for _, i := range bp.idx {
			out[i] = Outcome{Rejected: true}
		}
	} else {
		p.ops += uint64(len(bp.idx))
		for _, i := range bp.idx {
			out[i] = Outcome{Result: p.exec(ops[i])}
		}
	}
	for _, i := range bp.sidx { // into the scan's region
		if c, kv := p.cur, &b.pairs[i]; cap(*kv) > 0 {
			c.dst, c.base, c.limit = *kv, 0, cap(*kv)
			p.store.Ascend(ops[i].Key, c.visit)
			*kv, c.dst = c.dst, nil
		}
	}
	b.done()
}

// round tallies one combine round that took entries list entries
// carrying n ops and barriers: a combine, or a direct step as the round
// of one entry it replaces. Only the holder calls it, before the round's
// entries complete.
func (p *partition) round(entries, n int) {
	p.rounds++
	p.batchSum += uint64(n)
	p.mailboxSum += uint64(entries)
	p.buckets[metrics.BucketIndex(uint64(n))][0]++
	p.buckets[metrics.BucketIndex(uint64(entries))][1]++
}

// publish pushes r onto the partition's list, which never waits, and
// serves the partition: when it returns, r is applied or left to a holder
// that will find it. It is the way in for an entry whose caller found the
// partition held: a round's, or a call of one's past its spin.
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
// oldest first. The round is tallied before any entry completes, so a
// caller that has consumed everything it published reads its tallies
// without racing a holder.
func (p *partition) combine() {
	if p.head.Load() == nil { // taken by the previous holder, or empty:
		return // a swap would still write the line held sits on
	}
	r := p.head.Swap(nil) // non-nil: only the holder takes entries
	var oldest *request
	entries, n := 0, 0
	for r != nil {
		next := r.next
		r.next, oldest = oldest, r
		r = next
		entries++
		if b := oldest.grp; b.snap != nil { // a barrier counts as one
			n++
		} else {
			n += len(b.parts[p.id].idx) + len(b.parts[p.id].sidx)
		}
	}
	p.round(entries, n)
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
	for _, part := range h.parts {
		h.barrier(part.id, func(Store) { part.refusing = true })
	}
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

// Apply executes one request as a blocking NMP call (§3.2) and returns
// its result: ok=false, with no store touched, when Close refused it. The
// call waits for its partition, not for a holder (Hybrid.call). A Scan or
// a key outside the key space panics before anything is published; Scan
// and ScanAppend serve scans.
func (h *Hybrid) Apply(req hds.Request) hds.Result {
	if req.Kind == hds.Scan {
		panic("core: Hybrid.Apply cannot serve a Scan; use Scan or ScanAppend")
	}
	return h.call(h.Partition(req.Key), req, nil)
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

// call is the one way a call of one enters partition p: req, or a
// barrier's fn in its place. It makes up to spinLoads plain loads of the
// holder flag and takes the partition, with the election's CAS, the
// first time it is free. Holding it, the caller combines the list, so
// every entry published before the call (a Close barrier included) comes
// first. Then it tallies the round of one it replaces and applies req in
// place, or runs fn, with no list entry, and releases and serves like any
// holder.
// Past the spin it publishes that round of one on a pooled Batcher and
// waits for it without spinning.
func (h *Hybrid) call(p int, req hds.Request, fn func(s Store)) (res hds.Result) {
	part := h.parts[p]
	for i := 0; i < spinLoads; i++ {
		if part.held.Load() || !part.held.CompareAndSwap(false, true) {
			continue
		}
		part.combine()
		part.round(1, 1)
		if fn != nil {
			fn(part.store)
		} else if !part.refusing {
			part.ops++
			res = part.exec(req)
		}
		part.held.Store(false)
		part.serve()
		return res
	}
	b := h.calls.Get().(*Batcher)
	b.op1[0], b.snap = req, fn
	b.pending.Store(1)
	part.publish(&b.parts[p].entry)
	b.wait()
	res = b.out1[0].Result
	b.snap = nil
	h.calls.Put(b)
	return res
}

// barrier runs fn on partition p's store while holding the partition, in
// list order (after every entry published before it), and waits for it.
// Barriers are not data operations: they work after Close too.
func (h *Hybrid) barrier(p int, fn func(s Store)) { h.call(p, hds.Request{}, fn) }

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

// Dump returns every stored pair in ascending key order: a Scan with no
// limit, so exact at quiescence (e.g. after Close).
func (h *Hybrid) Dump() []KV { return h.Scan(0, math.MaxInt) }

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
	for p := from / h.span; p < uint64(len(h.parts)) && len(c.dst)-c.base < limit; p++ {
		h.barrier(int(p), c.ascend)
	}
	dst, c.dst = c.dst, nil
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
	c.visit = func(k, v uint64) bool { // a cursor runs only while there is room
		c.dst = append(c.dst, KV{Key: k, Value: v})
		return len(c.dst)-c.base < c.limit
	}
	return c
}}
