// Package core realizes the HybriDS programming model on real hardware:
// a concurrent ordered map split into a host-managed routing layer and a
// set of partition-owned stores, each served one call at a time — the
// software stand-in for the paper's per-partition NMP cores (§3.2). A
// partition is a mutex and the state its holder alone touches: a caller
// takes the lock, with a bounded spin of TryLocks before it parks in
// Lock, applies its own operations against the single-threaded store and
// lets go. A blocking call (§3.2) or a barrier holds its partition for
// its one operation or closure. Callers keep a window of calls in flight,
// scans included (non-blocking NMP calls, §3.5), through a Batcher, whose
// round routes a window's ops to their partitions, answering each read
// its partition's host portion holds — a table of hot pairs that only the
// holder writes and any caller reads under a seqlock (§3.3-3.4) — without
// the lock, and then takes its partitions in routing order, one lock at a
// time, to apply the rest. Each holder counts its round in the
// partition's own fields, read only through a barrier, and each Batcher
// its hits in one of the partition's striped cells, so a Batcher holds
// nothing the map must take back. The package starts no goroutine of its
// own.
//
// The request vocabulary is internal/hds — the same Kinds the simulator's
// experiment drivers issue — so a workload runs unchanged against either
// stack. On a machine with actual near-memory hardware, the lock is
// replaced by an NMP core serving memory-mapped publication lists, which
// is the system internal/dsim simulates.
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
// Build, only the caller holding the partition's lock uses it.
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
// counters (cds.BTree does). New registers each partition store that
// implements it in the partition's own registry under "core/p<i>/store",
// so per-partition structural metrics are engine-uniform without the
// runtime knowing any concrete store type.
type Instrumented interface {
	// Instrument registers the store's counters in reg under prefix.
	Instrument(reg *metrics.Registry, prefix string)
}

// Config parameterizes a hybrid map.
type Config struct {
	// Partitions is the number of partition stores, each served to one
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

// Hybrid is a concurrent ordered map with one holder at a time per
// partition. All exported methods are safe for concurrent use.
type Hybrid struct {
	cfg   Config
	parts []*partition
	span  uint64
	// stripes counts the Batchers made: the nth counts its hits in stripe
	// n%hitStripes.
	stripes atomic.Uint32
}

// spinLoads is how many TryLocks a caller makes on a held partition
// before it parks in Lock. A TryLock on a held lock is one load, so the
// spin takes 25-40 µs on a 2-vCPU x86 host: longer than a holder's round
// and shorter than the runnable delay of a wake from another P (DESIGN
// §5.5). No yield: loads only.
const spinLoads = 30000

// partition is one serving domain: its lock, which stands in for the
// partition's NMP core serving one call at a time, what only the lock's
// holder touches — the refusal flag, the table's window, the tallies, the
// store, the scan cursor and the store's registry — and the pointer that
// publishes its host portion (hot.go). It fills two cache lines of its
// own: the first holds all a holder writes but its bucket, the second
// what it only reads and the pointers to the table and the hit cells,
// which every Batcher reads.
type partition struct {
	// mu is held by the one caller serving the partition. refusing is set
	// by Close's barrier: every data operation served after it completes
	// as refused, with no store touched. probes, hits and idle are the
	// host portion's window and off period (hot.go). rounds counts the
	// lock holds (a blocking call or a barrier is a round of one),
	// batchSum their ops, scans and barriers; ops counts the data
	// operations applied under the lock, built the pairs Build loaded.
	// buckets[i] counts the rounds whose batch size is i bits long: a
	// pointer-free allocation of its own, so no malloc header moves it off
	// a line boundary; so are hitCells, the Batchers' hits (batch.go). reg
	// holds only an Instrumented store's counters.
	mu                    sync.Mutex
	refusing              bool
	probes, hits, idle    int32
	rounds, batchSum, ops uint64
	store                 Store
	cur                   *scanCursor
	id                    int
	built                 uint64
	buckets               *[metrics.NumBuckets]uint64
	reg                   *metrics.Registry
	hot                   hotPointer
	hitCells              *[hitStripes]hitCell
	_                     [8]byte
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
	// span is ceil(KeyMax/Partitions), written so that it cannot wrap.
	h := &Hybrid{cfg: cfg, span: (cfg.KeyMax-1)/uint64(cfg.Partitions) + 1}
	for p := 0; p < cfg.Partitions; p++ {
		part := &partition{
			id:       p,
			store:    cfg.NewStore(p),
			cur:      newScanCursor(),
			buckets:  new([metrics.NumBuckets]uint64),
			hitCells: new([hitStripes]hitCell),
			reg:      metrics.NewRegistry(),
		}
		if ins, ok := part.store.(Instrumented); ok {
			ins.Instrument(part.reg, fmt.Sprintf("core/p%d/store", p))
		}
		h.parts = append(h.parts, part)
	}
	return h
}

// exec executes one operation against the partition's store: a read
// through the host portion (partition.read), a write after it clears the
// key's pair there.
func (p *partition) exec(req hds.Request) (res hds.Result) {
	if req.Kind != hds.Read {
		p.evict(req.Key)
	}
	switch req.Kind {
	case hds.Read:
		res.Value, res.OK = p.read(req.Key)
	case hds.Insert:
		res.OK = p.store.Put(req.Key, req.Value)
	case hds.Update:
		res.OK = p.store.Update(req.Key, req.Value)
	case hds.Remove:
		res.OK = p.store.Delete(req.Key)
	}
	return res
}

// lock is how every caller takes the partition: up to spinLoads TryLocks
// (a load, and a CAS only when the lock looks free), then Lock, which parks.
func (p *partition) lock() {
	for range spinLoads {
		if p.mu.TryLock() {
			return
		}
	}
	p.mu.Lock()
}

// round tallies one lock hold that applied n ops, scans and barriers.
// Only the holder calls it.
func (p *partition) round(n int) {
	p.rounds++
	p.batchSum += uint64(n)
	p.buckets[metrics.BucketIndex(uint64(n))]++
}

// Close refuses further data operations and runs one barrier per
// partition, which also retires its host portion: an operation that took
// a partition's lock before its barrier, or a read its table answered
// before it, is applied by the time Close returns, one that comes after
// is refused without touching the store (ok=false, or Rejected), so a
// round that straddles Close may be applied on some partitions and
// refused on others. Close is idempotent, and read-only accessors (Len,
// Dump, Scan) keep working afterwards.
func (h *Hybrid) Close() {
	for _, part := range h.parts {
		h.barrier(part.id, func(Store) {
			part.refusing = true
			part.hot.Store(nil)
		})
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
// call holds its partition for the one operation (Hybrid.call). A Scan or
// a key outside the key space panics before any partition is taken; Scan
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
// barrier's fn in its place. It takes the lock, tallies a round of one,
// applies req (unless Close has refused the partition) or runs fn, and
// lets go.
func (h *Hybrid) call(p int, req hds.Request, fn func(s Store)) (res hds.Result) {
	part := h.parts[p]
	part.lock()
	part.round(1)
	if fn != nil {
		fn(part.store)
	} else if !part.refusing {
		part.ops++
		res = part.exec(req)
	}
	part.mu.Unlock()
	return res
}

// barrier runs fn on partition p's store while holding the partition and
// waits for it. Barriers are not data operations: they work after Close
// too.
func (h *Hybrid) barrier(p int, fn func(s Store)) { h.call(p, hds.Request{}, fn) }

// Len sums the partition store sizes. Each partition's count is read
// while holding the partition, so the result is a per-partition
// linearizable size (exact at quiescence).
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
// partition is read while holding it (a barrier), so the result is
// per-partition linearizable: it observes every operation applied to a
// partition before the scan took it, but partitions are visited one after
// another, not atomically. from may be 0 (scan from the smallest key).
func (h *Hybrid) Scan(from uint64, limit int) []KV {
	return h.ScanAppend(nil, from, limit)
}

// ScanAppend is Scan appending into dst (which may be nil), returning the
// extended slice. With a reusable buffer of sufficient capacity a scan
// performs no allocation; the pairs are appended after dst's existing
// contents.
func (h *Hybrid) ScanAppend(dst []KV, from uint64, limit int) []KV {
	base := len(dst)
	for p := from / h.span; p < uint64(len(h.parts)) && len(dst)-base < limit; p++ {
		part := h.parts[p]
		h.barrier(int(p), func(Store) { dst = part.scan(dst, from, limit-(len(dst)-base)) })
	}
	return dst
}

// scan appends to dst up to limit (at least one) pairs with keys >= from
// in ascending order, through the partition's cursor. Only the holder
// calls it.
func (p *partition) scan(dst []KV, from uint64, limit int) []KV {
	c := p.cur
	c.dst, c.base, c.limit = dst, len(dst), limit
	p.store.Ascend(from, c.visit)
	dst, c.dst = c.dst, nil
	return dst
}

// scanCursor is a partition's scan state, its callback bound once: a
// closure made per scan would escape into Store.Ascend and allocate.
type scanCursor struct {
	dst         []KV
	base, limit int
	visit       func(k, v uint64) bool
}

func newScanCursor() *scanCursor {
	c := new(scanCursor)
	c.visit = func(k, v uint64) bool { // a cursor runs only while there is room
		c.dst = append(c.dst, KV{Key: k, Value: v})
		return len(c.dst)-c.base < c.limit
	}
	return c
}
