package core

import (
	"math/bits"
	"sync/atomic"
)

// The host portion (DESIGN §5.8): each partition's table of recently
// read pairs, which a Batcher's round reads without taking the partition,
// validating each read by its bucket's seqlock word. A key has two
// buckets, one per hash, and its pair sits in at most one of them. Only
// the partition's holder writes the table: it probes it for every read
// it serves and installs the pair a missed read found, clears a key's
// pair before it applies a write to the key, and judges the table over
// windows of probes. A window that hits often makes the table big, every
// pair moved, one that hits less makes it base size again, empty, and
// one that does not hit switches it off. A table replaced or switched
// off is retired by publishing another pointer, and the holder never
// writes it again.
const (
	// hotPer is the pairs stored per bucket of a base table, one byte a
	// pair; hotBig is a big table's buckets over the base size.
	hotPer = 64
	hotBig = 8
	// hotWays is the pairs a bucket holds.
	hotWays = 3
	// hotMul and hotMul2 are the multipliers of a key's two hashes: the
	// Fibonacci hash's, 2^64 over the golden ratio, and a second odd one.
	hotMul  = 0x9E3779B97F4A7C15
	hotMul2 = 0xD6E8FEB86659FD93
	// A table is judged over hotWindow probes, the reads the holder
	// serves and the hits Batchers hand it. If fewer than
	// hotWindow/hotBreakEven of them hit, it is off for the next hotIdle
	// reads the holder serves. A base table grows when at least
	// hotWindow/hotGrow hit, a big one goes back to base when fewer do.
	hotWindow    = 1 << 14
	hotBreakEven = 8
	hotGrow      = 2
	hotIdle      = 1 << 16
)

// hotBucket is one 64-byte line of a table: a seqlock word, odd while the
// holder rewrites the bucket, and three pairs; key 0, the hds -inf
// sentinel, marks an empty pair. Every word is read and written through
// sync/atomic.
type hotBucket struct {
	seq   atomic.Uint64
	pairs [hotWays]struct{ key, val atomic.Uint64 }
	_     uint64
}

// hotTable is one table; a bucket count that is a power of two makes it
// a pointer-free allocation of its own, 64-aligned.
type hotTable struct{ b []hotBucket }

// hotPointer publishes a partition's table: nil while it has none, or
// while it is off or closed.
type hotPointer = atomic.Pointer[hotTable]

func newHotTable(buckets int) *hotTable { return &hotTable{make([]hotBucket, buckets)} }

// hotBuckets is the base size for a store of n pairs: the power of two
// nearest n over hotPer.
func hotBuckets(n int) int {
	return 1 << bits.Len(uint(n*2/(3*hotPer)))
}

// at returns the bucket of h, a key times hotMul or hotMul2: the top
// log2(len(t.b)) bits of h, which every key bit moves (one bucket shifts
// by 64, leaving 0).
func (t *hotTable) at(h uint64) *hotBucket {
	return &t.b[h>>bits.LeadingZeros64(uint64(len(t.b)-1))]
}

// lookup returns key's value if either of its buckets holds it, the
// first probed first, valid only if that bucket's word was even and
// unchanged across the read.
func (t *hotTable) lookup(key uint64) (uint64, bool) {
	if v, ok := t.at(key * hotMul).lookup(key); ok {
		return v, true
	}
	return t.at(key * hotMul2).lookup(key)
}

// lookup returns key's value if b holds it, valid only if b's word was
// even and unchanged across the read.
func (b *hotBucket) lookup(key uint64) (uint64, bool) {
	s := b.seq.Load()
	for i := range b.pairs {
		if p := &b.pairs[i]; p.key.Load() == key {
			v := p.val.Load()
			return v, s&1 == 0 && b.seq.Load() == s
		}
	}
	return 0, false
}

// way returns the way of b that holds key, or -1; key 0 finds an empty
// way. Only the holder calls it, or the maker of a table not yet
// published.
func (b *hotBucket) way(key uint64) int {
	for i := range b.pairs {
		if b.pairs[i].key.Load() == key {
			return i
		}
	}
	return -1
}

// put stores (key, val) in way w of b, its word odd meanwhile. Only the
// holder calls it, or the maker of a table not yet published.
func (b *hotBucket) put(w int, key, val uint64) {
	s := b.seq.Load()
	b.seq.Store(s + 1)
	b.pairs[w].key.Store(key)
	b.pairs[w].val.Store(val)
	b.seq.Store(s + 2)
}

// hit answers a read of key from the partition's table without its lock.
// The holder never writes a table again once it has retired it, so a
// reader that loaded the pointer just before reads the table as it was
// at the retirement, when every pair in it was the store's: a hit
// linearizes at the read of the bucket that held it, either of the two,
// or at the retirement if that came between the pointer's load and the
// read.
func (p *partition) hit(key uint64) (uint64, bool) {
	if t := p.hot.Load(); t != nil {
		return t.lookup(key)
	}
	return 0, false
}

// read applies a read under the lock, a probe of the window: a hit in
// the table, or a descent that installs the pair it found. While the
// table is off it only descends. Only the holder calls it.
func (p *partition) read(key uint64) (v uint64, ok bool) {
	if p.idle > 0 {
		p.idle--
		return p.store.Get(key)
	}
	if v, ok = p.hit(key); ok {
		p.hits++
	} else if v, ok = p.store.Get(key); ok {
		p.install(key, v)
	}
	if p.probes++; p.probes >= hotWindow {
		p.judge()
	}
	return v, ok
}

// counted hands the window n hits a Batcher answered from the table since
// it last held the partition. Only the holder calls it.
func (p *partition) counted(n int32) {
	if n == 0 || p.idle > 0 {
		return
	}
	p.probes += n
	p.hits += n
	if p.probes >= hotWindow {
		p.judge()
	}
}

// install puts (key, val), the store's pair, in one of key's buckets
// unless either holds key already: in an empty way of the first, else of
// the second, else in the way of the six that the two buckets' write
// counts, summed, turn to. It makes a base table first if there is none.
// Only the holder calls it.
func (p *partition) install(key, val uint64) {
	t := p.hot.Load()
	if t == nil {
		t = newHotTable(hotBuckets(p.store.Len()))
		p.hot.Store(t)
	}
	b, b2 := t.at(key*hotMul), t.at(key*hotMul2)
	if b.way(key) >= 0 || b2.way(key) >= 0 {
		return
	}
	w := b.way(0)
	if w < 0 {
		if w = b2.way(0); w >= 0 {
			b = b2
		} else {
			w = int((b.seq.Load()>>1 + b2.seq.Load()>>1) % (2 * hotWays))
			if w >= hotWays {
				b, w = b2, w-hotWays
			}
		}
	}
	b.put(w, key, val)
}

// evict clears key's pair, in whichever of its buckets holds it, before
// a write to key. Only the holder calls it.
func (p *partition) evict(key uint64) {
	t := p.hot.Load()
	if t == nil {
		return
	}
	for _, b := range [2]*hotBucket{t.at(key * hotMul), t.at(key * hotMul2)} {
		if w := b.way(key); w >= 0 {
			b.put(w, 0, 0)
			return
		}
	}
}

// judge closes a full window: under hotWindow/hotBreakEven hits it
// switches the table off, and otherwise it sizes it, big for at least
// hotWindow/hotGrow hits and base for fewer, base being reckoned from
// the store's pairs now. A base table made big keeps every pair; any
// other change of size makes the table anew, empty.
func (p *partition) judge() {
	t, want := p.hot.Load(), hotBuckets(p.store.Len())
	if p.hits >= hotWindow/hotGrow {
		want *= hotBig
	}
	switch {
	case p.hits < hotWindow/hotBreakEven:
		p.hot.Store(nil)
		p.idle = hotIdle
	case t == nil || len(t.b) == want: // nothing to size
	case len(t.b)*hotBig == want:
		p.hot.Store(t.grown())
	default:
		p.hot.Store(newHotTable(want))
	}
	p.probes, p.hits = 0, 0
}

// grown returns t made big, every pair placed by the hash that placed it
// in t. Bucket i of t covers buckets hotBig*i to hotBig*i+hotBig-1 of the
// big table under either hash (at takes more top bits of the same
// product), so a big bucket receives the pairs of one bucket of t at
// most: every pair finds a free way and every hit stays a hit.
func (t *hotTable) grown() *hotTable {
	g := newHotTable(hotBig * len(t.b))
	for i := range t.b {
		for j := range t.b[i].pairs {
			if k := t.b[i].pairs[j].key.Load(); k != 0 {
				h := k * hotMul
				if t.at(h) != &t.b[i] {
					h = k * hotMul2
				}
				b := g.at(h)
				b.put(b.way(0), k, t.b[i].pairs[j].val.Load())
			}
		}
	}
	return g
}
