package core

import (
	"math/bits"
	"sync/atomic"
)

// The host portion (DESIGN §5.8): each partition's table of recently
// read pairs, which a Batcher's round reads without taking the partition,
// validating each read by its bucket's seqlock word. Only the partition's
// holder writes it: it probes it for every read it serves and installs
// the pair a missed read found, clears a key's pair before it applies a
// write to the key, and judges the table over windows of probes. A window that hits often makes the table big,
// every pair moved, one that hits less makes it base size again, empty,
// and one that does not hit switches it off. A table replaced or switched
// off is retired by publishing another pointer, and the holder never
// writes it again.
const (
	// hotPer is the pairs stored per bucket of a base table, one byte a
	// pair; hotBig is a big table's buckets over the base size.
	hotPer = 64
	hotBig = 8
	// hotWays is the pairs a bucket holds.
	hotWays = 3
	// hotMul is the Fibonacci-hash multiplier, 2^64 over the golden ratio.
	hotMul = 0x9E3779B97F4A7C15
	// A table is judged over hotWindow probes, the reads the holder
	// serves and the hits Batchers hand it. If fewer than hotWindow/hotBreakEven of
	// them hit, it is off for the next hotIdle reads the holder serves.
	// A base table grows when at least hotWindow/hotGrow hit, a big one
	// goes back to base when fewer do.
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

// at returns key's bucket: the top log2(len(t.b)) bits of key*hotMul,
// which every key bit moves (one bucket shifts by 64, leaving 0).
func (t *hotTable) at(key uint64) *hotBucket {
	return &t.b[key*hotMul>>bits.LeadingZeros64(uint64(len(t.b)-1))]
}

// lookup returns key's value if its bucket holds it, valid only if the
// bucket's word was even and unchanged across the read.
func (t *hotTable) lookup(key uint64) (uint64, bool) {
	b := t.at(key)
	s := b.seq.Load()
	for i := range b.pairs {
		if p := &b.pairs[i]; p.key.Load() == key {
			v := p.val.Load()
			return v, s&1 == 0 && b.seq.Load() == s
		}
	}
	return 0, false
}

// hit answers a read of key from the partition's table without its lock.
// The holder never writes a table again once it has retired it, so a
// reader that loaded the pointer just before reads the table as it was
// at the retirement, when every pair in it was the store's: a hit
// linearizes at its bucket read, or at the retirement if that came
// between the pointer's load and the read.
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

// install puts (key, val), the store's pair, in key's bucket, in an empty
// way or else the way the bucket's write count turns to, making a base
// table first if there is none. Only the holder calls it.
func (p *partition) install(key, val uint64) {
	t := p.hot.Load()
	if t == nil {
		t = newHotTable(hotBuckets(p.store.Len()))
		p.hot.Store(t)
	}
	b := t.at(key)
	s, way := b.seq.Load(), -1
	for i := range b.pairs {
		switch b.pairs[i].key.Load() {
		case key:
			return
		case 0:
			if way < 0 {
				way = i
			}
		}
	}
	if way < 0 {
		way = int(s>>1) % hotWays
	}
	b.seq.Store(s + 1)
	b.pairs[way].key.Store(key)
	b.pairs[way].val.Store(val)
	b.seq.Store(s + 2)
}

// evict clears key's pair, if the table holds it, before a write to key.
// Only the holder calls it.
func (p *partition) evict(key uint64) {
	t := p.hot.Load()
	if t == nil {
		return
	}
	b := t.at(key)
	for i := range b.pairs {
		if b.pairs[i].key.Load() == key {
			s := b.seq.Load()
			b.seq.Store(s + 1)
			b.pairs[i].key.Store(0)
			b.seq.Store(s + 2)
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

// grown returns t made big. Bucket i of t covers buckets hotBig*i to
// hotBig*i+hotBig-1 of the big table (at takes more top bits of the same
// hash), so every pair finds a free way and every hit stays a hit.
func (t *hotTable) grown() *hotTable {
	g := newHotTable(hotBig * len(t.b))
	for i := range t.b {
		for j := range t.b[i].pairs {
			if k := t.b[i].pairs[j].key.Load(); k != 0 {
				b := g.at(k)
				w := 0
				for b.pairs[w].key.Load() != 0 {
					w++
				}
				b.pairs[w].key.Store(k)
				b.pairs[w].val.Store(t.b[i].pairs[j].val.Load())
			}
		}
	}
	return g
}
