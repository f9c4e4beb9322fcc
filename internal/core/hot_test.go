package core

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybrids/internal/hds"
	"hybrids/internal/prng"
)

// hotRig is a one-partition map read through a Batcher of window 1, so
// every read is a round of its own: a hit, or a miss served under the
// lock. Every read is checked against oracle.
type hotRig struct {
	t      *testing.T
	h      *Hybrid
	part   *partition
	b      *Batcher
	oracle map[uint64]uint64
}

// newHotRig builds keys 1..n, key k holding val(k), into a one-partition
// map over keyMax.
func newHotRig(t *testing.T, keyMax uint64, keys []uint64) *hotRig {
	h := New(Config{Partitions: 1, KeyMax: keyMax})
	r := &hotRig{t: t, h: h, part: h.parts[0], b: h.NewBatcher(1), oracle: map[uint64]uint64{}}
	var pairs []KV
	for _, k := range keys {
		pairs = append(pairs, KV{Key: k, Value: 3 * k})
		r.oracle[k] = 3 * k
	}
	h.Build(pairs)
	return r
}

// get reads key through the Batcher and checks the oracle.
func (r *hotRig) get(key uint64) {
	r.t.Helper()
	var out [1]Outcome
	r.b.Apply([]hds.Request{{Kind: hds.Read, Key: key}}, out[:])
	if wv, exists := r.oracle[key]; out[0] != (Outcome{Result: hds.Result{Value: wv, OK: exists}}) {
		r.t.Fatalf("read of %d = %+v, want (%d,%v)", key, out[0], wv, exists)
	}
}

// write applies a write through the Batcher and keeps the oracle.
func (r *hotRig) write(kind hds.Kind, key, val uint64) {
	r.t.Helper()
	var out [1]Outcome
	r.b.Apply([]hds.Request{{Kind: kind, Key: key, Value: val}}, out[:])
	_, exists := r.oracle[key]
	want := exists
	switch kind {
	case hds.Insert:
		want = !exists
		if !exists {
			r.oracle[key] = val
		}
	case hds.Update:
		if exists {
			r.oracle[key] = val
		}
	case hds.Remove:
		delete(r.oracle, key)
	}
	if out[0].Rejected || out[0].Result.OK != want {
		r.t.Fatalf("%v of %d = %+v, want ok %v", kind, key, out[0], want)
	}
}

// table returns the published table, nil when there is none.
func (r *hotRig) table() *hotTable { return r.part.hot.Load() }

// probed counts the window's probes, the hits the Batcher has not handed
// over yet included.
func (r *hotRig) probed() int { return int(r.part.probes + r.b.parts[0].unjudged) }

// window reads keys drawn by next until the window closes. Every read
// adds one probe to the count, so the count falls only when a window
// closes; the read that closes it may be the first of the next window.
func (r *hotRig) window(next func() uint64) {
	r.t.Helper()
	for {
		before := r.probed()
		r.get(next())
		if r.probed() < before || r.part.idle > 0 {
			return
		}
	}
}

// pairs returns the keys the table holds.
func (r *hotRig) pairs() []uint64 {
	var keys []uint64
	if t := r.table(); t != nil {
		for i := range t.b {
			for j := range t.b[i].pairs {
				if k := t.b[i].pairs[j].key.Load(); k != 0 {
					keys = append(keys, k)
				}
			}
		}
	}
	return keys
}

// checkHot validates the host portion of every partition at quiescence:
// a window in range, nothing counted and no table while off, a table of a
// power of two buckets, every seqlock word even, and every pair in one of
// its key's two buckets, once, holding the store's current value.
func checkHot(h *Hybrid) error {
	for _, part := range h.parts {
		t := part.hot.Load()
		if part.hits > part.probes || part.probes >= hotWindow || part.idle > hotIdle || part.idle > 0 && (part.probes > 0 || t != nil) {
			return fmt.Errorf("p%d: window at %d hits of %d probes, %d reads off, table %v", part.id, part.hits, part.probes, part.idle, t != nil)
		}
		if t == nil {
			continue
		}
		if bits.OnesCount(uint(len(t.b))) != 1 {
			return fmt.Errorf("p%d: table of %d buckets", part.id, len(t.b))
		}
		seen := map[uint64]bool{}
		for i := range t.b {
			b := &t.b[i]
			if b.seq.Load()&1 != 0 {
				return fmt.Errorf("p%d: bucket %d left odd", part.id, i)
			}
			for j := range b.pairs {
				k, v := b.pairs[j].key.Load(), b.pairs[j].val.Load()
				if k == 0 {
					continue
				}
				if sv, ok := part.store.Get(k); t.at(k*hotMul) != b && t.at(k*hotMul2) != b || seen[k] || !ok || sv != v {
					return fmt.Errorf("p%d: bucket %d holds (%d, %d), not the store's pair once in one of its key's buckets", part.id, i, k, v)
				}
				seen[k] = true
			}
		}
	}
	return nil
}

// TestHotTableSmallTreesMatchMap drives stores of 16-63 pairs, whose
// tables are one bucket of three pairs, against a map. The reads are
// drawn from about a hundred keys, so nearly every install evicts another
// key's pair and every write meets a bucket that may or may not hold its
// key. The table is checked after every write.
func TestHotTableSmallTreesMatchMap(t *testing.T) {
	rng := prng.New(23)
	for n := 16; n < 64; n++ {
		keys := 2 * uint64(n)
		var load []uint64
		for k := uint64(1); k <= keys; k += 2 {
			load = append(load, k)
		}
		r := newHotRig(t, 1<<10, load)
		for i := 0; i < 400; i++ {
			k := uint64(rng.Intn(int(keys))) + 1
			switch op := rng.Intn(10); {
			case op < 6:
				r.get(k)
				continue
			case op < 8:
				r.write(hds.Update, k, rng.Next())
			case op == 8:
				r.write(hds.Remove, k, 0)
			default:
				r.write(hds.Insert, k, rng.Next())
			}
			if err := checkHot(r.h); err != nil {
				t.Fatalf("n=%d step %d: %v", n, i, err)
			}
		}
		if tb := r.table(); tb == nil || len(tb.b) != 1 {
			t.Fatalf("n=%d: want a table of one bucket", n)
		}
	}
}

// TestHotTableSizing checks when the table exists and how large it is:
// no write makes it, the first read that finds its pair does, at one
// bucket per hotPer pairs rounded to the nearest power of two. A window
// that hits half its probes makes it 8 times that, keeping its pairs. A
// window closed after the store has outgrown 1.5 times what the table was
// sized for makes it anew, at the new size, empty, and one that hits
// less than half makes it base again.
func TestHotTableSizing(t *testing.T) {
	const loaded = 1 << 14
	var load []uint64
	for k := uint64(1); k <= loaded; k++ {
		load = append(load, k)
	}
	r := newHotRig(t, 1<<20, load)
	r.write(hds.Update, 5, 5)
	r.write(hds.Insert, loaded+1, 1)
	if r.table() != nil {
		t.Fatal("a write made the table")
	}
	r.get(loaded + 2)
	if r.table() != nil {
		t.Fatal("a read of an absent key made the table")
	}
	r.get(7)
	base := loaded / hotPer
	if tb := r.table(); tb == nil || len(tb.b) != base {
		t.Fatalf("%d pairs got a table of %v; want %d buckets", loaded, tb, base)
	}
	if v, ok := r.part.hit(7); !ok || v != 21 {
		t.Fatal("a read that descended did not install its pair")
	}

	r.part.probes, r.part.hits = hotWindow-1, hotWindow/2
	r.get(9) // closes the window
	if tb := r.table(); len(tb.b) != hotBig*base {
		t.Fatalf("a window of half hits left %d buckets, want %d", len(tb.b), hotBig*base)
	}
	for _, k := range []uint64{7, 9} {
		if v, ok := r.part.hit(k); !ok || v != 3*k {
			t.Fatalf("key %d is not in the grown table", k)
		}
	}
	if err := checkHot(r.h); err != nil {
		t.Fatal(err)
	}

	for k := uint64(loaded + 2); k <= loaded*3/2; k++ {
		r.write(hds.Insert, k, 3*k)
	}
	r.part.probes, r.part.hits = hotWindow-1, hotWindow/2
	r.get(11) // a miss, installed before the window closes
	if tb := r.table(); len(tb.b) != 2*hotBig*base || len(r.pairs()) != 0 {
		t.Fatalf("the outgrown big table has %d buckets and %d pairs, want %d, empty", len(tb.b), len(r.pairs()), 2*hotBig*base)
	}
	r.part.probes, r.part.hits = hotWindow-1, hotWindow/4
	r.get(13)
	if tb := r.table(); len(tb.b) != 2*base || len(r.pairs()) != 0 {
		t.Fatalf("a window of a quarter hits left %d buckets and %d pairs, want %d, empty", len(tb.b), len(r.pairs()), 2*base)
	}
	if err := checkHot(r.h); err != nil {
		t.Fatal(err)
	}
}

// TestHotTableGrowsUnderSkew drives the table's size over a store of 2^14
// pairs. A window of skewed reads, 9 in 10 over 256 hot keys, hits far
// above half, so the window's end finds the table 8 times its base size,
// and every pair the base table held hits there. A window of uniform
// reads hits below half at that size and makes the table base again,
// empty; one a third skewed over 64 keys, between 1/8 and half, leaves
// it at base and on; and uniform reads switch it off.
func TestHotTableGrowsUnderSkew(t *testing.T) {
	const n = 1 << 14
	var load []uint64
	for k := uint64(1); k <= n; k++ {
		load = append(load, k)
	}
	r := newHotRig(t, 1<<20, load)
	rng := prng.New(31)
	uniform := func() uint64 { return uint64(rng.Intn(n)) + 1 }
	hot := func() uint64 { return uint64(rng.Intn(256))*61 + 1 }
	base := hotBuckets(n)
	phase := func(name string, buckets int, off bool) {
		t.Helper()
		if err := checkHot(r.h); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := r.table(); off != (got == nil) || !off && len(got.b) != buckets {
			t.Fatalf("%s: table %v, want %d buckets, off %v", name, got, buckets, off)
		}
	}

	for r.probed() < hotWindow-1 {
		if rng.Intn(10) == 0 {
			r.get(uniform())
		} else {
			r.get(hot())
		}
	}
	phase("a window of skewed reads", base, false)
	held := r.pairs()
	r.get(n + 1) // a miss: the Batcher hands over its hits and the window closes
	phase("the window closed", hotBig*base, false)
	for _, k := range held {
		if _, ok := r.part.hit(k); !ok {
			t.Fatalf("key %d, held by the base table, misses in the big one", k)
		}
	}
	r.window(uniform)
	phase("a window of uniform reads", base, false)
	if used := len(r.pairs()); used > 2 {
		t.Fatalf("the table made base again holds %d pairs after its first reads", used)
	}
	for r.probed() < hotWindow-1 {
		if rng.Intn(3) == 0 {
			r.get(uint64(rng.Intn(64))*61 + 1)
		} else {
			r.get(uniform())
		}
	}
	r.get(n + 1) // about 23 % hits
	phase("a window a third skewed", base, false)
	r.window(uniform)
	phase("uniform reads again", 0, true)
}

// TestHotTableSpreadsHighBitKeys reads keys that differ only above bit
// 40: a hash that dropped the high bits of the product would send them
// all to one bucket. Each of the two hashes must spread them.
func TestHotTableSpreadsHighBitKeys(t *testing.T) {
	const n = 1 << 13 // reads fewer than a window
	var load []uint64
	for i := uint64(1); i <= n; i++ {
		load = append(load, i<<40)
	}
	r := newHotRig(t, 1<<62, load)
	for _, k := range load {
		r.get(k)
	}
	for _, mul := range []uint64{hotMul, hotMul2} {
		used := map[*hotBucket]bool{}
		for _, k := range r.pairs() {
			used[r.table().at(k*mul)] = true
		}
		if len(used) < len(r.table().b)/2 {
			t.Fatalf("multiplier %#x: %d keys read hash to %d of %d buckets", mul, n, len(used), len(r.table().b))
		}
	}
	if err := checkHot(r.h); err != nil {
		t.Fatal(err)
	}
}

// TestHotTableSwitchesOff drives the table's switch. A window of uniform
// reads over a store 20 times the table's pairs, hitting far below
// break-even, switches it off: no table is published, so a read takes
// the lock and no write finds a pair to clear. The off period counts the
// reads served; the first read after it makes a new table, empty. Skewed
// reads keep it on through a window, among writes to the hot keys, and
// uniform reads switch it off again within three windows.
func TestHotTableSwitchesOff(t *testing.T) {
	const n = 1 << 14
	var load []uint64
	for k := uint64(1); k <= n; k++ {
		load = append(load, k)
	}
	r := newHotRig(t, 1<<20, load)
	rng := prng.New(29)
	uniform := func() uint64 { return uint64(rng.Intn(n)) + 1 }
	hot := func() uint64 { return uint64(rng.Intn(64))*97 + 1 }
	phase := func(name string, off bool) {
		t.Helper()
		if err := checkHot(r.h); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := r.part.idle > 0; got != off {
			t.Fatalf("%s: off = %v after %d hits of %d probes, want %v", name, got, r.part.hits, r.part.probes, off)
		}
	}

	r.window(uniform)
	phase("a window of uniform reads", true)
	ops := r.part.ops
	for i := range uint64(64) {
		if k := i*97 + 1; i%2 == 0 {
			r.write(hds.Remove, k, 0)
		} else {
			r.write(hds.Update, k, k+n)
		}
	}
	for r.part.idle > 0 {
		r.get(hot())
	}
	if got := r.part.ops - ops; got != 64+hotIdle {
		t.Fatalf("the partition served %d ops while off, want every one of the %d", got, 64+hotIdle)
	}
	phase("the off period ended", false)
	if r.table() != nil {
		t.Fatal("a table is published at the end of the off period")
	}
	r.get(1 + 97) // written while off
	if keys := r.pairs(); len(keys) != 1 || keys[0] != 98 {
		t.Fatalf("the table made after the off period holds %v, want key 98 alone", keys)
	}
	for i := range 2 * hotWindow { // a window of reads and more
		k := hot()
		switch {
		case i%10 == 0:
			r.get(uniform())
		case i%10 == 1:
			if _, ok := r.oracle[k]; ok {
				r.write(hds.Remove, k, 0)
			} else {
				r.write(hds.Insert, k, k)
			}
		case i%10 == 2:
			r.write(hds.Update, k, rng.Next())
		default:
			r.get(k)
		}
	}
	phase("a window of skewed reads and writes", false)
	for range 3 { // a big table goes back to base before it switches off
		if r.part.idle == 0 {
			r.window(uniform)
		}
	}
	phase("uniform reads again", true)
}

// TestHitTakesNoLock holds partition 0 through holdPartition: a round
// that reads keys whose pairs are installed there completes, with their
// values, while the partition stays held, and each hit counts in ops.
func TestHitTakesNoLock(t *testing.T) {
	h := New(Config{Partitions: 2, KeyMax: 1 << 20})
	defer h.Close()
	keys := []uint64{3, 5, 7, 1<<19 + 3}
	var ops []hds.Request
	for _, k := range keys {
		h.Build([]KV{{Key: k, Value: 2 * k}})
		ops = append(ops, hds.Request{Kind: hds.Read, Key: k})
	}
	b := h.NewBatcher(16)
	out := make([]Outcome, len(ops))
	b.Apply(ops, out) // misses: each read installs its pair
	release := holdPartition(h, 0, func() int { return 0 })
	defer release()
	done := make(chan struct{})
	go func() {
		defer func() { done <- struct{}{} }()
		for range 3 {
			b.Apply(ops, out)
			for i, k := range keys {
				if out[i] != (Outcome{Result: hds.Result{Value: 2 * k, OK: true}}) {
					t.Errorf("read of %d = %+v, want (%d, true)", k, out[i], 2*k)
				}
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("rounds of installed keys wait for the held partition")
	}
	release()
	if n := opsApplied(h); n != 4*uint64(len(ops)) {
		t.Errorf("core/p*/ops = %d, want %d", n, 4*len(ops))
	}
}

// TestHitsExactWithoutClose makes Batchers as a server's connections
// come and go, more than hitStripes of them, uses each and drops it with
// nothing to close: every hit stays in the partitions' cells, so hitsOn
// and core/p*/ops are exact.
func TestHitsExactWithoutClose(t *testing.T) {
	h := New(Config{Partitions: 2, KeyMax: 1 << 10})
	defer h.Close()
	h.Build([]KV{{Key: 1, Value: 1}, {Key: 600, Value: 2}})
	ops := []hds.Request{{Kind: hds.Read, Key: 1}, {Kind: hds.Read, Key: 600}}
	issued := uint64(0)
	for range 2*hitStripes + 3 {
		b := h.NewBatcher(4)
		b.Apply(ops, nil)
		b.Apply(ops, nil)
		issued += 4
	}
	if hits := h.hitsOn(0) + h.hitsOn(1); hits != issued-2 {
		t.Errorf("%d hits counted, want every read but the first two, %d", hits, issued-2)
	}
	if n := opsApplied(h); n != issued {
		t.Errorf("core/p*/ops = %d, want %d", n, issued)
	}
}

// TestHitsSharedStripe runs the first and the last of hitStripes+1
// Batchers, which count in one cell, on two goroutines at once, each
// 20 000 rounds of 16 hit reads: every add to the shared cell must land,
// so core/p0/ops is exact.
func TestHitsSharedStripe(t *testing.T) {
	const rounds, reads = 20000, 16
	h := New(Config{Partitions: 1, KeyMax: 1 << 10})
	defer h.Close()
	h.Build([]KV{{Key: 1, Value: 1}})
	ops := make([]hds.Request, reads)
	for i := range ops {
		ops[i] = hds.Request{Kind: hds.Read, Key: 1}
	}
	var bs []*Batcher
	for range hitStripes + 1 {
		bs = append(bs, h.NewBatcher(reads))
	}
	first, last := bs[0], bs[hitStripes]
	if first.stripe != last.stripe {
		t.Fatalf("Batchers %d apart count in stripes %d and %d, want one", hitStripes, first.stripe, last.stripe)
	}
	first.Apply(ops[:1], nil) // a miss, which installs the pair
	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, b := range []*Batcher{first, last} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]Outcome, reads)
			<-start
			for range rounds {
				b.Apply(ops, out)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n, want := opsApplied(h), uint64(1+2*rounds*reads); n != want {
		t.Errorf("core/p0/ops = %d, want %d", n, want)
	}
}

// TestHotReadsNeverTear has readers hammer one bucket that the holder
// keeps rewriting: 6 keys over a partition whose table is one bucket of
// three pairs, where a key's two buckets are one, until the readers' hits
// grow it to 8.
func TestHotReadsNeverTear(t *testing.T) {
	hammerHot(t, 6, []uint64{1, 2, 3, 4, 5, 6})
}

// TestHotReadsNeverTearTwoBuckets hammers 6 keys that share their first
// bucket over a store of 2^12 pairs, whose table has 64 buckets, and
// still share it once the readers' hits have grown the table 8 times.
// Three of them fit there, so the others are installed in their second
// buckets while the holder rewrites both.
func TestHotReadsNeverTearTwoBuckets(t *testing.T) {
	const load = 1 << 12
	big := newHotTable(hotBig * hotBuckets(load))
	byFirst := map[*hotBucket][]uint64{}
	for k := uint64(1); k <= load; k++ {
		b := big.at(k * hotMul)
		if byFirst[b] = append(byFirst[b], k); len(byFirst[b]) == 2*hotWays {
			hammerHot(t, load, byFirst[b])
			return
		}
	}
	t.Fatal("no bucket is the first of 6 keys")
}

// hammerHot builds keys 1..load, key k holding k<<32 | version, and has
// Batcher readers read keys while a Batcher writer updates them with
// rising versions, each update clearing its key's pair, and the readers'
// misses install them again, each evicting another key's pair. Every
// read must return its own key's value, which a read of a pair caught
// between its key and its value would not, and no reader may see a key's
// version fall.
func hammerHot(t *testing.T, load uint64, keys []uint64) {
	const updates, readers = 50000, 2
	h := New(Config{Partitions: 1, KeyMax: 1 << 20})
	defer h.Close()
	var pairs []KV
	for k := uint64(1); k <= load; k++ {
		pairs = append(pairs, KV{Key: k, Value: k << 32})
	}
	h.Build(pairs)
	var done atomic.Bool
	var wg sync.WaitGroup
	for c := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := h.NewBatcher(4)
			rng := prng.New(uint64(c) + 7)
			ops := make([]hds.Request, 4)
			out := make([]Outcome, 4)
			seen := map[uint64]uint64{}
			for !done.Load() {
				for i := range ops {
					ops[i] = hds.Request{Kind: hds.Read, Key: keys[rng.Intn(len(keys))]}
				}
				b.Apply(ops, out)
				for i, o := range out {
					k, v := ops[i].Key, o.Result.Value
					if !o.Result.OK || v>>32 != k || uint32(v) < uint32(seen[k]) {
						t.Errorf("reader %d: read of %d = %+v after version %d", c, k, o, uint32(seen[k]))
						return
					}
					seen[k] = v
				}
			}
		}()
	}
	b := h.NewBatcher(1)
	for n := uint64(1); n <= updates; n++ {
		k := keys[n%uint64(len(keys))]
		b.Apply([]hds.Request{{Kind: hds.Update, Key: k, Value: k<<32 | n}}, nil)
	}
	done.Store(true)
	wg.Wait()
	if err := checkHot(h); err != nil {
		t.Fatal(err)
	}
}

// TestHotSecondBucket reads four keys of one first bucket over a store of
// 2^12 pairs, whose table has 64 buckets: the fourth finds its first
// bucket full and is installed in its second, where a round answers it
// without the lock. An install of a key that either bucket holds changes
// nothing, even with room in the first; a write clears the pair in the
// second bucket, and the next read misses and installs the key in its
// first bucket, which has room again.
func TestHotSecondBucket(t *testing.T) {
	const n = 1 << 12
	var load []uint64
	for k := uint64(1); k <= n; k++ {
		load = append(load, k)
	}
	r := newHotRig(t, 1<<20, load)
	r.get(n)                    // makes the table
	r.write(hds.Update, n, 3*n) // and empties it
	tb := r.table()
	byFirst := map[*hotBucket][]uint64{}
	var keys []uint64
	for k := uint64(1); k < n && keys == nil; k++ {
		if b := tb.at(k * hotMul); b != tb.at(k*hotMul2) {
			if byFirst[b] = append(byFirst[b], k); len(byFirst[b]) == hotWays+1 {
				keys = byFirst[b]
			}
		}
	}
	k := keys[hotWays]
	first, second := tb.at(k*hotMul), tb.at(k*hotMul2)
	hits := func() uint64 { return r.h.hitsOn(0) }
	for _, key := range keys {
		r.get(key)
	}
	if first.way(k) >= 0 || second.way(k) < 0 {
		t.Fatalf("key %d, read with its first bucket full, is not in its second bucket alone", k)
	}
	before := hits()
	r.get(k)
	if hits() != before+1 {
		t.Fatalf("a round did not answer key %d from its second bucket", k)
	}
	r.write(hds.Update, keys[0], 1) // clears a way of the first bucket
	r.part.install(k, 3*k)
	if err := checkHot(r.h); err != nil {
		t.Fatalf("an install of a key held in its second bucket: %v", err)
	}
	r.write(hds.Update, k, 5)
	if first.way(k) >= 0 || second.way(k) >= 0 {
		t.Fatalf("a write to key %d left its pair", k)
	}
	before = hits()
	r.get(k)
	if hits() != before || first.way(k) < 0 {
		t.Fatalf("the read after a write: %d hits, key %d in its first bucket %v; want a miss installed there", hits()-before, k, first.way(k) >= 0)
	}
	if err := checkHot(r.h); err != nil {
		t.Fatal(err)
	}
}

// TestHotGrownKeepsEveryPair fills every way of a base table of 64
// buckets, some by each hash, and grows it: every pair must land, with
// its value, in one of the hotBig buckets its bucket covers, whichever
// hash placed it, so none is lost.
func TestHotGrownKeepsEveryPair(t *testing.T) {
	const n = 1 << 12
	var load []uint64
	for k := uint64(1); k <= n; k++ {
		load = append(load, k)
	}
	r := newHotRig(t, 1<<20, load)
	for k := uint64(1); k <= n; k++ {
		r.get(k)
	}
	tb := r.table()
	from, second := map[uint64]int{}, 0
	for i := range tb.b {
		for j := range tb.b[i].pairs {
			if k := tb.b[i].pairs[j].key.Load(); k != 0 {
				from[k] = i
				if tb.at(k*hotMul) != &tb.b[i] {
					second++
				}
			}
		}
	}
	if len(from) != hotWays*len(tb.b) || second == 0 {
		t.Fatalf("the base table holds %d pairs, %d by the second hash; want it full, some by each", len(from), second)
	}
	g := tb.grown()
	for i := range g.b {
		for j := range g.b[i].pairs {
			if k, v := g.b[i].pairs[j].key.Load(), g.b[i].pairs[j].val.Load(); k != 0 {
				if at, ok := from[k]; !ok || at != i/hotBig || v != 3*k {
					t.Fatalf("big bucket %d holds (%d, %d), from base bucket %d", i, k, v, at)
				}
				delete(from, k)
			}
		}
	}
	if len(from) != 0 {
		t.Fatalf("growth lost %d pairs", len(from))
	}
}
