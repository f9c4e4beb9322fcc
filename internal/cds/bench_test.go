package cds

import (
	"cmp"
	"slices"
	"testing"

	"hybrids/internal/prng"
	"hybrids/internal/ycsb"
)

// Native micro-benchmarks for the B+ tree: these measure real hardware,
// complementing the simulated-machine experiments at the repository root.

// benchKeys is the key count the Get and Ascend benchmarks load; the
// Get1M rows load benchKeysLarge, past the last-level cache.
const (
	benchKeys      = 1 << 16
	benchKeysLarge = 1 << 20
)

// benchLoad puts keys 1..n into t, in ascending order or (shuffled) in a
// PRNG-shuffled one.
func benchLoad(t *BTree, n int, shuffled bool) {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i) + 1
	}
	if shuffled {
		rng := prng.New(3)
		for i := len(keys) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			keys[i], keys[j] = keys[j], keys[i]
		}
	}
	for _, k := range keys {
		t.Put(k, k)
	}
}

// benchGet times uniform random hits over benchLoad's n keys; the Get
// rows share it (same PRNG stream), so their ns/op read side by side.
func benchGet(b *testing.B, n int, shuffled bool) {
	t := NewBTree()
	benchLoad(t, n, shuffled)
	rng := prng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Get(uint64(rng.Intn(n)) + 1)
	}
}

func BenchmarkBTreeGet(b *testing.B)   { benchGet(b, benchKeys, false) }
func BenchmarkBTreeGet1M(b *testing.B) { benchGet(b, benchKeysLarge, false) }

// BenchmarkBTreeGetZipf times YCSB-C reads of one embedded-read
// partition's size: a 2^18-key tree loaded in ascending order, read with
// zipfian 0.99 keys through YCSB's scrambled rank-to-key map, so the hot
// keys are scattered over the leaves and each read is a descent. The
// hybrid's host portion answers most of these reads before they reach the
// tree (BenchmarkHybridApplyBatch16Zipf in internal/core).
func BenchmarkBTreeGetZipf(b *testing.B) {
	g := ycsb.New(ycsb.YCSBC(1<<18, 1<<24, 7))
	load := g.Load()
	slices.SortFunc(load, func(x, y ycsb.Pair) int { return cmp.Compare(x.Key, y.Key) })
	t := NewBTree()
	for _, p := range load {
		t.Put(uint64(p.Key), uint64(p.Value))
	}
	ops := g.Streams(1, 1<<20)[0]
	var sum uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _ := t.Get(uint64(ops[i&(1<<20-1)].Key))
		sum += v
	}
	benchSink = sum
}

// BenchmarkBTreeGetRandomLoad is BenchmarkBTreeGet over a tree whose
// leaves were filled by mid splits (~70% full) instead of append splits.
func BenchmarkBTreeGetRandomLoad(b *testing.B) { benchGet(b, benchKeys, true) }

// BenchmarkBTreeAscend100 times a 100-pair scan from a uniform random
// start: one descent and about seven leaves of the chain.
func BenchmarkBTreeAscend100(b *testing.B) {
	t := NewBTree()
	benchLoad(t, benchKeys, false)
	rng := prng.New(1)
	var sum uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		t.Ascend(uint64(rng.Intn(benchKeys))+1, func(_, v uint64) bool {
			sum += v
			n++
			return n < 100
		})
	}
	benchSink = sum
}

// benchSink keeps a benchmark's result live.
var benchSink uint64

// BenchmarkBTreePut times inserts of fresh uniform random keys into a
// growing tree.
func BenchmarkBTreePut(b *testing.B) {
	t := NewBTree()
	rng := prng.New(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Put(rng.Next()>>1+1, 1)
	}
}

// BenchmarkBTreePutAscending times inserts of ascending keys into a
// growing tree, the order a bulk load inserts in.
func BenchmarkBTreePutAscending(b *testing.B) {
	t := NewBTree()
	for i := range b.N {
		t.Put(uint64(i)+1, 1)
	}
}

// BenchmarkMixBTree is the embedded-mix workload's store-level shape: four
// stores of 2^18 keys each, loaded in ascending order one key in 64 of a
// 2^24 span, then uniform 50-25-25 gets, puts and deletes over random
// stores and keys of that span.
func BenchmarkMixBTree(b *testing.B) {
	const perStore, span = 1 << 18, 1 << 24
	var stores [4]*BTree
	for i := range stores {
		stores[i] = NewBTree()
		for k := uint64(1); k <= perStore; k++ {
			stores[i].Put(k*(span/perStore), k)
		}
	}
	rng := prng.New(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := rng.Next()
		m, k := stores[x&3], (x>>2)%span+1
		switch (x >> 32) & 3 {
		case 0, 1:
			m.Get(k)
		case 2:
			m.Put(k, k)
		default:
			m.Delete(k)
		}
	}
}
