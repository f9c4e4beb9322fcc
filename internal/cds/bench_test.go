package cds

import (
	"testing"

	"hybrids/internal/prng"
)

// Native micro-benchmarks for the non-simulated structures: these measure
// real hardware, complementing the simulated-machine experiments at the
// repository root.

// benchKeys is the key count the Get and Ascend benchmarks load; the
// Get1M rows load benchKeysLarge, past the last-level cache.
const (
	benchKeys      = 1 << 16
	benchKeysLarge = 1 << 20
)

// orderedMap is the surface the benchmarks drive.
type orderedMap interface {
	Put(key, value uint64) bool
	Get(key uint64) (uint64, bool)
	Delete(key uint64) bool
}

// benchLoad puts keys 1..n into m, in ascending order or (shuffled) in a
// PRNG-shuffled one.
func benchLoad(m orderedMap, n int, shuffled bool) {
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
		m.Put(k, k)
	}
}

// benchGet times uniform random hits over benchLoad's n keys; the
// engines' Get benchmarks share it (same keys, same PRNG stream), so
// their ns/op read side by side.
func benchGet(b *testing.B, n int, shuffled bool, m orderedMap) {
	benchLoad(m, n, shuffled)
	rng := prng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Get(uint64(rng.Intn(n)) + 1)
	}
}

func BenchmarkBTreeGet(b *testing.B)       { benchGet(b, benchKeys, false, NewBTree()) }
func BenchmarkBSkipListGet(b *testing.B)   { benchGet(b, benchKeys, false, NewBSkipList()) }
func BenchmarkBTreeGet1M(b *testing.B)     { benchGet(b, benchKeysLarge, false, NewBTree()) }
func BenchmarkBSkipListGet1M(b *testing.B) { benchGet(b, benchKeysLarge, false, NewBSkipList()) }

// BenchmarkBTreeGetRandomLoad is BenchmarkBTreeGet over a tree whose
// leaves were filled by mid splits (~70% full) instead of append splits.
func BenchmarkBTreeGetRandomLoad(b *testing.B) { benchGet(b, benchKeys, true, NewBTree()) }

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

// benchPut times inserts of fresh uniform random keys into a growing map;
// the engines share it like benchGet.
func benchPut(b *testing.B, m orderedMap) {
	rng := prng.New(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Put(rng.Next()>>1+1, 1)
	}
}

func BenchmarkBTreePut(b *testing.B)     { benchPut(b, NewBTree()) }
func BenchmarkBSkipListPut(b *testing.B) { benchPut(b, NewBSkipList()) }

// benchMix is the embedded-mix workload's store-level shape: four stores
// of 2^18 keys each, loaded in ascending order one key in 64 of a 2^24
// span, then uniform 50-25-25 gets, puts and deletes over random stores
// and keys of that span.
func benchMix(b *testing.B, newMap func() orderedMap) {
	const perStore, span = 1 << 18, 1 << 24
	var stores [4]orderedMap
	for i := range stores {
		stores[i] = newMap()
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

func BenchmarkMixBTree(b *testing.B)     { benchMix(b, func() orderedMap { return NewBTree() }) }
func BenchmarkMixBSkipList(b *testing.B) { benchMix(b, func() orderedMap { return NewBSkipList() }) }
