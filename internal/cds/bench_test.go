package cds

import (
	"testing"

	"hybrids/internal/prng"
)

// Native micro-benchmarks for the non-simulated structures: these measure
// real hardware, complementing the simulated-machine experiments at the
// repository root.

// benchKeys is the key count the Get and Ascend benchmarks load.
const benchKeys = 1 << 16

// benchLoad puts keys 1..benchKeys into m, in ascending order or
// (shuffled) in a PRNG-shuffled one.
func benchLoad(m interface{ Put(key, value uint64) bool }, shuffled bool) {
	keys := make([]uint64, benchKeys)
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

// benchGet times uniform random hits over benchLoad's keys; the three
// engines' Get benchmarks share it (same keys, same PRNG stream), so
// their ns/op read side by side.
func benchGet(b *testing.B, shuffled bool, m interface {
	Put(key, value uint64) bool
	Get(key uint64) (uint64, bool)
}) {
	benchLoad(m, shuffled)
	rng := prng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Get(uint64(rng.Intn(benchKeys)) + 1)
	}
}

func BenchmarkSkipListGet(b *testing.B)  { benchGet(b, false, NewSkipList()) }
func BenchmarkBTreeGet(b *testing.B)     { benchGet(b, false, NewBTree()) }
func BenchmarkBSkipListGet(b *testing.B) { benchGet(b, false, NewBSkipList(0)) }

// BenchmarkBTreeGetRandomLoad is BenchmarkBTreeGet over a tree whose
// leaves were filled by mid splits (~70% full) instead of append splits.
func BenchmarkBTreeGetRandomLoad(b *testing.B) { benchGet(b, true, NewBTree()) }

// BenchmarkBTreeAscend100 times a 100-pair scan from a uniform random
// start: one descent and about seven leaves of the chain.
func BenchmarkBTreeAscend100(b *testing.B) {
	t := NewBTree()
	benchLoad(t, false)
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

func BenchmarkSkipListInsertDelete(b *testing.B) {
	s := NewSkipList()
	rng := prng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(rng.Intn(1<<16)) + 1
		if !s.Put(k, k) {
			s.Delete(k)
		}
	}
}

// benchPut times inserts of fresh uniform random keys into a growing map;
// the three engines share it like benchGet.
func benchPut(b *testing.B, m interface{ Put(key, value uint64) bool }) {
	rng := prng.New(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Put(rng.Next()>>1+1, 1)
	}
}

func BenchmarkSkipListPut(b *testing.B)  { benchPut(b, NewSkipList()) }
func BenchmarkBTreePut(b *testing.B)     { benchPut(b, NewBTree()) }
func BenchmarkBSkipListPut(b *testing.B) { benchPut(b, NewBSkipList(0)) }
