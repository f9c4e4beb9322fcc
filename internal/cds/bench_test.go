package cds

import (
	"testing"

	"hybrids/internal/prng"
)

// Native micro-benchmarks for the non-simulated structures: these measure
// real hardware, complementing the simulated-machine experiments at the
// repository root.

// benchGet times uniform random hits over 2^16 sequentially loaded keys;
// the three engines' Get benchmarks share it (same keys, same PRNG
// stream), so their ns/op read side by side.
func benchGet(b *testing.B, m interface {
	Put(key, value uint64) bool
	Get(key uint64) (uint64, bool)
}) {
	const n = 1 << 16
	for i := uint64(1); i <= n; i++ {
		m.Put(i, i)
	}
	rng := prng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Get(uint64(rng.Intn(n)) + 1)
	}
}

func BenchmarkSkipListGet(b *testing.B)  { benchGet(b, NewSkipList()) }
func BenchmarkBTreeGet(b *testing.B)     { benchGet(b, NewBTree()) }
func BenchmarkBSkipListGet(b *testing.B) { benchGet(b, NewBSkipList(0)) }

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

func BenchmarkBTreePut(b *testing.B) {
	t := NewBTree()
	rng := prng.New(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Put(rng.Next()>>1+1, 1)
	}
}
