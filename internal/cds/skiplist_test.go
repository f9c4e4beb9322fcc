package cds

import (
	"testing"
	"testing/quick"

	"hybrids/internal/prng"
)

func TestSkipListBasicOps(t *testing.T) {
	s := NewSkipList()
	if _, ok := s.Get(42); ok {
		t.Fatal("empty list returned a value")
	}
	if !s.Put(42, 100) {
		t.Fatal("insert failed")
	}
	if s.Put(42, 200) {
		t.Fatal("duplicate insert succeeded")
	}
	if v, ok := s.Get(42); !ok || v != 100 {
		t.Fatalf("Get = (%d,%v)", v, ok)
	}
	if !s.Update(42, 300) {
		t.Fatal("update failed")
	}
	if v, _ := s.Get(42); v != 300 {
		t.Fatalf("after update = %d", v)
	}
	if s.Update(43, 1) {
		t.Fatal("update of absent key succeeded")
	}
	if !s.Delete(42) {
		t.Fatal("delete failed")
	}
	if s.Delete(42) {
		t.Fatal("second delete succeeded")
	}
	if _, ok := s.Get(42); ok {
		t.Fatal("deleted key readable")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestSkipListSequentialOracle(t *testing.T) {
	s := NewSkipList()
	oracle := map[uint64]uint64{}
	rng := prng.New(7)
	for i := 0; i < 20000; i++ {
		k := uint64(rng.Intn(2000)) + 1
		switch rng.Intn(4) {
		case 0:
			v, ok := s.Get(k)
			wv, wok := oracle[k]
			if ok != wok || (ok && v != wv) {
				t.Fatalf("Get(%d) = (%d,%v), want (%d,%v)", k, v, ok, wv, wok)
			}
		case 1:
			v := rng.Next()
			_, exists := oracle[k]
			if s.Put(k, v) != !exists {
				t.Fatalf("Insert(%d) disagreed with oracle", k)
			}
			if !exists {
				oracle[k] = v
			}
		case 2:
			v := rng.Next()
			_, exists := oracle[k]
			if s.Update(k, v) != exists {
				t.Fatalf("Update(%d) disagreed with oracle", k)
			}
			if exists {
				oracle[k] = v
			}
		default:
			_, exists := oracle[k]
			if s.Delete(k) != exists {
				t.Fatalf("Delete(%d) disagreed with oracle", k)
			}
			delete(oracle, k)
		}
	}
	if s.Len() != len(oracle) {
		t.Fatalf("Len = %d, oracle %d", s.Len(), len(oracle))
	}
}

func TestSkipListAscendSorted(t *testing.T) {
	s := NewSkipList()
	for _, k := range []uint64{5, 1, 9, 3, 7} {
		s.Put(k, k*10)
	}
	var got []uint64
	s.Ascend(1, func(k, v uint64) bool {
		if v != k*10 {
			t.Fatalf("value mismatch at %d", k)
		}
		got = append(got, k)
		return true
	})
	want := []uint64{1, 3, 5, 7, 9}
	if len(got) != len(want) {
		t.Fatalf("Ascend = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ascend = %v", got)
		}
	}
	// From a midpoint, and early stop.
	got = got[:0]
	s.Ascend(4, func(k, v uint64) bool {
		got = append(got, k)
		return len(got) < 2
	})
	if len(got) != 2 || got[0] != 5 || got[1] != 7 {
		t.Fatalf("Ascend(4) = %v", got)
	}
}

func TestSkipListReservedKeysPanic(t *testing.T) {
	s := NewSkipList()
	s.Put(7, 70)
	for _, k := range []uint64{0, ^uint64(0)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("key %d did not panic", k)
				}
			}()
			s.Put(k, 1)
		}()
		// The sentinels are never stored, so every other method reports
		// them absent and leaves the list alone.
		if v, ok := s.Get(k); ok || v != 0 {
			t.Errorf("Get(%d) = (%d,%v), want (0,false)", k, v, ok)
		}
		if s.Update(k, 9) {
			t.Errorf("Update(%d) succeeded", k)
		}
		if s.Delete(k) {
			t.Errorf("Delete(%d) succeeded", k)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get(7); !ok || v != 70 || s.Len() != 1 {
		t.Fatalf("after reserved-key calls: Get(7) = (%d,%v), Len %d", v, ok, s.Len())
	}
}

// TestSkipListChurnBounded holds the population constant while deleting
// and inserting a million keys: the churn allocates nothing and the arena
// does not grow, because an insert reuses a freed node of its size. (The
// sizes' populations each wander a few percent above where the load left
// them, and that much is carved fresh; the load leaves a third of its last
// chunk for it. Without reuse the churn would carve 50 more chunks.)
func TestSkipListChurnBounded(t *testing.T) {
	const n = 1 << 16
	s := NewSkipList()
	for k := uint64(1); k <= n; k++ {
		s.Put(k, k)
	}
	loaded := len(s.chunks)
	const runs = 1000
	oldest, next := uint64(1), uint64(n+1)
	allocs := testing.AllocsPerRun(runs, func() {
		for i := 0; i < 1_000_000/runs/2; i++ {
			if !s.Delete(oldest) || !s.Put(next, next) {
				t.Fatalf("churn lost track at delete %d, insert %d", oldest, next)
			}
			oldest++
			next++
		}
	})
	if allocs != 0 {
		t.Errorf("churn allocates %.1f objects per %d ops, want 0", allocs, 1_000_000/runs)
	}
	if got := len(s.chunks); got != loaded {
		t.Errorf("arena grew from %d to %d chunks under constant-population churn", loaded, got)
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSkipListPropertyInsertDeleteRoundTrip(t *testing.T) {
	f := func(keys []uint64) bool {
		s := NewSkipList()
		inserted := map[uint64]bool{}
		for _, k := range keys {
			k = k%1000000 + 1
			s.Put(k, k)
			inserted[k] = true
		}
		for k := range inserted {
			if v, ok := s.Get(k); !ok || v != k {
				return false
			}
		}
		for k := range inserted {
			if !s.Delete(k) {
				return false
			}
		}
		return s.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
