package cds

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"hybrids/internal/metrics"
	"hybrids/internal/prng"
)

// TestBSkipListOracle drives a randomized op mix against a map-based model
// and validates the structure after every phase.
func TestBSkipListOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bs := NewBSkipList()
	model := map[uint64]uint64{}
	const keySpace = 4096
	for i := 0; i < 60000; i++ {
		key := uint64(rng.Intn(keySpace)) + 1
		value := rng.Uint64()
		switch rng.Intn(5) {
		case 0, 1:
			_, wantOK := model[key]
			if ok := bs.Put(key, value); ok == wantOK {
				t.Fatalf("Put(%d) ok=%v with model presence %v", key, ok, wantOK)
			}
			if !wantOK {
				model[key] = value
			}
		case 2:
			_, wantOK := model[key]
			if ok := bs.Update(key, value); ok != wantOK {
				t.Fatalf("Update(%d) ok=%v want %v", key, ok, wantOK)
			}
			if wantOK {
				model[key] = value
			}
		case 3:
			_, wantOK := model[key]
			if ok := bs.Delete(key); ok != wantOK {
				t.Fatalf("Delete(%d) ok=%v want %v", key, ok, wantOK)
			}
			delete(model, key)
		default:
			want, wantOK := model[key]
			got, ok := bs.Get(key)
			if ok != wantOK || (ok && got != want) {
				t.Fatalf("Get(%d) = %d,%v want %d,%v", key, got, ok, want, wantOK)
			}
		}
	}
	if bs.Len() != len(model) {
		t.Fatalf("Len = %d want %d", bs.Len(), len(model))
	}
	if err := bs.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var got []uint64
	bs.Ascend(0, func(k, v uint64) bool {
		if v != model[k] {
			t.Fatalf("Ascend key %d value %d want %d", k, v, model[k])
		}
		got = append(got, k)
		return true
	})
	if len(got) != len(keys) {
		t.Fatalf("Ascend yielded %d keys want %d", len(got), len(keys))
	}
	for i := range keys {
		if got[i] != keys[i] {
			t.Fatalf("Ascend[%d] = %d want %d", i, got[i], keys[i])
		}
	}
}

// TestBSkipListGrowth checks that dense sequential loading grows multiple
// levels, keeps fat nodes and reports structural events when instrumented.
func TestBSkipListGrowth(t *testing.T) {
	reg := metrics.NewRegistry()
	bs := NewBSkipList()
	bs.Instrument(reg, "store")
	const n = 100000
	for i := 1; i <= n; i++ {
		if !bs.Put(uint64(i), uint64(i)*3) {
			t.Fatalf("Put(%d) rejected", i)
		}
	}
	if bs.Len() != n {
		t.Fatalf("Len = %d want %d", bs.Len(), n)
	}
	if bs.Height() < 4 {
		t.Fatalf("height %d after %d inserts, want >= 4", bs.Height(), n)
	}
	if err := bs.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Get("store/leaf_splits") == 0 || snap.Get("store/inner_splits") == 0 ||
		snap.Get("store/level_growths") == 0 {
		t.Fatalf("expected structural events, got %v", snap)
	}
	for i := 1; i <= n; i++ {
		if v, ok := bs.Get(uint64(i)); !ok || v != uint64(i)*3 {
			t.Fatalf("Get(%d) = %d,%v", i, v, ok)
		}
	}
	// Partial range scan from the middle.
	want := uint64(n/2 + 1)
	bs.Ascend(want, func(k, v uint64) bool {
		if k != want {
			t.Fatalf("Ascend key %d want %d", k, want)
		}
		want++
		return want <= uint64(n/2+100)
	})
}

// TestBSkipListGetAllocs pins the allocation-free Get path the hybrid
// runtime's pooled-Future discipline depends on.
func TestBSkipListGetAllocs(t *testing.T) {
	bs := NewBSkipList()
	for i := 1; i <= 10000; i++ {
		bs.Put(uint64(i)*7, uint64(i))
	}
	key := uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		key += 7919
		bs.Get(key % 70000)
	})
	if allocs != 0 {
		t.Fatalf("Get allocates %v per op, want 0", allocs)
	}
}

func TestBSkipListNodeSizes(t *testing.T) {
	if got := unsafe.Sizeof(bsInner{}); got != 256 {
		t.Errorf("inner node is %d bytes, want 256", got)
	}
}

// TestBSkipListBulkLoadShape loads ascending keys — every split an append
// split, so leaves and inner nodes stay full — then churns the list with
// random puts, deletes and gets against a map.
func TestBSkipListBulkLoadShape(t *testing.T) {
	bs := NewBSkipList()
	const n = 100000
	for k := uint64(1); k <= n; k++ {
		bs.Put(k, k)
	}
	if fill := float64(n) / float64(bs.leaves.n*leafMax); fill < 0.99 {
		t.Errorf("ascending load leaves leaves %.2f full, want >= 0.99", fill)
	}
	if fill := float64(bs.leaves.n+bs.inners.n-1) / float64(bs.inners.n*bsInnerMax); fill < 0.95 {
		t.Errorf("ascending load leaves inner nodes %.2f full, want >= 0.95", fill)
	}
	if bs.Height() > 4 {
		t.Errorf("height %d for %d ascending keys, want <= 4", bs.Height(), n)
	}
	if err := bs.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	model := map[uint64]uint64{}
	for k := uint64(1); k <= n; k++ {
		model[k] = k
	}
	rng := prng.New(9)
	for i := 1; i <= 100000; i++ {
		k := uint64(rng.Intn(2*n)) + 1
		switch rng.Intn(3) {
		case 0:
			_, had := model[k]
			if bs.Put(k, uint64(i)) == had {
				t.Fatalf("Put(%d) disagreed with the model", k)
			}
			if !had {
				model[k] = uint64(i)
			}
		case 1:
			_, had := model[k]
			if bs.Delete(k) != had {
				t.Fatalf("Delete(%d) disagreed with the model", k)
			}
			delete(model, k)
		default:
			v, ok := bs.Get(k)
			if want, had := model[k]; ok != had || v != want {
				t.Fatalf("Get(%d) = (%d,%v), want (%d,%v)", k, v, ok, want, had)
			}
		}
		if i%10000 == 0 {
			if err := bs.CheckInvariants(); err != nil {
				t.Fatalf("after %d ops: %v", i, err)
			}
		}
	}
	if bs.Len() != len(model) {
		t.Fatalf("Len = %d, model %d", bs.Len(), len(model))
	}
}

// The TestSkipList cases below exercise the store behind the skiplist
// engine, which is this list.

func TestSkipListBasicOps(t *testing.T) {
	s := NewBSkipList()
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
	s := NewBSkipList()
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
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSkipListAscendSorted scans from a stored key, from a gap and from
// inside a leaf whose lower keys were deleted, and stops early.
func TestSkipListAscendSorted(t *testing.T) {
	s := NewBSkipList()
	for k := uint64(1); k <= 100; k++ {
		s.Put(k*2, k*20)
	}
	for k := uint64(2); k <= 20; k += 2 {
		s.Delete(k)
	}
	for _, c := range []struct{ from, first uint64 }{{0, 22}, {22, 22}, {23, 24}, {101, 102}, {200, 200}} {
		want := c.first
		s.Ascend(c.from, func(k, v uint64) bool {
			if k != want || v != k*10 {
				t.Fatalf("Ascend(%d) yielded (%d,%d), want key %d", c.from, k, v, want)
			}
			want += 2
			return true
		})
		if want != 202 {
			t.Fatalf("Ascend(%d) stopped before key %d", c.from, want)
		}
	}
	var got []uint64
	s.Ascend(51, func(k, v uint64) bool {
		got = append(got, k)
		return len(got) < 2
	})
	if len(got) != 2 || got[0] != 52 || got[1] != 54 {
		t.Fatalf("Ascend(51) with early stop = %v", got)
	}
	s.Ascend(201, func(k, _ uint64) bool {
		t.Fatalf("Ascend past the last key yielded %d", k)
		return false
	})
}

func TestSkipListPropertyInsertDeleteRoundTrip(t *testing.T) {
	f := func(keys []uint64) bool {
		s := NewBSkipList()
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
		if s.CheckInvariants() != nil {
			return false
		}
		for k := range inserted {
			if !s.Delete(k) {
				return false
			}
		}
		return s.Len() == 0 && s.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
