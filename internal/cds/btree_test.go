package cds

import (
	"testing"
	"testing/quick"
	"unsafe"

	"hybrids/internal/prng"
)

func TestBTreeBasicOps(t *testing.T) {
	bt := NewBTree()
	if _, ok := bt.Get(5); ok {
		t.Fatal("empty tree returned a value")
	}
	if !bt.Put(5, 50) || bt.Put(5, 60) {
		t.Fatal("Put semantics wrong")
	}
	if v, ok := bt.Get(5); !ok || v != 50 {
		t.Fatalf("Get = (%d,%v)", v, ok)
	}
	if !bt.Update(5, 70) || bt.Update(6, 1) {
		t.Fatal("Update semantics wrong")
	}
	if v, _ := bt.Get(5); v != 70 {
		t.Fatal("update not applied")
	}
	if !bt.Delete(5) || bt.Delete(5) {
		t.Fatal("Delete semantics wrong")
	}
	if bt.Len() != 0 {
		t.Fatalf("Len = %d", bt.Len())
	}
}

func TestBTreeSequentialOracle(t *testing.T) {
	bt := NewBTree()
	oracle := map[uint64]uint64{}
	rng := prng.New(11)
	for i := 0; i < 50000; i++ {
		k := uint64(rng.Intn(5000)) + 1
		switch rng.Intn(4) {
		case 0:
			v, ok := bt.Get(k)
			wv, wok := oracle[k]
			if ok != wok || (ok && v != wv) {
				t.Fatalf("step %d: Get(%d) = (%d,%v), want (%d,%v)", i, k, v, ok, wv, wok)
			}
		case 1:
			v := rng.Next()
			_, exists := oracle[k]
			if bt.Put(k, v) != !exists {
				t.Fatalf("step %d: Put(%d) disagreed", i, k)
			}
			if !exists {
				oracle[k] = v
			}
		case 2:
			v := rng.Next()
			_, exists := oracle[k]
			if bt.Update(k, v) != exists {
				t.Fatalf("step %d: Update(%d) disagreed", i, k)
			}
			if exists {
				oracle[k] = v
			}
		default:
			_, exists := oracle[k]
			if bt.Delete(k) != exists {
				t.Fatalf("step %d: Delete(%d) disagreed", i, k)
			}
			delete(oracle, k)
		}
		if i%5000 == 0 {
			if err := bt.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}
	if bt.Len() != len(oracle) {
		t.Fatalf("Len = %d, oracle %d", bt.Len(), len(oracle))
	}
	if err := bt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBTreeSequentialInsertGrowsHeight(t *testing.T) {
	bt := NewBTree()
	h0 := bt.Height()
	for i := uint64(1); i <= 5000; i++ {
		if !bt.Put(i, i) {
			t.Fatalf("Put(%d) failed", i)
		}
	}
	if bt.Height() <= h0 {
		t.Fatalf("height did not grow: %d", bt.Height())
	}
	if err := bt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Everything readable in order.
	prev := uint64(0)
	count := 0
	bt.Ascend(1, func(k, v uint64) bool {
		if k != prev+1 || v != k {
			t.Fatalf("iteration wrong at %d", k)
		}
		prev = k
		count++
		return true
	})
	if count != 5000 {
		t.Fatalf("iterated %d", count)
	}
}

func TestBTreeDescendingAndRandomInserts(t *testing.T) {
	for name, gen := range map[string]func(i int) uint64{
		"descending": func(i int) uint64 { return uint64(10000 - i) },
		"random":     func(i int) uint64 { return prng.Mix64(uint64(i))%1000000 + 1 },
	} {
		bt := NewBTree()
		seen := map[uint64]bool{}
		for i := 0; i < 8000; i++ {
			k := gen(i)
			if seen[k] {
				continue
			}
			seen[k] = true
			if !bt.Put(k, k^7) {
				t.Fatalf("%s: Put(%d) failed", name, k)
			}
		}
		if bt.Len() != len(seen) {
			t.Fatalf("%s: Len = %d want %d", name, bt.Len(), len(seen))
		}
		if err := bt.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for k := range seen {
			if v, ok := bt.Get(k); !ok || v != k^7 {
				t.Fatalf("%s: Get(%d) = (%d,%v)", name, k, v, ok)
			}
		}
	}
}

func TestBTreeAscendFromMidpoint(t *testing.T) {
	bt := NewBTree()
	for i := uint64(10); i <= 100; i += 10 {
		bt.Put(i, i)
	}
	var got []uint64
	bt.Ascend(35, func(k, v uint64) bool {
		got = append(got, k)
		return true
	})
	want := []uint64{40, 50, 60, 70, 80, 90, 100}
	if len(got) != len(want) {
		t.Fatalf("Ascend(35) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ascend(35) = %v", got)
		}
	}
	bt.Ascend(101, func(k, _ uint64) bool {
		t.Fatalf("Ascend past the last key yielded %d", k)
		return false
	})
}

func TestBTreeEmptyLeafTolerated(t *testing.T) {
	bt := NewBTree()
	for i := uint64(1); i <= 200; i++ {
		bt.Put(i, i)
	}
	// Empty out a whole leaf range, then keep operating.
	for i := uint64(1); i <= 50; i++ {
		bt.Delete(i)
	}
	if err := bt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 50; i++ {
		if _, ok := bt.Get(i); ok {
			t.Fatalf("deleted key %d readable", i)
		}
		if !bt.Put(i, i*2) {
			t.Fatalf("re-insert %d failed", i)
		}
	}
	if err := bt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBTreePropertyMatchesMap(t *testing.T) {
	f := func(ops []struct {
		K uint16
		V uint32
		D bool
	}) bool {
		bt := NewBTree()
		oracle := map[uint64]uint64{}
		for _, op := range ops {
			k := uint64(op.K) + 1
			if op.D {
				_, exists := oracle[k]
				if bt.Delete(k) != exists {
					return false
				}
				delete(oracle, k)
			} else {
				_, exists := oracle[k]
				if bt.Put(k, uint64(op.V)) != !exists {
					return false
				}
				if !exists {
					oracle[k] = uint64(op.V)
				}
			}
		}
		if bt.Len() != len(oracle) {
			return false
		}
		for k, v := range oracle {
			if got, ok := bt.Get(k); !ok || got != v {
				return false
			}
		}
		return bt.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBTreeNodeSizes(t *testing.T) {
	if got := unsafe.Sizeof(leaf{}); got != 256 {
		t.Errorf("leaf is %d bytes, want 256", got)
	}
	if got := unsafe.Sizeof(btInner{}); got != 256 {
		t.Errorf("inner node is %d bytes, want 256", got)
	}
}

// leafFill returns the mean occupancy of the tree's leaves.
func leafFill(bt *BTree) float64 {
	return float64(bt.Len()) / float64(bt.leaves.n*leafMax)
}

// TestBTreeBulkLoadShape loads ascending keys — every split an append
// split, so leaves end full and the tree short — then churns the loaded
// tree at random, which takes full leaves through the mid split.
func TestBTreeBulkLoadShape(t *testing.T) {
	const n = 100000
	bt := NewBTree()
	oracle := make(map[uint64]uint64, n)
	for i := uint64(1); i <= n; i++ {
		k := 2 * i // odd keys stay free for the churn
		if !bt.Put(k, k+1) {
			t.Fatalf("Put(%d) failed", k)
		}
		oracle[k] = k + 1
	}
	if err := bt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if fill := leafFill(bt); fill < 0.95 {
		t.Fatalf("leaf fill %.3f after an ascending load, want >= 0.95", fill)
	}
	if bt.Height() > 4 {
		t.Fatalf("height %d after an ascending load of %d keys, want <= 4", bt.Height(), n)
	}
	rng := prng.New(5)
	for i := 1; i <= n; i++ {
		k := uint64(rng.Intn(2*n+2)) + 1
		want, exists := oracle[k]
		switch rng.Intn(3) {
		case 0:
			v := rng.Next()
			if bt.Put(k, v) != !exists {
				t.Fatalf("step %d: Put(%d) disagreed", i, k)
			}
			if !exists {
				oracle[k] = v
			}
		case 1:
			if bt.Delete(k) != exists {
				t.Fatalf("step %d: Delete(%d) disagreed", i, k)
			}
			delete(oracle, k)
		default:
			if v, ok := bt.Get(k); ok != exists || v != want {
				t.Fatalf("step %d: Get(%d) = (%d,%v), want (%d,%v)", i, k, v, ok, want, exists)
			}
		}
		if i%10000 == 0 {
			if err := bt.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}
	if bt.Len() != len(oracle) {
		t.Fatalf("Len = %d, oracle %d", bt.Len(), len(oracle))
	}
	bt.Ascend(0, func(k, v uint64) bool {
		if want, ok := oracle[k]; !ok || v != want {
			t.Fatalf("Ascend yields (%d,%d), oracle has (%d,%v)", k, v, want, ok)
		}
		delete(oracle, k)
		return true
	})
	if len(oracle) != 0 {
		t.Fatalf("Ascend missed %d pairs", len(oracle))
	}
}

func TestBTreeAscendCrossesLeaves(t *testing.T) {
	bt := NewBTree()
	for k := uint64(1); k <= 10*leafMax; k++ {
		bt.Put(k, k*2)
	}
	// Empty the third and fourth leaves: the chain still links them.
	for k := uint64(2*leafMax + 1); k <= 4*leafMax; k++ {
		bt.Delete(k)
	}
	if err := bt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Stop in the middle of the second leaf, then resume from the key the
	// walk stopped at.
	stop := uint64(leafMax + 7)
	var got []uint64
	collect := func(until uint64) func(k, v uint64) bool {
		return func(k, v uint64) bool {
			if v != k*2 {
				t.Fatalf("Ascend yields (%d,%d)", k, v)
			}
			got = append(got, k)
			return k != until
		}
	}
	bt.Ascend(3, collect(stop))
	if last := got[len(got)-1]; last != stop || len(got) != int(stop)-2 {
		t.Fatalf("first walk ended at %d after %d pairs", last, len(got))
	}
	got = got[:len(got)-1]
	bt.Ascend(stop, collect(0))
	want := uint64(3)
	for _, k := range got {
		if k != want {
			t.Fatalf("walk yields %d, want %d", k, want)
		}
		if want++; want == 2*leafMax+1 {
			want = 4*leafMax + 1
		}
	}
	if want != 10*leafMax+1 {
		t.Fatalf("walk ended before %d", want)
	}
	// A start inside the emptied range lands on the first key after it.
	bt.Ascend(3*leafMax, func(k, _ uint64) bool {
		if k != 4*leafMax+1 {
			t.Fatalf("Ascend from the emptied range starts at %d", k)
		}
		return false
	})
}
