package cds

import (
	"fmt"
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
	// Keys 0 and MaxUint64 lie outside the oracle's key space: absent, and
	// asking changes nothing.
	for _, k := range []uint64{0, ^uint64(0)} {
		if v, ok := bt.Get(k); ok || v != 0 {
			t.Errorf("Get(%d) = (%d,%v), want (0,false)", k, v, ok)
		}
		if bt.Update(k, 9) || bt.Delete(k) {
			t.Errorf("Update/Delete(%d) succeeded", k)
		}
	}
	if bt.Len() != len(oracle) {
		t.Fatalf("Len = %d, oracle %d", bt.Len(), len(oracle))
	}
	if err := bt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBTreeGetAllocs holds Get at zero allocations: a descent touches
// only the tree's arenas.
func TestBTreeGetAllocs(t *testing.T) {
	bt := NewBTree()
	for k := uint64(1); k <= 4096; k++ {
		bt.Put(k, k*3)
	}
	key := uint64(1)
	allocs := testing.AllocsPerRun(1000, func() {
		bt.Get(key)
		key = key%4096 + 1
	})
	if allocs != 0 {
		t.Fatalf("Get allocates %.1f objects/op, want 0", allocs)
	}
}

// TestBTreeWriteAllocs holds steady-state writes at zero allocations: an
// Update, and a Delete followed by a Put of the same key, on a loaded tree
// (Put records its descent in a stack array and the emptied leaf slot
// takes the key back).
func TestBTreeWriteAllocs(t *testing.T) {
	bt := NewBTree()
	for k := uint64(1); k <= 4096; k++ {
		bt.Put(k, k*3)
	}
	key := uint64(1)
	if allocs := testing.AllocsPerRun(1000, func() {
		bt.Update(key, key)
		key = key%4096 + 1
	}); allocs != 0 {
		t.Errorf("Update allocates %.1f objects/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if !bt.Delete(key) || !bt.Put(key, key) {
			t.Fatalf("Delete+Put of stored key %d failed", key)
		}
		key = key%4096 + 1
	}); allocs != 0 {
		t.Errorf("Delete+Put allocates %.1f objects/op, want 0", allocs)
	}
}

func TestBTreeSequentialInsertGrowsHeight(t *testing.T) {
	bt := NewBTree()
	h0 := bt.height
	for i := uint64(1); i <= 5000; i++ {
		if !bt.Put(i, i) {
			t.Fatalf("Put(%d) failed", i)
		}
	}
	if bt.height <= h0 {
		t.Fatalf("height did not grow: %d", bt.height)
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

// TestBTreeWriteLine pins the layout that keeps what every write stores
// (the pair count) and what a split adds to (the structural counters) on
// a cache line of its own, off the lines every operation reads and in the
// tree's own allocation.
func TestBTreeWriteLine(t *testing.T) {
	escaped = NewBTree() // on the heap, as a partition's store is
	bt := escaped
	off := unsafe.Offsetof(bt.length)
	if addr := uintptr(unsafe.Pointer(bt)); off%64 != 0 || unsafe.Offsetof(bt.rootGrowths) >= off+64 || unsafe.Sizeof(*bt) != off+64 || addr%64 != 0 {
		t.Fatalf("length at byte %d, rootGrowths at %d, %d bytes at %#x; want a 64-aligned tree whose last line starts at length and holds the counters",
			off, unsafe.Offsetof(bt.rootGrowths), unsafe.Sizeof(*bt), addr)
	}
}

var escaped *BTree

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
	if bt.height > 4 {
		t.Fatalf("height %d after an ascending load of %d keys, want <= 4", bt.height, n)
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

// TestBTreeAppendMatchesDescent drives two trees through the same
// operations, one through Put and one through put's descent alone, and
// requires them equal node for node: the right-edge append is a shortcut
// to the tree the descent builds, not a different tree. The sequences
// cover ascending, descending and random keys, and deletes that empty the
// rightmost leaf, which the append must leave to the descent.
func TestBTreeAppendMatchesDescent(t *testing.T) {
	type op struct {
		key uint64
		del bool
	}
	rng := prng.New(19)
	seqs := map[string][]op{}
	for k := uint64(1); k <= 5000; k++ {
		seqs["ascending"] = append(seqs["ascending"], op{key: 3 * k})
		seqs["descending"] = append(seqs["descending"], op{key: 5001 - k})
		seqs["random"] = append(seqs["random"], op{key: uint64(rng.Intn(8000)) + 1})
		// Ascending inserts, each followed one time in three by the
		// delete of a recent key, which often empties the last leaf.
		seqs["ascending-deletes"] = append(seqs["ascending-deletes"], op{key: 2 * k})
		if rng.Intn(3) == 0 {
			seqs["ascending-deletes"] = append(seqs["ascending-deletes"], op{key: 2 * (k - uint64(rng.Intn(4))), del: true})
		}
	}
	// An ascending load whose top 40 keys go, then inserts above, between
	// and below what is left.
	var drain []op
	for k := uint64(1); k <= 1000; k++ {
		drain = append(drain, op{key: 2 * k})
	}
	for k := uint64(961); k <= 1000; k++ {
		drain = append(drain, op{key: 2 * k, del: true})
	}
	for k := uint64(1); k <= 1000; k++ {
		drain = append(drain, op{key: 2000 + k}, op{key: 2*k - 1})
	}
	seqs["drain-then-refill"] = drain
	for name, seq := range seqs {
		fast, slow := NewBTree(), NewBTree()
		for i, o := range seq {
			if o.del {
				if fast.Delete(o.key) != slow.Delete(o.key) {
					t.Fatalf("%s, op %d: Delete(%d) disagreed", name, i, o.key)
				}
			} else if fast.Put(o.key, o.key+1) != slow.put(o.key, o.key+1) {
				t.Fatalf("%s, op %d: Put(%d) disagreed", name, i, o.key)
			}
		}
		if err := sameTree(fast, slow); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := fast.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// sameTree reports the first difference between two trees' arenas, root,
// last leaf, height and length.
func sameTree(a, b *BTree) error {
	if a.root != b.root || a.last != b.last || a.height != b.height || a.length != b.length ||
		a.leaves.n != b.leaves.n || a.inners.n != b.inners.n {
		return fmt.Errorf("root %d/%d, last %d/%d, height %d/%d, length %d/%d, leaves %d/%d, inners %d/%d",
			a.root, b.root, a.last, b.last, a.height, b.height, a.length, b.length,
			a.leaves.n, b.leaves.n, a.inners.n, b.inners.n)
	}
	for x := range uint32(a.leaves.n) {
		if *a.leaves.at(x) != *b.leaves.at(x) {
			return fmt.Errorf("leaf %d differs: %+v, %+v", x, *a.leaves.at(x), *b.leaves.at(x))
		}
	}
	for x := range uint32(a.inners.n) {
		if *a.inners.at(x) != *b.inners.at(x) {
			return fmt.Errorf("inner node %d differs: %+v, %+v", x, *a.inners.at(x), *b.inners.at(x))
		}
	}
	return nil
}
