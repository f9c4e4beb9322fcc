package cds

import (
	"testing"

	"hybrids/internal/prng"
)

// TestHotTableSmallTreesMatchMap drives trees of 16-63 pairs, whose
// hot-pair tables have 1-8 slots, against a map. The reads are drawn
// from about a hundred keys, so nearly every read evicts another key's
// slot and every Update and Delete meets a slot that may or may not hold
// its key. The invariants, the table's included, are checked after
// every write.
func TestHotTableSmallTreesMatchMap(t *testing.T) {
	rng := prng.New(23)
	for n := 16; n < 64; n++ {
		bt := NewBTree()
		oracle := map[uint64]uint64{}
		keys := 2 * uint64(n)
		for len(oracle) < n {
			k := uint64(rng.Intn(int(keys))) + 1
			if bt.Put(k, k) {
				oracle[k] = k
			}
		}
		for i := 0; i < 400; i++ {
			k := uint64(rng.Intn(int(keys))) + 1
			wv, exists := oracle[k]
			switch op := rng.Intn(10); {
			case op < 6:
				if v, ok := bt.Get(k); ok != exists || v != wv {
					t.Fatalf("n=%d step %d: Get(%d) = (%d,%v), want (%d,%v)", n, i, k, v, ok, wv, exists)
				}
				continue
			case op < 8:
				v := rng.Next()
				if bt.Update(k, v) != exists {
					t.Fatalf("n=%d step %d: Update(%d) disagreed", n, i, k)
				}
				if exists {
					oracle[k] = v
				}
			case op == 8:
				if bt.Delete(k) != exists {
					t.Fatalf("n=%d step %d: Delete(%d) disagreed", n, i, k)
				}
				delete(oracle, k)
			default:
				v := rng.Next()
				if bt.Put(k, v) != !exists {
					t.Fatalf("n=%d step %d: Put(%d) disagreed", n, i, k)
				}
				if !exists {
					oracle[k] = v
				}
			}
			if err := bt.CheckInvariants(); err != nil {
				t.Fatalf("n=%d step %d: %v", n, i, err)
			}
		}
		if len(bt.hot) > 8 {
			t.Fatalf("n=%d: %d hot slots, want 1-8", n, len(bt.hot))
		}
	}
}

// TestHotTableSizing checks when the table exists and how large it is:
// no Put makes it, the first Get does, at one slot per hotPer pairs of
// leaf room rounded to the nearest power of two, and the leaf split that
// takes the room to 1.5 times what the table was sized for makes it anew,
// twice as large and empty. A window that hits half its probes makes it
// 8 times that, and the split that doubles the base size again makes the
// big table anew, 8 times the new base and empty.
func TestHotTableSizing(t *testing.T) {
	bt := NewBTree()
	const loaded = 1 << 14
	for k := uint64(1); k <= loaded; k++ {
		bt.Put(k, k)
	}
	if bt.hot != nil {
		t.Fatal("Put made the hot table")
	}
	if v, ok := bt.Get(7); !ok || v != 7 {
		t.Fatalf("Get(7) = (%d,%v)", v, ok)
	}
	if want := loaded / hotPer; len(bt.hot) != want {
		t.Fatalf("%d pairs in full leaves got %d slots, want %d", loaded, len(bt.hot), want)
	}
	if *bt.hotAt(7) != (hotPair{7, 7}) {
		t.Fatal("a read that descended did not install its pair")
	}
	for k := uint64(loaded + 1); len(bt.hot) == loaded/hotPer; k++ {
		bt.Put(k, k)
	}
	if room := bt.leaves.n * leafMax; room < 3*loaded/2 || room >= 3*loaded/2+leafMax || len(bt.hot) != 2*loaded/hotPer {
		t.Fatalf("the table regrew to %d slots at %d pairs of leaf room", len(bt.hot), room)
	}
	for _, h := range bt.hot {
		if h != (hotPair{}) {
			t.Fatal("a regrown table is not empty")
		}
	}
	if err := bt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	base := len(bt.hot)
	bt.probes, bt.hits = hotWindow, hotWindow/2
	bt.Get(7)
	if len(bt.hot) != 8*base || *bt.hotAt(7) != (hotPair{7, 7}) {
		t.Fatalf("a window of half hits left %d slots, want %d, with key 7 installed", len(bt.hot), 8*base)
	}
	for k := uint64(bt.Len() + 1); len(bt.hot) == 8*base; k++ {
		bt.Put(k, k)
	}
	if room := bt.leaves.n * leafMax; room < 3*loaded || room >= 3*loaded+leafMax || len(bt.hot) != 16*base {
		t.Fatalf("the big table regrew to %d slots at %d pairs of leaf room, want %d at %d", len(bt.hot), room, 16*base, 3*loaded)
	}
	for _, h := range bt.hot {
		if h != (hotPair{}) {
			t.Fatal("a regrown big table is not empty")
		}
	}
	if err := bt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestHotTableGrowsUnderSkew drives the table's size against a map over a
// tree of 2^14 pairs. A window of skewed Gets, 9 in 10 over 256 hot keys,
// hits far above half, so the next Get finds the table 8 times its base
// size, and every pair the base table held still hits there. A window of
// uniform Gets hits below half at that size (about 43 %) and makes the
// table base again, empty; one a quarter skewed, between 1/8 and half,
// leaves it at base and on; and uniform Gets switch it off. Every Get is
// checked against the map, and the invariants after each phase.
func TestHotTableGrowsUnderSkew(t *testing.T) {
	const n = 1 << 14
	bt := NewBTree()
	oracle := map[uint64]uint64{}
	for k := uint64(1); k <= n; k++ {
		bt.Put(k, k*3)
		oracle[k] = k * 3
	}
	rng := prng.New(31)
	uniform := func() uint64 { return uint64(rng.Intn(n)) + 1 }
	hot := func() uint64 { return uint64(rng.Intn(256))*61 + 1 }
	get := func(k uint64) {
		t.Helper()
		wv, exists := oracle[k]
		if v, ok := bt.Get(k); ok != exists || v != wv {
			t.Fatalf("Get(%d) = (%d,%v), want (%d,%v)", k, v, ok, wv, exists)
		}
	}
	base := hotSlots(bt.leaves.n)
	phase := func(name string, slots int, off bool) {
		t.Helper()
		if err := bt.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(bt.hot) != slots || bt.idle > 0 != off {
			t.Fatalf("%s: %d slots, off = %v; want %d, %v", name, len(bt.hot), bt.idle > 0, slots, off)
		}
	}
	// window runs Gets drawn by next until a window closes: the last Get
	// is the first of the next window.
	window := func(next func() uint64) {
		for bt.probes < hotWindow {
			get(next())
		}
		get(next())
	}

	skewed := func() uint64 {
		if rng.Intn(10) == 0 {
			return uniform()
		}
		return hot()
	}
	for range hotWindow {
		get(skewed())
	}
	phase("a window of skewed Gets", base, false)
	var held []uint64
	for _, h := range bt.hot {
		if h.key != 0 {
			held = append(held, h.key)
		}
	}
	for _, k := range held {
		get(k)
	}
	phase("the window closed", 8*base, false)
	if bt.probes != len(held) || bt.hits != len(held) {
		t.Fatalf("%d hits of %d probes of the %d pairs the base table held", bt.hits, bt.probes, len(held))
	}
	window(uniform)
	phase("a window of uniform Gets", base, false)
	used := 0
	for _, h := range bt.hot {
		if h.key != 0 {
			used++
		}
	}
	if used > 1 {
		t.Fatalf("the table made base again holds %d pairs after one Get", used)
	}
	window(func() uint64 {
		if rng.Intn(4) == 0 {
			return hot()
		}
		return uniform()
	})
	phase("a window a quarter skewed", base, false)
	window(uniform)
	phase("uniform Gets again", base, true)
}

// TestHotTableSpreadsHighBitKeys reads keys that differ only above bit
// 40: a hash that dropped the high bits of the product would send them
// all to one slot.
func TestHotTableSpreadsHighBitKeys(t *testing.T) {
	bt := NewBTree()
	const n = 1 << 14
	for i := uint64(1); i <= n; i++ {
		bt.Put(i<<40, i)
	}
	for i := uint64(1); i <= n; i++ {
		if v, ok := bt.Get(i << 40); !ok || v != i {
			t.Fatalf("Get(%d<<40) = (%d,%v)", i, v, ok)
		}
	}
	used := 0
	for _, h := range bt.hot {
		if h.key != 0 {
			used++
		}
	}
	if used < len(bt.hot)/2 {
		t.Fatalf("%d keys read filled %d of %d slots", n, used, len(bt.hot))
	}
	if err := bt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestHotTableSwitchesOff drives the table's switch against a map. A
// window of uniform Gets over 16 times more keys than slots, hitting far
// below break-even, switches it off with 64 hot keys the last pairs
// installed. Updates and Deletes of those keys while it is off leave
// their slots stale; the off period's end clears them. Skewed Gets then
// keep it on through a window, among writes to the hot keys, and
// uniform Gets switch it off again. Every Get is checked against the
// map, and the invariants, the switch's included, after each phase.
func TestHotTableSwitchesOff(t *testing.T) {
	const n = 1 << 14
	bt := NewBTree()
	oracle := map[uint64]uint64{}
	for k := uint64(1); k <= n; k++ {
		bt.Put(k, k)
		oracle[k] = k
	}
	rng := prng.New(29)
	uniform := func() uint64 { return uint64(rng.Intn(n)) + 1 }
	hot := func() uint64 { return uint64(rng.Intn(64))*97 + 1 }
	get := func(k uint64) {
		t.Helper()
		wv, exists := oracle[k]
		if v, ok := bt.Get(k); ok != exists || v != wv {
			t.Fatalf("Get(%d) = (%d,%v), want (%d,%v)", k, v, ok, wv, exists)
		}
	}
	phase := func(name string, off bool) {
		t.Helper()
		if err := bt.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if bt.idle > 0 != off {
			t.Fatalf("%s: table off = %v after %d hits of %d probes, want %v", name, bt.idle > 0, bt.hits, bt.probes, off)
		}
	}

	for range hotWindow - 64 {
		get(uniform())
	}
	for i := range uint64(64) {
		get(i*97 + 1)
	}
	phase("a window of uniform Gets", false)
	get(uniform()) // the window closes
	phase("the window closed", true)
	slots := &bt.hot[0]
	for i := range uint64(64) {
		if k := i*97 + 1; i%2 == 0 {
			bt.Delete(k)
			delete(oracle, k)
		} else {
			bt.Update(k, k+n)
			oracle[k] = k + n
		}
	}
	for bt.idle > 1 {
		get(uniform())
	}
	phase("writes while off", true)
	get(uniform())
	phase("the off period ended", false)
	if &bt.hot[0] != slots {
		t.Fatal("switching the table off and on replaced it")
	}
	for i := range 2 * hotWindow { // a window of Gets and more
		k := hot()
		switch {
		case i%10 == 0:
			get(uniform())
		case i%10 == 1:
			if _, ok := oracle[k]; ok {
				bt.Delete(k)
				delete(oracle, k)
			} else {
				bt.Put(k, k)
				oracle[k] = k
			}
		case i%10 == 2:
			v := rng.Next()
			if _, ok := oracle[k]; bt.Update(k, v) != ok {
				t.Fatalf("Update(%d) disagreed", k)
			} else if ok {
				oracle[k] = v
			}
		default:
			get(k)
		}
	}
	phase("a window of skewed Gets and writes", false)
	for range 2 * hotWindow {
		get(uniform())
	}
	phase("uniform Gets again", true)
}
