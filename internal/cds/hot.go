package cds

import "math/bits"

// The hot-pair table (DESIGN §5.8): a direct-mapped array of recently
// read pairs that Get probes before it descends. While the table is on,
// a non-empty slot's pair is in the tree with that value: Get installs
// what a descent found, Update writes through a matching slot and Delete
// clears one. A window that hits often makes the table big, every pair
// moved, and one that hits less makes it base size again, empty. A table
// that does not hit switches itself off: neither Get nor a write touches
// it then, and it is cleared when it comes back on.
const (
	// hotPer is the pairs of leaf room per slot of a base table. hotBig is
	// a big table's slots over the base size: one slot per two pairs of
	// leaf room, the fastest of a sweep of embedded-read (DESIGN §5.8).
	hotPer = 16
	hotBig = 8
	// hotMul is the Fibonacci-hash multiplier, 2^64 over the golden ratio.
	hotMul = 0x9E3779B97F4A7C15
	// A table is judged over hotWindow probes. If fewer than
	// hotWindow/hotBreakEven of them hit, it is off for the next hotIdle
	// Gets. hotBreakEven is a descent's cost over a probe's, measured
	// with BenchmarkBTreeGet and BenchmarkMixBTree (DESIGN §5.8). A base
	// table grows when at least hotWindow/hotGrow hit, a big one goes
	// back to base when fewer do.
	hotWindow    = 1 << 14
	hotBreakEven = 8
	hotGrow      = 2
	hotIdle      = 1 << 16
)

// hotPair is one slot; key 0, the hds -inf sentinel, marks it empty.
type hotPair struct{ key, val uint64 }

// hotSlots is the base table size for a tree of n leaves: the power of
// two nearest their room over hotPer.
func hotSlots(n int) int {
	return 1 << bits.Len(uint(n*leafMax*2/(3*hotPer)))
}

// hotAt returns key's slot: the top log2(len(t.hot)) bits of key*hotMul,
// which every key bit moves (one slot shifts by 64, leaving 0).
func (t *BTree) hotAt(key uint64) *hotPair {
	return &t.hot[key*hotMul>>bits.LeadingZeros64(uint64(len(t.hot)-1))]
}

// probe reports whether Get probes the table and counts the probe. It
// inlines its common case, a table on in mid-window, and leaves the rest
// to judge; a new tree starts at a window's end, so its first Get judges.
func (t *BTree) probe() bool {
	if t.probes == hotWindow || t.idle > 0 {
		return t.judge()
	}
	t.probes++
	return true
}

// judge is the rest of probe: it makes the table at the first Get,
// closes a full window, sizing the table or switching it off by its hits,
// counts an off period down, clearing the stale table at its end, and
// counts the probe.
func (t *BTree) judge() bool {
	if t.hot == nil {
		t.hot = make([]hotPair, hotSlots(t.leaves.n))
		t.probes = 0
	}
	if t.probes == hotWindow {
		switch base := hotSlots(t.leaves.n); {
		case t.hits >= hotWindow/hotGrow && len(t.hot) == base:
			t.growHot()
		case t.hits < hotWindow/hotGrow && len(t.hot) != base:
			t.hot = make([]hotPair, base)
		}
		if t.hits < hotWindow/hotBreakEven {
			t.idle = hotIdle
		}
		t.probes, t.hits = 0, 0
	}
	if t.idle > 0 {
		if t.idle--; t.idle == 0 {
			clear(t.hot)
		}
		return false
	}
	t.probes++
	return true
}

// growHot makes the table big in one step. Slot i of the base table
// covers slots hotBig*i to hotBig*i+hotBig-1 of the big one (hotAt takes
// more top bits of the same hash), so every pair moves to a slot of its
// own and every hit stays a hit.
func (t *BTree) growHot() {
	old := t.hot
	t.hot = make([]hotPair, hotBig*len(old))
	for _, h := range old {
		if h.key != 0 {
			*t.hotAt(h.key) = h
		}
	}
}

// checkHot validates the table for CheckInvariants: absent, or the base
// or the big size for the leaves, a switch whose window counts are in
// range and empty while off, and, while on, every non-empty slot at its
// key's hash position, holding the tree's current value.
func (t *BTree) checkHot() error {
	if base := hotSlots(t.leaves.n); t.hot != nil && len(t.hot) != base && len(t.hot) != hotBig*base {
		return errf("btree: hot table of %d slots; %d leaves call for %d or %d", len(t.hot), t.leaves.n, base, hotBig*base)
	}
	if t.hits > t.probes || t.probes > hotWindow || t.idle > hotIdle || t.idle > 0 && t.probes > 0 {
		return errf("btree: hot switch at %d hits of %d probes, %d Gets off", t.hits, t.probes, t.idle)
	}
	if t.idle > 0 {
		return nil // the slots may be stale until the table is cleared
	}
	for i, h := range t.hot {
		l := t.find(h.key)
		if j, ok := l.slot(h.key); h.key != 0 && (t.hotAt(h.key) != &t.hot[i] || !ok || l.vals[j] != h.val) {
			return errf("btree: hot slot %d holds (%d, %d), not the tree's pair at its hash position", i, h.key, h.val)
		}
	}
	return nil
}
