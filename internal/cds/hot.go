package cds

import "math/bits"

// The hot-pair table (DESIGN §5.8): a direct-mapped array of recently
// read pairs that Get probes before it descends. While the table is on,
// a non-empty slot's pair is in the tree with that value: Get installs
// what a descent found, Update writes through a matching slot and Delete
// clears one. A table that does not hit switches itself off: neither Get
// nor a write touches it then, and it is cleared when it comes back on.
const (
	// hotPer is the pairs of leaf room per slot, chosen by a sweep of
	// embedded-read over 64, 16 and 4.
	hotPer = 16
	// hotMul is the Fibonacci-hash multiplier, 2^64 over the golden ratio.
	hotMul = 0x9E3779B97F4A7C15
	// A table is judged over hotWindow probes. If fewer than
	// hotWindow/hotBreakEven of them hit, it is off for the next hotIdle
	// Gets. hotBreakEven is a descent's cost over a probe's, measured
	// with BenchmarkBTreeGet and BenchmarkMixBTree (DESIGN §5.8).
	hotWindow    = 1 << 14
	hotBreakEven = 8
	hotIdle      = 1 << 16
)

// hotPair is one slot; key 0, the hds -inf sentinel, marks it empty.
type hotPair struct{ key, val uint64 }

// hotSlots is the table size for a tree of n leaves: the power of two
// nearest their room over hotPer.
func hotSlots(n int) int {
	return 1 << bits.Len(uint(n*leafMax*2/(3*hotPer)))
}

// hotAt returns key's slot: the top log2(len(t.hot)) bits of key*hotMul,
// which every key bit moves (one slot shifts by 64, leaving 0).
func (t *BTree) hotAt(key uint64) *hotPair {
	return &t.hot[key*hotMul>>bits.LeadingZeros64(uint64(len(t.hot)-1))]
}

// probe reports whether Get probes the table, and runs the switch: it
// closes a full window, counts an off period down, clearing the stale
// table at its end, makes the table at the first Get and counts the
// probe.
func (t *BTree) probe() bool {
	if t.probes == hotWindow {
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
	if t.hot == nil {
		t.hot = make([]hotPair, hotSlots(t.leaves.n))
	}
	t.probes++
	return true
}

// checkHot validates the table for CheckInvariants: absent or sized by
// the leaves, a switch whose window counts are in range and empty while
// off, and, while on, every non-empty slot at its key's hash position,
// holding the tree's current value.
func (t *BTree) checkHot() error {
	if t.hot != nil && len(t.hot) != hotSlots(t.leaves.n) {
		return errf("btree: hot table of %d slots; %d leaves call for %d", len(t.hot), t.leaves.n, hotSlots(t.leaves.n))
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
