package cds

import "math/bits"

// The hot-pair table (DESIGN §5.8): a direct-mapped array of recently
// read pairs that Get probes before it descends. A non-empty slot's pair
// is in the tree with that value: Get installs what a descent found,
// Update writes through a matching slot and Delete clears one.
const (
	// hotPer is the pairs of leaf room per slot, chosen by a sweep of
	// embedded-read over 64, 16 and 4.
	hotPer = 16
	// hotMul is the Fibonacci-hash multiplier, 2^64 over the golden ratio.
	hotMul = 0x9E3779B97F4A7C15
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

// checkHot validates the table for CheckInvariants: absent or sized by
// the leaves, and every non-empty slot at its key's hash position,
// holding the tree's current value.
func (t *BTree) checkHot() error {
	if t.hot != nil && len(t.hot) != hotSlots(t.leaves.n) {
		return errf("btree: hot table of %d slots; %d leaves call for %d", len(t.hot), t.leaves.n, hotSlots(t.leaves.n))
	}
	for i, h := range t.hot {
		l := t.find(h.key)
		if j, ok := l.slot(h.key); h.key != 0 && (t.hotAt(h.key) != &t.hot[i] || !ok || l.vals[j] != h.val) {
			return errf("btree: hot slot %d holds (%d, %d), not the tree's pair at its hash position", i, h.key, h.val)
		}
	}
	return nil
}
