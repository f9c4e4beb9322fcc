package cds

import "hybrids/internal/metrics"

// B-skiplist geometry: leaves are the shared 15-pair leaf of arena.go,
// inner nodes hold up to 20 routing entries, and both are exactly 256
// bytes (DESIGN.md §5.8 has the byte offsets).
const (
	bsInnerMax = 20
	// bsMaxLevels caps the height. Only a level's rightmost node can hold
	// fewer than bsInnerMax/2 entries, and a level exists only once the
	// one below has split at the top, so 12 levels would need 10^10
	// leaves, more than 32 bits can name: the leaf arena runs out first.
	bsMaxLevels = btMaxHeight
)

// bsInner is a node above the leaves: n routing entries (keys[i],
// down[i]), where keys[i] is the lower bound of node down[i] one level
// down, so keys[0] == lo; and the node to its right on its level.
type bsInner struct {
	n    uint32
	next uint32
	lo   uint64
	keys [bsInnerMax]uint64
	down [bsInnerMax]uint32
}

// BSkipList is a sequential cache-conscious B-skiplist: a skiplist whose
// every level is a linked list of fat multi-key nodes (the
// locality-optimized layout of the B-skiplist paper), with deterministic
// promote-on-split instead of coin flips — splitting a level-l node always
// inserts a routing entry for the new node at level l+1, growing a new top
// level when the top node itself splits. Every node has an immutable
// lower bound lo: the keys stored in or below it are >= lo and below its
// right neighbour's lo. So the top level is one node, every lower level
// is exactly the nodes its upper level routes to, and a search is a
// descent that never walks sideways. Nodes live in the same pointer-free
// arenas as the B+ tree's, named by 32-bit indices; the level-0 chain
// starts at leaf 0 and every level's at its own head, whose lo is 0. An
// insert past the last key of the rightmost leaf starts a fresh right
// sibling (the B+ tree's append split), so an ascending load leaves every
// node full. Deletion is relaxed: leaves may underflow, even to empty,
// and nodes are never merged or unlinked, so lower bounds stay valid
// without restructuring. It is the partition-owned store behind both the
// skiplist and the B-skiplist engines of the native hybrid runtime.
// Methods are not safe for concurrent use.
type BSkipList struct {
	leaves arena[leaf]
	inners arena[bsInner]
	root   uint32 // leaf 0 at height 1, else the top level's inner node
	height int
	length int

	// Structural-event counters, nil until Instrument.
	cLeafSplits   *metrics.Counter
	cInnerSplits  *metrics.Counter
	cLevelGrowths *metrics.Counter
}

// NewBSkipList returns an empty list.
func NewBSkipList() *BSkipList {
	t := &BSkipList{height: 1}
	t.root = t.leaves.alloc() // index nilNode: the head of the leaf chain
	return t
}

// Instrument registers the list's structural-event counters — leaf splits,
// inner-node splits and level growths — in reg under prefix (as
// "<prefix>/leaf_splits" etc.). Like the list itself, the instruments are
// single-owner: only the goroutine mutating the list may trigger them.
func (t *BSkipList) Instrument(reg *metrics.Registry, prefix string) {
	t.cLeafSplits = reg.Counter(prefix + "/leaf_splits")
	t.cInnerSplits = reg.Counter(prefix + "/inner_splits")
	t.cLevelGrowths = reg.Counter(prefix + "/level_growths")
}

// Len returns the number of stored pairs.
func (t *BSkipList) Len() int { return t.length }

// Height returns the number of levels.
func (t *BSkipList) Height() int { return t.height }

// entryIdx returns the greatest i with keys[i] <= key; a descent only
// reaches a node whose lo (keys[0]) is <= key.
func (n *bsInner) entryIdx(key uint64) int {
	for i, k := range n.keys[1:n.n] {
		if k > key {
			return i
		}
	}
	return int(n.n - 1)
}

// insertAt opens position pos of an inner node with room and stores the
// routing entry.
func (n *bsInner) insertAt(pos int, key uint64, x uint32) {
	copy(n.keys[pos+1:n.n+1], n.keys[pos:n.n])
	copy(n.down[pos+1:n.n+1], n.down[pos:n.n])
	n.keys[pos], n.down[pos] = key, x
	n.n++
}

// find descends to the leaf covering key, recording each inner node and
// the entry taken in it when path is non-nil. It allocates nothing.
func (t *BSkipList) find(key uint64, path *btPath) *leaf {
	x := t.root
	for level := t.height - 1; level > 0; level-- {
		n := t.inners.at(x)
		i := n.entryIdx(key)
		if path != nil {
			path[level].node, path[level].idx = x, uint32(i)
		}
		x = n.down[i]
	}
	return t.leaves.at(x)
}

// Get returns the value stored under key.
func (t *BSkipList) Get(key uint64) (uint64, bool) {
	l := t.find(key, nil)
	if i, ok := l.slot(key); ok {
		return l.vals[i], true
	}
	return 0, false
}

// Update overwrites the value of an existing key, returning false if
// absent.
func (t *BSkipList) Update(key, value uint64) bool {
	l := t.find(key, nil)
	if i, ok := l.slot(key); ok {
		l.vals[i] = value
		return true
	}
	return false
}

// Put inserts key -> value, returning false (without modifying the list)
// when the key already exists.
func (t *BSkipList) Put(key, value uint64) bool {
	var path btPath
	l := t.find(key, &path)
	pos, found := l.slot(key)
	if found {
		return false
	}
	t.length++
	if l.n < leafMax {
		l.insertAt(pos, key, value)
		return true
	}
	rx, tail := splitLeaf(&t.leaves, l, pos, key, value)
	r := t.leaves.at(rx)
	r.lo = r.keys[0]
	inc(t.cLeafSplits)
	t.promote(&path, r.lo, rx, tail)
	return true
}

// promote inserts the routing entry (lo, right) for a new level-0 node
// into the level-1 node recorded on path, splitting upward while nodes
// are full, and grows a new top level when the top node itself splits.
// With tail set every node on the path is its level's rightmost, and a
// full one is split by append: it keeps all its entries.
func (t *BSkipList) promote(path *btPath, lo uint64, right uint32, tail bool) {
	for level := 1; level < t.height; level++ {
		x, pos := path[level].node, int(path[level].idx)+1
		n := t.inners.at(x)
		if n.n < bsInnerMax {
			n.insertAt(pos, lo, right)
			return
		}
		keep := bsInnerMax
		if !tail {
			keep = bsInnerMax / 2
		}
		rx := t.inners.alloc()
		r := t.inners.at(rx)
		into, at := r, pos-keep
		if pos < keep {
			keep--
			into, at = n, pos
		}
		r.n = uint32(copy(r.keys[:], n.keys[keep:]))
		copy(r.down[:], n.down[keep:])
		n.n = uint32(keep)
		into.insertAt(at, lo, right)
		r.lo, r.next, n.next = r.keys[0], n.next, rx
		lo, right = r.lo, rx
		inc(t.cInnerSplits)
	}
	rx := t.inners.alloc()
	r := t.inners.at(rx)
	r.n, r.down[0], r.keys[1], r.down[1] = 2, t.root, lo, right
	t.root = rx
	t.height++
	inc(t.cLevelGrowths)
}

// Delete removes key, returning false if absent. Leaves may underflow
// (relaxed invariant) and are never merged or unlinked, so routing
// entries and lower bounds stay valid without restructuring.
func (t *BSkipList) Delete(key uint64) bool {
	l := t.find(key, nil)
	i, ok := l.slot(key)
	if !ok {
		return false
	}
	l.removeAt(i)
	t.length--
	return true
}

// Ascend calls fn for each pair with key >= from in ascending order until
// fn returns false: one descent, then a walk of the leaf chain. fn must
// not modify the list.
func (t *BSkipList) Ascend(from uint64, fn func(key, value uint64) bool) {
	ascend(&t.leaves, t.find(from, nil), from, fn)
}

// CheckInvariants validates the structure (for tests), level by level
// from the top: the top level is the root alone; each level's chain, from
// its head, is exactly the nodes the level above routes to, in entry
// order, each with the lo its entry gives it; only a head is node 0 of
// its arena, and the level-0 head is leaf 0; keys strictly increase
// inside each node and lie in [lo, next lo); an inner node holds 1 to
// bsInnerMax entries, the first at its lo; every allocated node is
// reached; and the leaves hold Len pairs.
func (t *BSkipList) CheckInvariants() error {
	if t.height < 1 || t.height > bsMaxLevels || t.height == 1 && t.root != nilNode {
		return errf("bskiplist: height %d with root %d", t.height, t.root)
	}
	type entry struct {
		lo uint64
		x  uint32
	}
	level := []entry{{0, t.root}}
	pairs, inners := 0, 0
	// node checks one node against its entry (level[i]) and chain link.
	node := func(h, i int, lo uint64, next uint32, keys []uint64) error {
		w := level[i]
		if lo != w.lo || i > 0 && w.x == nilNode {
			return errf("bskiplist: level %d node %d has lo %d, routed as %d", h, w.x, lo, w.lo)
		}
		hi, last := ^uint64(0), i == len(level)-1
		if !last {
			hi = level[i+1].lo
		}
		if last && next != nilNode || !last && next != level[i+1].x {
			return errf("bskiplist: level %d node %d links to %d, not the next routed node", h, w.x, next)
		}
		for j, k := range keys {
			if k < lo || !last && k >= hi || j > 0 && k <= keys[j-1] {
				return errf("bskiplist: level %d node %d key %d out of order or outside [%d,%d)", h, w.x, k, lo, hi)
			}
		}
		return nil
	}
	for h := t.height - 1; h > 0; h-- {
		var below []entry
		for i, w := range level {
			if int(w.x) >= t.inners.n {
				return errf("bskiplist: inner index %d of %d allocated", w.x, t.inners.n)
			}
			n := t.inners.at(w.x)
			if n.n < 1 || n.n > bsInnerMax || n.keys[0] != n.lo {
				return errf("bskiplist: level %d node %d with %d entries, first %d, lo %d", h, w.x, n.n, n.keys[0], n.lo)
			}
			if err := node(h, i, n.lo, n.next, n.keys[:n.n]); err != nil {
				return err
			}
			for j, k := range n.keys[:n.n] {
				below = append(below, entry{k, n.down[j]})
			}
			inners++
		}
		level = below
	}
	if level[0].x != nilNode {
		return errf("bskiplist: leaf chain starts at leaf %d", level[0].x)
	}
	for i, w := range level {
		if int(w.x) >= t.leaves.n {
			return errf("bskiplist: leaf index %d of %d allocated", w.x, t.leaves.n)
		}
		l := t.leaves.at(w.x)
		if l.n > leafMax {
			return errf("bskiplist: leaf %d holds %d pairs", w.x, l.n)
		}
		if err := node(0, i, l.lo, l.next, l.keys[:l.n]); err != nil {
			return err
		}
		pairs += int(l.n)
	}
	if pairs != t.length || len(level) != t.leaves.n || inners != t.inners.n {
		return errf("bskiplist: walk found %d pairs in %d leaves under %d inner nodes; Len %d, allocated %d and %d",
			pairs, len(level), inners, t.length, t.leaves.n, t.inners.n)
	}
	return nil
}
