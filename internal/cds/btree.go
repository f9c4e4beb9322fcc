package cds

import "hybrids/internal/metrics"

// B+ tree geometry: a leaf holds up to 15 pairs (the shared leaf of
// arena.go), an inner node up to 21 children, and both are exactly 256
// bytes (DESIGN.md §5.8 has the byte offsets).
const (
	btInnerMax = 21
	// btMaxHeight bounds the path Put records. Only the rightmost node of
	// a level can hold fewer than (btInnerMax+1)/2 children, so a tree of
	// height 12 would need 11^10 leaves, more than 32 bits can name.
	btMaxHeight = 12
)

// btInner is a node above the leaves: kids[i] covers keys <= keys[i], the
// last of its n children everything above the last divider.
type btInner struct {
	n    uint32
	kids [btInnerMax]uint32
	keys [btInnerMax - 1]uint64
	_    uint64
}

// BTree is a sequential in-memory B+ tree built for one owner and for the
// cache. Leaves (chained left to right) and inner nodes are separate
// 256-byte types, so a leaf carries no child slots and an inner node no
// values; each kind has its own arena, and which kind an index names is
// decided by the descent's level counter, not by a flag. An insert past
// the last key of the rightmost leaf is appended there without a descent
// when the leaf has room, and starts a fresh right sibling instead of
// halving it when it is full, so an ascending load leaves every node full.
// Deletion is relaxed: leaves may underflow, even to empty, and nodes are
// never merged — what the design gives up is that chunks are never
// returned to the runtime while the tree lives. It is the partition-owned
// store of the native hybrid runtime, where one caller at a time holds
// each partition, and is usable standalone as an ordered map. Methods are
// not safe for concurrent use.
type BTree struct {
	// Read by every operation, written only by a split.
	leaves arena[leaf]
	inners arena[btInner]
	root   uint32 // a leaf index at height 1, else an inner index
	last   uint32 // the rightmost leaf
	height int
	_      [48]byte

	// The line every write stores to: the pair count, and the
	// structural-event counters a split adds to. When owners alternate
	// cores, only this line moves with the writes, and each tree's
	// counters sit in its own allocation, off every other tree's lines.
	length                               int
	leafSplits, innerSplits, rootGrowths metrics.Counter
	_                                    [32]byte
}

// Instrument registers the tree's structural-event counters — leaf
// splits, inner-node splits and root growths, counted from the tree's
// making — in reg under prefix (as "<prefix>/leaf_splits" etc.). Like the
// tree itself, the counters are single-owner: only the goroutine mutating
// the tree adds to them, and reading the registry is consistent at
// quiescence.
func (t *BTree) Instrument(reg *metrics.Registry, prefix string) {
	reg.Register(prefix+"/leaf_splits", &t.leafSplits)
	reg.Register(prefix+"/inner_splits", &t.innerSplits)
	reg.Register(prefix+"/root_growths", &t.rootGrowths)
}

// NewBTree returns an empty tree.
func NewBTree() *BTree {
	t := &BTree{height: 1}
	t.root = t.leaves.alloc() // index nilNode: the head of the leaf chain
	return t
}

// Len returns the number of stored pairs.
func (t *BTree) Len() int { return t.length }

// childIdx returns the position of the child covering key.
func (n *btInner) childIdx(key uint64) int {
	for i, d := range n.keys[:n.n-1] {
		if key <= d {
			return i
		}
	}
	return int(n.n - 1)
}

// find descends to the leaf covering key without recording the path.
func (t *BTree) find(key uint64) *leaf {
	x := t.root
	for level := t.height - 1; level > 0; level-- {
		n := t.inners.at(x)
		x = n.kids[n.childIdx(key)]
	}
	return t.leaves.at(x)
}

// Get returns the value stored under key.
func (t *BTree) Get(key uint64) (uint64, bool) {
	l := t.find(key)
	if i, ok := l.slot(key); ok {
		return l.vals[i], true
	}
	return 0, false
}

// Update overwrites the value of an existing key, returning false if
// absent.
func (t *BTree) Update(key, value uint64) bool {
	l := t.find(key)
	if i, ok := l.slot(key); ok {
		l.vals[i] = value
		return true
	}
	return false
}

// btPath is a recorded descent: per level above the leaves, the inner
// node visited and the child position taken in it.
type btPath [btMaxHeight]struct{ node, idx uint32 }

// Put inserts key -> value, returning false (without modifying the tree)
// when the key already exists. A key above every stored key is appended
// to the rightmost leaf without a descent when that leaf is neither empty
// nor full: no other leaf can hold it, and put's descent would insert it
// at the end of this same leaf, so the tree is the one put would leave.
func (t *BTree) Put(key, value uint64) bool {
	l := t.leaves.at(t.last)
	if l.n == 0 || l.n == leafMax || key <= l.keys[l.n-1] {
		return t.put(key, value)
	}
	l.insertAt(int(l.n), key, value)
	t.length++
	return true
}

// put is Put by a descent from the root.
func (t *BTree) put(key, value uint64) bool {
	var path btPath
	x := t.root
	for level := t.height - 1; level > 0; level-- {
		n := t.inners.at(x)
		i := n.childIdx(key)
		path[level].node, path[level].idx = x, uint32(i)
		x = n.kids[i]
	}
	l := t.leaves.at(x)
	pos, found := l.slot(key)
	if found {
		return false
	}
	t.length++
	if l.n < leafMax {
		l.insertAt(pos, key, value)
		return true
	}
	// With tail set every node on the path is the last child of its
	// parent.
	rx, tail := splitLeaf(&t.leaves, l, pos, key, value)
	if t.leaves.at(rx).next == nilNode {
		t.last = rx
	}
	t.leafSplits.Inc()
	t.insertUp(&path, l.keys[l.n-1], rx, tail)
	return true
}

// insertUp inserts (divider, right) into the parents recorded on path,
// splitting upward and growing the root as needed. With tail set a full
// parent is split by append too: it keeps all its children and its fresh
// right sibling starts with the new one.
func (t *BTree) insertUp(path *btPath, divider uint64, right uint32, tail bool) {
	for level := 1; level < t.height; level++ {
		n, idx := t.inners.at(path[level].node), int(path[level].idx)
		if n.n < btInnerMax {
			copy(n.keys[idx+1:n.n], n.keys[idx:n.n-1])
			copy(n.kids[idx+2:n.n+1], n.kids[idx+1:n.n])
			n.keys[idx], n.kids[idx+1] = divider, right
			n.n++
			return
		}
		keep := (btInnerMax + 2) / 2
		if tail {
			keep = btInnerMax
		}
		rx := t.inners.alloc()
		divider = n.splitInsert(t.inners.at(rx), keep, idx, divider, right)
		right = rx
		t.innerSplits.Inc()
	}
	rx := t.inners.alloc()
	r := t.inners.at(rx)
	r.kids[0], r.kids[1], r.keys[0], r.n = t.root, right, divider, 2
	t.root = rx
	t.height++
	t.rootGrowths.Inc()
}

// splitInsert inserts (d, child) after position idx of the full node n,
// leaving the first keep children in n and the rest in the empty node r,
// and returns the divider between the two.
func (n *btInner) splitInsert(r *btInner, keep, idx int, d uint64, child uint32) uint64 {
	var keys [btInnerMax]uint64
	var kids [btInnerMax + 1]uint32
	copy(keys[:idx], n.keys[:idx])
	keys[idx] = d
	copy(keys[idx+1:], n.keys[idx:])
	copy(kids[:idx+1], n.kids[:idx+1])
	kids[idx+1] = child
	copy(kids[idx+2:], n.kids[idx+1:])
	n.n = uint32(copy(n.kids[:], kids[:keep]))
	copy(n.keys[:], keys[:keep-1])
	r.n = uint32(copy(r.kids[:], kids[keep:]))
	copy(r.keys[:], keys[keep:])
	return keys[keep-1]
}

// Delete removes key, returning false if absent. Leaves may underflow
// (relaxed invariant) and are never merged.
func (t *BTree) Delete(key uint64) bool {
	l := t.find(key)
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
// not modify the tree.
func (t *BTree) Ascend(from uint64, fn func(key, value uint64) bool) {
	ascend(&t.leaves, t.find(from), from, fn)
}

// CheckInvariants validates the structure (for tests): keys strictly
// increase within and across leaves and lie inside the bounds their
// parents' dividers give them; dividers strictly increase inside those
// bounds; no node exceeds its capacity, every inner node has a child and
// an inner root two; every child index names an allocated node and every
// allocated node is reached; the leaf chain starts at leaf 0, visits
// exactly the leaves of the in-order walk and ends in nilNode at the leaf
// the tree keeps as its last; and the leaves hold Len pairs.
func (t *BTree) CheckInvariants() error {
	if t.height < 1 || t.height > btMaxHeight || t.height > 1 && t.inners.at(t.root).n < 2 {
		return errf("btree: height %d or a root with one child", t.height)
	}
	var order []uint32 // the leaves in key order
	pairs, inners := 0, 0
	var check func(x uint32, level int, lo, hi uint64) error
	check = func(x uint32, level int, lo, hi uint64) error { // keys in (lo, hi]
		if level == 0 {
			if int(x) >= t.leaves.n {
				return errf("btree: leaf index %d of %d allocated", x, t.leaves.n)
			}
			l := t.leaves.at(x)
			if l.n > leafMax {
				return errf("btree: leaf %d holds %d pairs", x, l.n)
			}
			for _, k := range l.keys[:l.n] {
				if k <= lo || k > hi {
					return errf("btree: leaf %d key %d outside (%d,%d]", x, k, lo, hi)
				}
				lo = k
			}
			order = append(order, x)
			pairs += int(l.n)
			return nil
		}
		if int(x) >= t.inners.n {
			return errf("btree: inner index %d of %d allocated", x, t.inners.n)
		}
		inners++
		n := t.inners.at(x)
		if n.n < 1 || n.n > btInnerMax {
			return errf("btree: inner node %d with %d children", x, n.n)
		}
		for i, kid := range n.kids[:n.n] {
			kidHi := hi
			if i < int(n.n)-1 {
				kidHi = n.keys[i]
				if kidHi <= lo || kidHi >= hi {
					return errf("btree: inner node %d divider %d outside (%d,%d)", x, kidHi, lo, hi)
				}
			}
			if err := check(kid, level-1, lo, kidHi); err != nil {
				return err
			}
			lo = kidHi
		}
		return nil
	}
	if err := check(t.root, t.height-1, 0, ^uint64(0)); err != nil {
		return err
	}
	if pairs != t.length || len(order) != t.leaves.n || inners != t.inners.n {
		return errf("btree: walk found %d pairs in %d leaves under %d inner nodes; Len %d, allocated %d and %d",
			pairs, len(order), inners, t.length, t.leaves.n, t.inners.n)
	}
	x := uint32(nilNode)
	for i, want := range order {
		if x != want {
			return errf("btree: leaf chain position %d is leaf %d, in-order walk has %d", i, x, want)
		}
		x = t.leaves.at(x).next
	}
	if x != nilNode || t.last != order[len(order)-1] {
		return errf("btree: leaf chain goes on to %d after leaf %d; the tree's last leaf is %d", x, order[len(order)-1], t.last)
	}
	return nil
}
