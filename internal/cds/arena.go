// Package cds provides the native (non-simulated) ordered map the hybrid
// runtime in internal/core uses as its partition store, usable
// standalone: a B+ tree of pointer-free 256-byte nodes in chunked arenas.
// It is sequential — one goroutine (in the runtime, the caller holding
// the partition's lock) owns each instance.
package cds

import "fmt"

const (
	// chunkBits sizes an arena chunk at 2^10 nodes (256 KiB).
	chunkBits  = 10
	chunkNodes = 1 << chunkBits
	// nilNode is the "no node to the right" index. It is the first node
	// of its arena, which is the leftmost of its level for the structure's
	// life (a split only ever adds a right sibling), so no chain link names
	// it.
	nilNode = 0
	// leafMax is a leaf's pair capacity.
	leafMax = 15
)

// arena is an append-only pool of nodes in fixed-size pointer-free
// chunks, named by a 32-bit index: growth never moves a node and the
// garbage collector never scans one.
type arena[T any] struct {
	chunks []*[chunkNodes]T
	n      int // nodes handed out
}

// at returns node x.
func (a *arena[T]) at(x uint32) *T {
	return &a.chunks[x>>chunkBits][x&(chunkNodes-1)]
}

// alloc hands out a zeroed node.
func (a *arena[T]) alloc() uint32 {
	if a.n == len(a.chunks)<<chunkBits {
		if len(a.chunks) == 1<<(32-chunkBits) {
			panic("cds: arena exhausted")
		}
		a.chunks = append(a.chunks, new([chunkNodes]T))
	}
	a.n++
	return uint32(a.n - 1)
}

// leaf is the level-0 node: n sorted pairs and the leaf to its right,
// padded to 256 bytes, the count leading so a search reads it from the
// line it scans first.
type leaf struct {
	n    uint32
	next uint32
	keys [leafMax]uint64
	vals [leafMax]uint64
	_    uint64
}

// slot returns the first position whose key is >= key (n when there is
// none) and whether that position holds key itself.
func (l *leaf) slot(key uint64) (int, bool) {
	for i, k := range l.keys[:l.n] {
		if k >= key {
			return i, k == key
		}
	}
	return int(l.n), false
}

// insertAt opens position pos of a leaf with room and stores the pair.
func (l *leaf) insertAt(pos int, key, value uint64) {
	copy(l.keys[pos+1:l.n+1], l.keys[pos:l.n])
	copy(l.vals[pos+1:l.n+1], l.vals[pos:l.n])
	l.keys[pos], l.vals[pos] = key, value
	l.n++
}

// removeAt closes position pos. Leaves may underflow, even to empty, and
// are never merged: the relaxed delete.
func (l *leaf) removeAt(pos int) {
	copy(l.keys[pos:l.n-1], l.keys[pos+1:l.n])
	copy(l.vals[pos:l.n-1], l.vals[pos+1:l.n])
	l.n--
}

// splitLeaf inserts (key, value) at position pos of the full leaf l by
// moving l's upper half into a fresh leaf linked to its right, and
// returns that leaf's index. With tail set key lies past the last key of
// the rightmost leaf: the full leaf stays full (an append split) and the
// new one starts with key alone, so an ascending load fills every leaf.
func splitLeaf(leaves *arena[leaf], l *leaf, pos int, key, value uint64) (rx uint32, tail bool) {
	tail = pos == leafMax && l.next == nilNode
	keep := leafMax
	if !tail {
		keep = (leafMax + 1) / 2
	}
	rx = leaves.alloc()
	r := leaves.at(rx)
	into, at := r, pos-keep
	if pos < keep {
		keep--
		into, at = l, pos
	}
	r.n = uint32(copy(r.keys[:], l.keys[keep:]))
	copy(r.vals[:], l.vals[keep:])
	l.n = uint32(keep)
	into.insertAt(at, key, value)
	r.next, l.next = l.next, rx
	return rx, tail
}

// ascend calls fn for the pairs of leaf l from the first key >= from on,
// then for every pair of the chain to its right, until fn returns false.
// l must be the leaf covering from, so only l holds keys below it.
func ascend(leaves *arena[leaf], l *leaf, from uint64, fn func(key, value uint64) bool) {
	i, _ := l.slot(from)
	for {
		for ; i < int(l.n); i++ {
			if !fn(l.keys[i], l.vals[i]) {
				return
			}
		}
		if l.next == nilNode {
			return
		}
		l, i = leaves.at(l.next), 0
	}
}

func errf(format string, args ...any) error {
	return fmt.Errorf("cds: "+format, args...)
}
