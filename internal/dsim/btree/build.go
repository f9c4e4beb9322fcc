package btree

import "hybrids/internal/sim/memsys"

// buildHooks let the hybrid tree steer node placement during bulk build.
type buildHooks struct {
	// allocFor picks the allocator for node idx (0-based, in key order)
	// of the given level.
	allocFor func(level, idx int) *memsys.Allocator
	// childTag returns the partition tag to OR into the pointer from a
	// level-(childLevel+1) node to child idx of childLevel (0 when the
	// child is host-side).
	childTag func(childLevel, childIdx int) uint32
}

// buildFill is the bulk-load entry count per node. The paper inserts in
// sorted order, yielding ~half-full nodes; 8 of LeafMax's 14 mirrors that.
const buildFill = 8

// levelCounts returns the node count of every level for n records at
// buildFill entries per node, bottom-up, ending with a single root. A tree
// always has at least one (possibly empty) leaf.
func levelCounts(n int) []int {
	counts := []int{(n + buildFill - 1) / buildFill}
	if counts[0] == 0 {
		counts[0] = 1
	}
	for counts[len(counts)-1] > 1 {
		c := counts[len(counts)-1]
		counts = append(counts, (c+buildFill-1)/buildFill)
	}
	return counts
}

// bulkBuild constructs a B+ tree from uniq — sorted, duplicate-free pairs
// (kv.SortedUnique) — with buildFill entries per node, writing nodes
// untimed through hooks. It returns the root node and tree height (number
// of levels).
func bulkBuild(ram *memsys.RAM, uniq []KV, hooks buildHooks) (root uint32, height int) {
	// Leaves.
	type nodeInfo struct {
		addr    uint32
		lastKey uint32
	}
	counts := levelCounts(len(uniq))
	level := make([]nodeInfo, counts[0])
	for i := range level {
		lo := i * buildFill
		hi := min(lo+buildFill, len(uniq))
		n := buildNode(ram, hooks.allocFor(0, i), 0, hi-lo)
		last := uint32(0)
		for j := lo; j < hi; j++ {
			ram.Store32(keyAddr(n, j-lo), uniq[j].Key)
			ram.Store32(ptrAddr(n, j-lo), uniq[j].Value)
			last = uniq[j].Key
		}
		level[i] = nodeInfo{addr: n, lastKey: last}
	}

	// Inner levels.
	for lv := 1; lv < len(counts); lv++ {
		next := make([]nodeInfo, counts[lv])
		for i := range next {
			lo := i * buildFill
			hi := min(lo+buildFill, len(level))
			n := buildNode(ram, hooks.allocFor(lv, i), lv, hi-lo)
			for j := lo; j < hi; j++ {
				ptr := level[j].addr | hooks.childTag(lv-1, j)
				ram.Store32(ptrAddr(n, j-lo), ptr)
				if j > lo {
					// Divider between child j-1 and child j:
					// greatest key in child j-1's subtree.
					ram.Store32(keyAddr(n, j-lo-1), level[j-1].lastKey)
				}
			}
			next[i] = nodeInfo{addr: n, lastKey: level[hi-1].lastKey}
		}
		level = next
	}
	return level[0].addr, len(counts)
}

// hostOnlyHooks places every node in host memory with no partition tags.
func hostOnlyHooks(alloc *memsys.Allocator) buildHooks {
	return buildHooks{
		allocFor: func(level, idx int) *memsys.Allocator { return alloc },
		childTag: func(childLevel, childIdx int) uint32 { return 0 },
	}
}

// hybridHooks places levels below nmpLevels in partition allocators and
// tags pointers that cross the host-NMP boundary. Partition assignment is
// by contiguous chunks of level-(nmpLevels-1) subtree roots (§3.4:
// boundaries "chosen based on the root's grandchildren", generalized to
// the NMP subtree roots).
func hybridHooks(hostAlloc *memsys.Allocator, partAllocs []*memsys.Allocator,
	nmpLevels, nRecords int) buildHooks {
	counts := levelCounts(nRecords)
	if len(counts) <= nmpLevels {
		panic("btree: tree not taller than NMP portion; lower NMPLevels or add records")
	}
	nSubtrees := counts[nmpLevels-1]
	parts := len(partAllocs)
	// partOf maps a level-(nmpLevels-1) subtree root index to a partition.
	partOf := func(subtree int) int {
		p := subtree * parts / nSubtrees
		if p >= parts {
			p = parts - 1
		}
		return p
	}
	// subtreeOf lifts a node index at any NMP level to its subtree root
	// index: each level groups children in consecutive chunks of buildFill.
	subtreeOf := func(level, idx int) int {
		for l := level; l < nmpLevels-1; l++ {
			idx /= buildFill
		}
		return idx
	}
	return buildHooks{
		allocFor: func(level, idx int) *memsys.Allocator {
			if level >= nmpLevels {
				return hostAlloc
			}
			return partAllocs[partOf(subtreeOf(level, idx))]
		},
		childTag: func(childLevel, childIdx int) uint32 {
			if childLevel != nmpLevels-1 {
				return 0
			}
			return uint32(partOf(childIdx))
		},
	}
}
