// Package skiplist implements the skiplists evaluated in the HybriDS
// paper, all running on the simulated NMP machine:
//
//   - LockFree: the state-of-the-art lock-free skiplist [Fraser 04;
//     Herlihy-Lev-Shavit 07] executed entirely by host cores (the paper's
//     non-NMP reference).
//   - Hybrid: the paper's contribution (§3.3): lock-free host-managed
//     upper levels acting as traversal shortcuts over per-partition
//     NMP-managed lower levels, with blocking and non-blocking NMP calls.
//     Its far end, every level NMP-side (NMPLevels == Levels), is the
//     NMP-based flat-combining skiplist of prior work [16, 44]: the whole
//     structure lives in NMP partitions and host threads offload entire
//     operations.
package skiplist

import (
	"hybrids/internal/dsim/kv"
	"hybrids/internal/prng"
	"hybrids/internal/sim/machine"
	"hybrids/internal/sim/memsys"
)

// Simulated node layout (byte offsets). A node of height h occupies
// nodeHeader + 4h bytes. Host-side next pointers carry a mark bit in bit 0
// (node addresses are 8-byte aligned); NMP-side nodes use the flags word
// for logical deletion instead, since the partition is single-threaded.
const (
	offKey    = 0  // uint32 key
	offValue  = 4  // uint32 value
	offHeight = 8  // uint32 height (levels linked in this structure)
	offAux    = 12 // uint32 cross-portion pointer (nmpPtr / hostPtr)
	offFlags  = 16 // uint32 flags (bit 0: logically deleted, NMP side)
	offNext   = 20 // uint32 next[level]...
)

const nodeHeader = offNext

// nodeAlign keeps nodes from straddling cache blocks needlessly; 64 B is
// the paper's estimated skiplist node footprint, so a node of height <= 11
// occupies exactly one half-block.
const nodeAlign = 64

const flagDeleted = 1

// marked reports the mark bit of a raw host-side pointer word.
func marked(p uint32) bool { return p&1 != 0 }

// ref strips the mark bit, yielding the node address.
func ref(p uint32) uint32 { return p &^ 1 }

func nodeBytes(h int) memsys.Addr { return memsys.Addr(nodeHeader + 4*h) }

func keyAddr(n uint32) memsys.Addr         { return memsys.Addr(n) + offKey }
func valueAddr(n uint32) memsys.Addr       { return memsys.Addr(n) + offValue }
func heightAddr(n uint32) memsys.Addr      { return memsys.Addr(n) + offHeight }
func auxAddr(n uint32) memsys.Addr         { return memsys.Addr(n) + offAux }
func flagsAddr(n uint32) memsys.Addr       { return memsys.Addr(n) + offFlags }
func nextAddr(n uint32, l int) memsys.Addr { return memsys.Addr(n) + offNext + memsys.Addr(4*l) }

// newNode allocates and initializes a node with timed stores (used on the
// operation path; the allocation bookkeeping itself is free, matching a
// per-thread free list).
func newNode(c *machine.Ctx, al *memsys.Allocator, key, value uint32, h int, aux uint32) uint32 {
	n := uint32(al.Alloc(nodeBytes(h), nodeAlign))
	c.Write32(keyAddr(n), key)
	c.Write32(valueAddr(n), value)
	c.Write32(heightAddr(n), uint32(h))
	c.Write32(auxAddr(n), aux)
	c.Write32(flagsAddr(n), 0)
	return n
}

// buildNode allocates and initializes a node with untimed stores (load
// phase: construction is not part of any measurement).
func buildNode(ram *memsys.RAM, al *memsys.Allocator, key, value uint32, h int, aux uint32) uint32 {
	n := uint32(al.Alloc(nodeBytes(h), nodeAlign))
	initNode(ram, n, key, value, h, aux)
	return n
}

// shuffledNodeAlloc allocates one node per height in a pseudo-random order
// and returns the addresses in input order. Bulk loads use it so that
// key-adjacent nodes do not end up block-adjacent in memory — live systems
// allocate nodes over time, and allocation-order locality would otherwise
// gift the baselines artificial spatial cache hits.
func shuffledNodeAlloc(al *memsys.Allocator, heights []int, seed uint64) []uint32 {
	perm := make([]int, len(heights))
	for i := range perm {
		perm[i] = i
	}
	rng := prng.New(seed)
	for i := len(perm) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	addrs := make([]uint32, len(heights))
	for _, idx := range perm {
		addrs[idx] = uint32(al.Alloc(nodeBytes(heights[idx]), nodeAlign))
	}
	return addrs
}

// initNode fills a pre-allocated node untimed.
func initNode(ram *memsys.RAM, n uint32, key, value uint32, h int, aux uint32) {
	ram.Store32(keyAddr(n), key)
	ram.Store32(valueAddr(n), value)
	ram.Store32(heightAddr(n), uint32(h))
	ram.Store32(auxAddr(n), aux)
	ram.Store32(flagsAddr(n), 0)
	for l := 0; l < h; l++ {
		ram.Store32(nextAddr(n, l), 0)
	}
}

// linkSorted bulk-links sorted unique pairs with the given heights into
// the list at head (untimed load phase): each node is spliced after the
// most recent node of each of its levels. The nodes come from
// shuffledNodeAlloc(al, heights, seed); it returns them in pair order.
func linkSorted(ram *memsys.RAM, al *memsys.Allocator, head uint32, levels int, pairs []KV, heights []int, seed uint64) []uint32 {
	nodes := shuffledNodeAlloc(al, heights, seed)
	tails := make([]uint32, levels)
	for l := range tails {
		tails[l] = head
	}
	for i, p := range pairs {
		n, h := nodes[i], heights[i]
		initNode(ram, n, p.Key, p.Value, h, 0)
		for l := 0; l < h; l++ {
			ram.Store32(nextAddr(n, l), ram.Load32(nextAddr(tails[l], l)))
			ram.Store32(nextAddr(tails[l], l), n)
			tails[l] = n
		}
	}
	return nodes
}

// KV is a key-value pair: bulk-build input and verification-walk output.
type KV = kv.Pair

// keyInfinity is the tail sentinel key: ordinary keys must be below it.
const keyInfinity = ^uint32(0)
