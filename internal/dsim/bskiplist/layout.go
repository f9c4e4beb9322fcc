// Package bskiplist implements a cache-conscious B-skiplist on the
// simulated NMP machine, the third engine (exp.Engines) behind the shared
// offload runtime: every level is a linked list of fat multi-key nodes sized to
// exactly one 128 B cache block (the locality-optimized layout of the
// B-skiplist literature), so traversal scans contiguous keys instead of
// chasing one pointer per key.
//
// The HybriDS split (§3.3 generalized): the bottom NMPLevels levels of
// each partition live in NMP memory and are operated single-threadedly by
// the partition's flat-combining NMP core; the remaining top levels form a
// per-partition *static router* in host memory, built once at load time
// and thereafter read-only, so host traversals of it stay LLC-resident.
// Runtime promotions cap at the NMP portion's top level (the same height
// capping as §3.3 Listing 2): nodes split after the build are reachable
// through forward walks from their routed predecessor, never removed and
// never re-routed, which is what keeps the router valid without any
// host-NMP synchronization protocol — there is no retry path at all.
package bskiplist

import (
	"hybrids/internal/dsim/kv"
	"hybrids/internal/sim/machine"
	"hybrids/internal/sim/memsys"
)

// Geometry: one fat node per 128 B cache block.
const (
	// NodeBytes is the node footprint: exactly one cache block.
	NodeBytes = 128
	// EntryMax is the entry capacity of a node: 14 keys plus 14 payload
	// words (leaf values or down pointers) beside a 12 B header.
	EntryMax = 14
)

// Node layout (byte offsets). lo is the node's immutable lower bound:
// every key in or below the node is >= lo and < next.lo when next != 0.
// Leaves put values in the payload words; routing nodes put pointers one
// level down, with keys[i] == lo of payload[i]'s node.
const (
	offLo   = 0  // uint32 lower bound
	offN    = 4  // uint32 entry count
	offNext = 8  // uint32 next node on this level (0: end)
	offKeys = 12 // uint32 keys[14]
	offPay  = 68 // uint32 payload[14]
)

func loAddr(n uint32) memsys.Addr         { return memsys.Addr(n) + offLo }
func nAddr(n uint32) memsys.Addr          { return memsys.Addr(n) + offN }
func nextAddr(n uint32) memsys.Addr       { return memsys.Addr(n) + offNext }
func keyAddr(n uint32, i int) memsys.Addr { return memsys.Addr(n) + offKeys + memsys.Addr(4*i) }
func payAddr(n uint32, i int) memsys.Addr { return memsys.Addr(n) + offPay + memsys.Addr(4*i) }

// allocFat carves a fresh node with timed header stores (operation path;
// allocation bookkeeping itself is free, matching a per-core free list).
func allocFat(c *machine.Ctx, al *memsys.Allocator, lo uint32, n int) uint32 {
	node := uint32(al.Alloc(NodeBytes, NodeBytes))
	c.Write32(loAddr(node), lo)
	c.Write32(nAddr(node), uint32(n))
	c.Write32(nextAddr(node), 0)
	return node
}

// buildFat is allocFat's untimed load-phase counterpart.
func buildFat(ram *memsys.RAM, al *memsys.Allocator, lo uint32, n int) uint32 {
	node := uint32(al.Alloc(NodeBytes, NodeBytes))
	ram.Store32(loAddr(node), lo)
	ram.Store32(nAddr(node), uint32(n))
	ram.Store32(nextAddr(node), 0)
	return node
}

// walkLevel advances along one level's chain (timed) to the last node
// whose lower bound covers key.
func walkLevel(c *machine.Ctx, curr, key uint32) uint32 {
	steps := uint64(1)
	for {
		next := c.Read32(nextAddr(curr))
		if next != 0 && c.Read32(loAddr(next)) <= key {
			curr = next
			steps++
		} else {
			break
		}
	}
	// Per-node compare/branch work, charged once per level walk.
	c.Step(steps)
	return curr
}

// entryIdx scans a routing node's keys (timed) for the greatest entry
// with keys[i] <= key; the head sentinel entry (key 0) or the node's own
// lower bound guarantees i >= 0 on any node a descent reaches.
func entryIdx(c *machine.Ctx, node, key uint32) int {
	nn := int(c.Read32(nAddr(node)))
	i := 0
	for i < nn-1 && c.Read32(keyAddr(node, i+1)) <= key {
		i++
	}
	c.Step(uint64(i + 1))
	return i
}

// leafSlot scans a leaf (timed) for key, returning its slot or -1.
func leafSlot(c *machine.Ctx, leaf, key uint32) int {
	nn := int(c.Read32(nAddr(leaf)))
	for i := 0; i < nn; i++ {
		k := c.Read32(keyAddr(leaf, i))
		if k == key {
			c.Step(uint64(i + 1))
			return i
		}
		if k > key {
			c.Step(uint64(i + 1))
			return -1
		}
	}
	c.Step(uint64(nn))
	return -1
}

// KV is a key-value pair: bulk-build input and verification-walk output.
type KV = kv.Pair
