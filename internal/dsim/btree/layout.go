// Package btree implements the B+ tree variants evaluated in the HybriDS
// paper on the simulated NMP machine:
//
//   - HostOnly: a sequence-lock (optimistic) concurrent B+ tree operated
//     entirely by host cores — the paper's non-NMP baseline, using the
//     same synchronization as the hybrid tree's host-managed portion.
//   - Hybrid: the paper's contribution (§3.4): seqlock host-managed upper
//     levels over per-partition NMP-managed lower levels, coordinated
//     through the parent-sequence-number protocol and the
//     LOCK_PATH / RESUME_INSERT / UNLOCK_PATH message exchange, with
//     blocking and non-blocking NMP calls.
//
// Node geometry matches the paper: 128-byte nodes (one cache block), up to
// 14 key-value pairs per leaf and up to 15 children per inner node.
// Deletions use the relaxed-occupancy discipline of [36, 49, 57, 69]:
// leaves may underflow (down to empty) and nodes are never merged.
package btree

import (
	"hybrids/internal/dsim/kv"
	"hybrids/internal/sim/machine"
	"hybrids/internal/sim/memsys"
)

// Geometry (Table: 128 B nodes as in in-memory OLTP systems [54, 67]).
const (
	// NodeBytes is the node footprint: exactly one 128 B cache block.
	NodeBytes = 128
	// LeafMax is the key-value capacity of a leaf.
	LeafMax = 14
	// InnerMax is the child capacity of an inner node (InnerMax-1
	// dividing keys).
	InnerMax = 15
)

// Node layout (byte offsets). The same layout serves both portions:
// offSync is the seqlock sequence number host-side and the parent sequence
// number NMP-side (Listing 3); offLock is used only NMP-side.
const (
	offSync = 0  // uint32: seqnum (host) / parent_seqnum (NMP)
	offMeta = 4  // uint32: level<<16 | slotuse
	offLock = 8  // uint32: NMP-side node lock (0/1)
	offKeys = 12 // uint32 keys[14]
	offPtrs = 68 // uint32 ptrs[15] (leaf: values[14])
)

// Child pointers stored in the bottom host-managed level reference NMP
// nodes; since nodes are 128-byte aligned, the low bits carry the owning
// NMP partition ID (§3.4: "we exploit unused least significant bits of the
// NMP-side node pointer to store the corresponding NMP partition's ID").
const partMask = NodeBytes - 1

func taggedPtr(node uint32, part int) uint32 { return node | uint32(part) }
func untag(p uint32) (node uint32, part int) { return p &^ partMask, int(p & partMask) }

func syncAddr(n uint32) memsys.Addr       { return memsys.Addr(n) + offSync }
func metaAddr(n uint32) memsys.Addr       { return memsys.Addr(n) + offMeta }
func lockAddr(n uint32) memsys.Addr       { return memsys.Addr(n) + offLock }
func keyAddr(n uint32, i int) memsys.Addr { return memsys.Addr(n) + offKeys + memsys.Addr(4*i) }
func ptrAddr(n uint32, i int) memsys.Addr { return memsys.Addr(n) + offPtrs + memsys.Addr(4*i) }

func packMeta(level, slotuse int) uint32 { return uint32(level)<<16 | uint32(slotuse) }
func metaLevel(m uint32) int             { return int(m >> 16) }
func metaSlots(m uint32) int             { return int(m & 0xffff) }

// Tree header layout: a block holding the root pointer and height,
// protected by its own sequence lock so root splits are safe.
const (
	hdrSeq    = 0
	hdrHeight = 4
	hdrRoot   = 8
)

// allocNode carves a fresh zeroed node with timed initialization of its
// sync/meta words (operation path).
func allocNode(c *machine.Ctx, al *memsys.Allocator, level, slotuse int, syncVal uint32) uint32 {
	n := uint32(al.Alloc(NodeBytes, NodeBytes))
	c.Write32(syncAddr(n), syncVal)
	c.Write32(metaAddr(n), packMeta(level, slotuse))
	c.Write32(lockAddr(n), 0)
	return n
}

// buildNode is allocNode's untimed load-phase counterpart.
func buildNode(ram *memsys.RAM, al *memsys.Allocator, level, slotuse int) uint32 {
	n := uint32(al.Alloc(NodeBytes, NodeBytes))
	ram.Store32(syncAddr(n), 0)
	ram.Store32(metaAddr(n), packMeta(level, slotuse))
	ram.Store32(lockAddr(n), 0)
	return n
}

// KV is a key-value pair: bulk-build input and verification-walk output.
type KV = kv.Pair

// findChildIdx scans an inner node's dividing keys (timed) and returns the
// child slot for key: child i covers keys <= keys[i], the last child
// covers the remainder.
func findChildIdx(c *machine.Ctx, n uint32, slotuse int, key uint32) int {
	i := 0
	for i < slotuse-1 {
		if key <= c.Read32(keyAddr(n, i)) {
			break
		}
		i++
	}
	c.Step(uint64(i + 1)) // compare/branch work, charged once per node
	return i
}

// findLeafSlot scans a leaf (timed) for key, returning its slot or -1.
func findLeafSlot(c *machine.Ctx, n uint32, slotuse int, key uint32) int {
	for i := 0; i < slotuse; i++ {
		k := c.Read32(keyAddr(n, i))
		if k == key {
			c.Step(uint64(i + 1))
			return i
		}
		if k > key {
			c.Step(uint64(i + 1))
			return -1
		}
	}
	c.Step(uint64(slotuse))
	return -1
}
