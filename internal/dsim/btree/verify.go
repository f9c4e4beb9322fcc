package btree

import (
	"hybrids/internal/sim/machine"
	"hybrids/internal/sim/memsys"
)

// dumpTree walks the tree untimed (raw RAM) and returns all key-value
// pairs in key order. For hybrid trees (trees != nil), pointers at the
// host-NMP boundary carry partition tags that are stripped while walking.
func dumpTree(m *machine.Machine, core *hostCore, trees []*nmpTree, nmpLevels int) []KV {
	ram := m.Mem.RAM
	root, height := core.rootInfo(ram)
	var out []KV
	var walk func(node uint32, level int)
	walk = func(node uint32, level int) {
		slots := metaSlots(ram.Load32(metaAddr(node)))
		if level == 0 {
			for i := 0; i < slots; i++ {
				out = append(out, KV{Key: ram.Load32(keyAddr(node, i)), Value: ram.Load32(ptrAddr(node, i))})
			}
			return
		}
		for i := 0; i < slots; i++ {
			ptr := ram.Load32(ptrAddr(node, i))
			if trees != nil && level == nmpLevels {
				ptr, _ = untag(ptr)
			}
			walk(ptr, level-1)
		}
	}
	walk(root, height-1)
	return out
}

// checkTree validates B+ tree invariants at quiescence:
//   - every node's recorded level matches its depth, and all root-to-leaf
//     paths have equal length (implied by the level check);
//   - keys are strictly increasing within nodes and across the whole tree,
//     and each subtree's keys respect its dividing-key bounds
//     (lo < key <= hi);
//   - inner nodes hold 1..InnerMax children, leaves 0..LeafMax entries
//     (the relaxed-deletion discipline permits underflow);
//   - host-side sequence numbers are even (unlocked) and NMP-side lock
//     words are clear;
//   - hybrid only: boundary pointers' partition tags match the partition
//     that owns the target node, and whole NMP subtrees stay inside one
//     partition.
func checkTree(m *machine.Machine, core *hostCore, trees []*nmpTree, nmpLevels int) error {
	ram := m.Mem.RAM
	root, height := core.rootInfo(ram)
	if hseq := ram.Load32(memsys.Addr(core.header) + hdrSeq); hseq%2 != 0 {
		return errf("header locked at quiescence (seq=%d)", hseq)
	}
	for _, tr := range trees {
		if len(tr.pending) != 0 {
			return errf("NMP tree has %d pending inserts at quiescence", len(tr.pending))
		}
	}
	var prevKey uint32
	hasPrev := false
	var walk func(node uint32, level, part int, lo, hi uint64) error
	walk = func(node uint32, level, part int, lo, hi uint64) error {
		meta := ram.Load32(metaAddr(node))
		slots := metaSlots(meta)
		if metaLevel(meta) != level {
			return errf("node %#x records level %d at depth-level %d", node, metaLevel(meta), level)
		}
		hostSide := trees == nil || level >= nmpLevels
		if hostSide {
			if s := ram.Load32(syncAddr(node)); s%2 != 0 {
				return errf("host node %#x locked at quiescence (seq=%d)", node, s)
			}
		} else {
			if l := ram.Load32(lockAddr(node)); l != 0 {
				return errf("NMP node %#x locked at quiescence", node)
			}
			if p, ok := m.Mem.IsNMPMem(memsys.Addr(node)); !ok || p != part {
				return errf("NMP node %#x outside partition %d", node, part)
			}
		}
		if level == 0 {
			if slots > LeafMax {
				return errf("leaf %#x overfull (%d)", node, slots)
			}
			for i := 0; i < slots; i++ {
				k := ram.Load32(keyAddr(node, i))
				if uint64(k) <= lo || uint64(k) > hi {
					return errf("leaf key %d outside bounds (%d,%d]", k, lo, hi)
				}
				if hasPrev && k <= prevKey {
					return errf("keys not globally increasing: %d after %d", k, prevKey)
				}
				prevKey, hasPrev = k, true
			}
			return nil
		}
		if slots < 1 || slots > InnerMax {
			return errf("inner node %#x has %d children", node, slots)
		}
		childLo := lo
		for i := 0; i < slots; i++ {
			childHi := hi
			if i < slots-1 {
				childHi = uint64(ram.Load32(keyAddr(node, i)))
			}
			if childHi < childLo {
				return errf("node %#x dividers not increasing", node)
			}
			ptr := ram.Load32(ptrAddr(node, i))
			childPart := part
			if trees != nil && level == nmpLevels {
				var tag int
				ptr, tag = untag(ptr)
				owner, ok := m.Mem.IsNMPMem(memsys.Addr(ptr))
				if !ok {
					return errf("boundary pointer %#x not in NMP memory", ptr)
				}
				if tag != owner {
					return errf("boundary pointer tag %d but node owned by partition %d", tag, owner)
				}
				childPart = owner
			}
			if err := walk(ptr, level-1, childPart, childLo, childHi); err != nil {
				return err
			}
			childLo = childHi
		}
		return nil
	}
	return walk(root, height-1, -1, 0, uint64(^uint32(0)))
}
