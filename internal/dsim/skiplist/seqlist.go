package skiplist

import (
	"hybrids/internal/dsim/fc"
	"hybrids/internal/sim/machine"
	"hybrids/internal/sim/memsys"
)

// seqList is the single-threaded skiplist stored inside one NMP partition.
// The partition's NMP core is the only agent that ever touches it, so no
// marks or CASes are needed for mutation; a logical-deletion flag is still
// written before unlinking so that stale begin-NMP-traversal shortcuts held
// by in-flight operations are detectable (§3.3).
//
// It serves both the fully-NMP skiplist of prior work (full height, begin
// pointer always the partition head) and the NMP-managed portion of the
// hybrid skiplist (bottom levels only, begin pointer from host shortcuts).
type seqList struct {
	levels int
	head   uint32
	alloc  *memsys.Allocator
}

func newSeqList(ram *memsys.RAM, alloc *memsys.Allocator, levels int) *seqList {
	s := &seqList{levels: levels, alloc: alloc}
	s.head = buildNode(ram, alloc, 0, 0, levels, 0)
	return s
}

// findFrom walks down from the begin node (which must have full partition
// height), filling preds and returning the node holding key, or 0.
// A next pointer of 0 is the end of a level.
func (s *seqList) findFrom(c *machine.Ctx, begin, key uint32, preds []uint32) uint32 {
	curr := begin
	for level := s.levels - 1; level >= 0; level-- {
		steps := uint64(1)
		for {
			next := c.Read32(nextAddr(curr, level))
			if next != 0 && c.Read32(keyAddr(next)) < key {
				curr = next
				steps++
			} else {
				break
			}
		}
		// Per-node compare/branch work on the in-order NMP core,
		// charged once per level to keep event counts low.
		c.Step(steps)
		preds[level] = curr
	}
	next := c.Read32(nextAddr(curr, 0))
	if next != 0 && c.Read32(keyAddr(next)) == key {
		return next
	}
	return 0
}

// insert links (key,value,height,hostPtr) after a findFrom miss whose
// preds are supplied. Returns the new node.
func (s *seqList) insert(c *machine.Ctx, preds []uint32, key, value uint32, h int, hostPtr uint32) uint32 {
	n := newNode(c, s.alloc, key, value, h, hostPtr)
	for l := 0; l < h; l++ {
		c.Write32(nextAddr(n, l), c.Read32(nextAddr(preds[l], l)))
		c.Write32(nextAddr(preds[l], l), n)
	}
	return n
}

// remove marks node deleted, then unlinks it at every level it occupies.
func (s *seqList) remove(c *machine.Ctx, preds []uint32, node uint32) {
	// Logical deletion first: concurrent offloaded operations holding
	// this node as their begin-NMP-traversal shortcut must observe it.
	c.Write32(flagsAddr(node), flagDeleted)
	h := int(c.Read32(heightAddr(node)))
	for l := 0; l < h; l++ {
		if c.Read32(nextAddr(preds[l], l)) == node {
			c.Write32(nextAddr(preds[l], l), c.Read32(nextAddr(node, l)))
		}
	}
}

// handler builds the fc.Handler serving this partition's operations. When
// capHeight is true (hybrid), insert heights above the partition's level
// count are capped (§3.3 Listing 2 lines 18-21); the full-NMP variant
// passes heights already bounded by its total levels.
func (s *seqList) handler() fc.Handler {
	preds := make([]uint32, s.levels)
	return func(c *machine.Ctx, slot int, req fc.Request) fc.Response {
		begin := req.NMPPtr
		if begin != 0 {
			// §3.3: a begin-NMP-traversal node removed by an
			// earlier concurrent operation forces a host retry.
			if c.Read32(flagsAddr(begin))&flagDeleted != 0 {
				return fc.Response{Retry: true}
			}
		} else {
			begin = s.head
		}
		node := s.findFrom(c, begin, req.Key, preds)
		switch req.Op {
		case fc.OpRead:
			if node == 0 {
				return fc.Response{}
			}
			return fc.Response{Success: true, Value: c.Read32(valueAddr(node)), Ptr: c.Read32(auxAddr(node))}
		case fc.OpUpdate:
			if node == 0 {
				return fc.Response{}
			}
			c.Write32(valueAddr(node), req.Value)
			return fc.Response{Success: true, Ptr: c.Read32(auxAddr(node))}
		case fc.OpInsert:
			if node != 0 {
				return fc.Response{}
			}
			h := int(req.Aux)
			if h > s.levels {
				h = s.levels
			}
			n := s.insert(c, preds, req.Key, req.Value, h, req.HostPtr)
			return fc.Response{Success: true, Ptr: n}
		case fc.OpRemove:
			if node == 0 {
				return fc.Response{}
			}
			hostPtr := c.Read32(auxAddr(node))
			s.remove(c, preds, node)
			return fc.Response{Success: true, Ptr: hostPtr}
		default:
			panic("skiplist: unexpected NMP op " + req.Op.String())
		}
	}
}

// Untimed verification walks.

func (s *seqList) dump(ram *memsys.RAM) []KV {
	var out []KV
	n := ram.Load32(nextAddr(s.head, 0))
	for n != 0 {
		out = append(out, KV{Key: ram.Load32(keyAddr(n)), Value: ram.Load32(valueAddr(n))})
		n = ram.Load32(nextAddr(n, 0))
	}
	return out
}

func (s *seqList) checkInvariants(ram *memsys.RAM) error {
	bottom := map[uint32]bool{}
	prev := uint32(0)
	n := ram.Load32(nextAddr(s.head, 0))
	for n != 0 {
		k := ram.Load32(keyAddr(n))
		if k <= prev && prev != 0 {
			return errf("NMP level 0 keys not strictly increasing: %d after %d", k, prev)
		}
		if ram.Load32(flagsAddr(n))&flagDeleted != 0 {
			return errf("deleted node key=%d still linked at level 0", k)
		}
		prev = k
		bottom[n] = true
		n = ram.Load32(nextAddr(n, 0))
	}
	for l := 1; l < s.levels; l++ {
		prev = 0
		n = ram.Load32(nextAddr(s.head, l))
		for n != 0 {
			k := ram.Load32(keyAddr(n))
			if k <= prev && prev != 0 {
				return errf("NMP level %d keys not strictly increasing", l)
			}
			prev = k
			if !bottom[n] {
				return errf("NMP level %d node key=%d missing from level 0", l, k)
			}
			n = ram.Load32(nextAddr(n, l))
		}
	}
	return nil
}

// buildSorted bulk-loads sorted unique pairs with deterministic heights,
// returning for each pair the created node (untimed load phase).
func (s *seqList) buildSorted(ram *memsys.RAM, pairs []KV, heights []int) []uint32 {
	capped := make([]int, len(heights))
	for i, h := range heights {
		if h > s.levels {
			h = s.levels
		}
		capped[i] = h
	}
	return linkSorted(ram, s.alloc, s.head, s.levels, pairs, capped, uint64(s.head)^0xa11c)
}
