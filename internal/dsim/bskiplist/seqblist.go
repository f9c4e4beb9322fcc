package bskiplist

import (
	"hybrids/internal/dsim/fc"
	"hybrids/internal/sim/machine"
	"hybrids/internal/sim/memsys"
)

// seqBList is the NMP-managed portion of the hybrid B-skiplist inside one
// partition: the bottom `levels` levels of fat nodes, operated
// single-threadedly by the partition's NMP core. Deletion is relaxed —
// leaves may underflow to empty and nodes are never merged or unlinked —
// so lower bounds are immutable and every pointer ever handed out (host
// router entries, begin-traversal shortcuts) stays valid forever; that is
// why the handler has no retry responses. Splits promote a routing entry
// one level up along the descent path and are dropped at the portion's
// top level (§3.3 Listing 2 height capping): post-build nodes are found
// by forward walks instead of router entries.
type seqBList struct {
	levels int
	heads  []uint32 // heads[l]; level 0 holds the leaves
	alloc  *memsys.Allocator
}

// newSeqBList builds the empty head chain: one head per level with lower
// bound 0; each routing head anchors the level below through its sentinel
// entry (key 0).
func newSeqBList(ram *memsys.RAM, alloc *memsys.Allocator, levels int) *seqBList {
	s := &seqBList{levels: levels, alloc: alloc}
	s.heads = make([]uint32, levels)
	s.heads[0] = buildFat(ram, alloc, 0, 0)
	for l := 1; l < levels; l++ {
		h := buildFat(ram, alloc, 0, 1)
		ram.Store32(keyAddr(h, 0), 0)
		ram.Store32(payAddr(h, 0), s.heads[l-1])
		s.heads[l] = h
	}
	return s
}

// findFrom descends (timed) from the begin node — which sits on the
// portion's top level — to the leaf covering key, recording the visited
// node per level in path.
func (s *seqBList) findFrom(c *machine.Ctx, begin, key uint32, path []uint32) uint32 {
	curr := begin
	for level := s.levels - 1; level > 0; level-- {
		curr = walkLevel(c, curr, key)
		path[level] = curr
		curr = c.Read32(payAddr(curr, entryIdx(c, curr, key)))
	}
	curr = walkLevel(c, curr, key)
	path[0] = curr
	return curr
}

// insertAt shifts a non-full node's entries right of pos (timed) and
// stores the new entry.
func insertAt(c *machine.Ctx, node uint32, nn, pos int, key, pay uint32) {
	for j := nn; j > pos; j-- {
		c.Write32(keyAddr(node, j), c.Read32(keyAddr(node, j-1)))
		c.Write32(payAddr(node, j), c.Read32(payAddr(node, j-1)))
	}
	c.Write32(keyAddr(node, pos), key)
	c.Write32(payAddr(node, pos), pay)
	c.Write32(nAddr(node), uint32(nn+1))
}

// entryPos scans (timed) for the sorted position of key among a node's
// entries.
func entryPos(c *machine.Ctx, node uint32, nn int, key uint32) int {
	pos := 0
	for pos < nn && c.Read32(keyAddr(node, pos)) < key {
		pos++
	}
	c.Step(uint64(pos + 1))
	return pos
}

// splitInsert splits a full node around the insertion of (key, pay),
// links the new right sibling into the level chain and returns it. The
// right node's lower bound is its first key — the entry promoted upward.
func splitInsert(c *machine.Ctx, al *memsys.Allocator, node uint32, key, pay uint32) uint32 {
	var keys [EntryMax + 1]uint32
	var pays [EntryMax + 1]uint32
	pos := entryPos(c, node, EntryMax, key)
	for i := 0; i < pos; i++ {
		keys[i] = c.Read32(keyAddr(node, i))
		pays[i] = c.Read32(payAddr(node, i))
	}
	keys[pos], pays[pos] = key, pay
	for i := pos; i < EntryMax; i++ {
		keys[i+1] = c.Read32(keyAddr(node, i))
		pays[i+1] = c.Read32(payAddr(node, i))
	}
	total := EntryMax + 1
	leftN := (total + 1) / 2
	right := allocFat(c, al, keys[leftN], total-leftN)
	for i := leftN; i < total; i++ {
		c.Write32(keyAddr(right, i-leftN), keys[i])
		c.Write32(payAddr(right, i-leftN), pays[i])
	}
	for i := 0; i < leftN; i++ {
		c.Write32(keyAddr(node, i), keys[i])
		c.Write32(payAddr(node, i), pays[i])
	}
	c.Write32(nAddr(node), uint32(leftN))
	c.Write32(nextAddr(right), c.Read32(nextAddr(node)))
	c.Write32(nextAddr(node), right)
	return right
}

// insert adds (key, value) to the leaf at path[0], splitting and
// promoting along the recorded path; promotions that climb past the
// portion's top level are dropped.
func (s *seqBList) insert(c *machine.Ctx, path []uint32, key, value uint32) {
	leaf := path[0]
	nn := int(c.Read32(nAddr(leaf)))
	if nn < EntryMax {
		insertAt(c, leaf, nn, entryPos(c, leaf, nn, key), key, value)
		return
	}
	right := splitInsert(c, s.alloc, leaf, key, value)
	for lv := 1; lv < s.levels; lv++ {
		node := path[lv]
		ekey := c.Read32(loAddr(right))
		nn := int(c.Read32(nAddr(node)))
		if nn < EntryMax {
			insertAt(c, node, nn, entryPos(c, node, nn, ekey), ekey, right)
			return
		}
		right = splitInsert(c, s.alloc, node, ekey, right)
	}
}

// remove deletes key from the leaf (timed shift); the leaf stays linked
// even when it empties.
func (s *seqBList) remove(c *machine.Ctx, leaf uint32, slot int) {
	nn := int(c.Read32(nAddr(leaf)))
	for j := slot; j < nn-1; j++ {
		c.Write32(keyAddr(leaf, j), c.Read32(keyAddr(leaf, j+1)))
		c.Write32(payAddr(leaf, j), c.Read32(payAddr(leaf, j+1)))
	}
	c.Write32(nAddr(leaf), uint32(nn-1))
}

// handler builds the fc.Handler serving this partition's operations. The
// begin pointer is the host router's boundary entry (0: the portion's own
// top head). Begin nodes are never invalidated, so no request is ever
// answered with Retry.
func (s *seqBList) handler() fc.Handler {
	path := make([]uint32, s.levels)
	return func(c *machine.Ctx, slot int, req fc.Request) fc.Response {
		begin := req.NMPPtr
		if begin == 0 {
			begin = s.heads[s.levels-1]
		}
		leaf := s.findFrom(c, begin, req.Key, path)
		i := leafSlot(c, leaf, req.Key)
		switch req.Op {
		case fc.OpRead, fc.OpUpdate:
			if i < 0 {
				return fc.Response{}
			}
			if req.Op == fc.OpRead {
				return fc.Response{Success: true, Value: c.Read32(payAddr(leaf, i))}
			}
			c.Write32(payAddr(leaf, i), req.Value)
			return fc.Response{Success: true}
		case fc.OpInsert:
			if i >= 0 {
				return fc.Response{}
			}
			s.insert(c, path, req.Key, req.Value)
			return fc.Response{Success: true}
		case fc.OpRemove:
			if i < 0 {
				return fc.Response{}
			}
			s.remove(c, leaf, i)
			return fc.Response{Success: true}
		default:
			panic("bskiplist: unexpected NMP op " + req.Op.String())
		}
	}
}

// nodeInfo describes one built node for the level above.
type nodeInfo struct {
	addr uint32
	lo   uint32
}

// buildFill is the bulk-load entry count per fat node (of EntryMax slots);
// the slack absorbs post-build inserts.
const buildFill = 8

// packLevel builds one level's chain (untimed) over children entries,
// buildFill per node, appending the new nodes after head. Children is the
// (lo, addr) list excluding the level-below head, which the head's
// sentinel entry already anchors.
func packLevel(ram *memsys.RAM, al *memsys.Allocator, head uint32, children []nodeInfo) []nodeInfo {
	var out []nodeInfo
	tail := head
	for lo := 0; lo < len(children); lo += buildFill {
		hi := lo + buildFill
		if hi > len(children) {
			hi = len(children)
		}
		n := buildFat(ram, al, children[lo].lo, hi-lo)
		for j := lo; j < hi; j++ {
			ram.Store32(keyAddr(n, j-lo), children[j].lo)
			ram.Store32(payAddr(n, j-lo), children[j].addr)
		}
		ram.Store32(nextAddr(tail), n)
		tail = n
		out = append(out, nodeInfo{addr: n, lo: children[lo].lo})
	}
	return out
}

// buildSorted bulk-loads sorted unique pairs (untimed), buildFill entries
// per fat node, and returns the portion's top-level non-head nodes — the
// children of the host router's boundary level.
func (s *seqBList) buildSorted(ram *memsys.RAM, pairs []KV) []nodeInfo {
	var level []nodeInfo
	tail := s.heads[0]
	for lo := 0; lo < len(pairs); lo += buildFill {
		hi := lo + buildFill
		if hi > len(pairs) {
			hi = len(pairs)
		}
		n := buildFat(ram, s.alloc, pairs[lo].Key, hi-lo)
		for j := lo; j < hi; j++ {
			ram.Store32(keyAddr(n, j-lo), pairs[j].Key)
			ram.Store32(payAddr(n, j-lo), pairs[j].Value)
		}
		ram.Store32(nextAddr(tail), n)
		tail = n
		level = append(level, nodeInfo{addr: n, lo: pairs[lo].Key})
	}
	for l := 1; l < s.levels; l++ {
		level = packLevel(ram, s.alloc, s.heads[l], level)
	}
	return level
}

// Untimed verification walks.

func (s *seqBList) dump(ram *memsys.RAM) []KV {
	var out []KV
	for n := s.heads[0]; n != 0; n = ram.Load32(nextAddr(n)) {
		nn := int(ram.Load32(nAddr(n)))
		for i := 0; i < nn; i++ {
			out = append(out, KV{Key: ram.Load32(keyAddr(n, i)), Value: ram.Load32(payAddr(n, i))})
		}
	}
	return out
}

// checkLevel validates one fat-node chain (untimed): strictly increasing
// lower bounds, entry counts within capacity, sorted keys inside each
// node's [lo, next.lo) range. It returns the chain's (lo, addr) members
// for cross-level checks.
func checkLevel(ram *memsys.RAM, head uint32, level int, innermin bool) ([]nodeInfo, error) {
	var out []nodeInfo
	prevLo := uint32(0)
	prevKey := uint32(0)
	first := true
	for n := head; n != 0; n = ram.Load32(nextAddr(n)) {
		lo := ram.Load32(loAddr(n))
		if n != head && lo <= prevLo {
			return nil, errf("level %d lower bound %d after %d", level, lo, prevLo)
		}
		nn := int(ram.Load32(nAddr(n)))
		if nn < 0 || nn > EntryMax {
			return nil, errf("level %d node with %d entries", level, nn)
		}
		if innermin && nn < 1 {
			return nil, errf("level %d routing node empty", level)
		}
		hi := ^uint32(0)
		if next := ram.Load32(nextAddr(n)); next != 0 {
			hi = ram.Load32(loAddr(next))
		}
		for i := 0; i < nn; i++ {
			k := ram.Load32(keyAddr(n, i))
			if !first && k <= prevKey {
				return nil, errf("level %d key %d after %d", level, k, prevKey)
			}
			if k < lo || k >= hi {
				return nil, errf("level %d key %d outside [%d,%d)", level, k, lo, hi)
			}
			prevKey, first = k, false
		}
		out = append(out, nodeInfo{addr: n, lo: lo})
		prevLo = lo
	}
	return out, nil
}

// checkRouting validates that every entry of a routing level points at a
// member of the level below whose lower bound matches the entry key.
func checkRouting(ram *memsys.RAM, nodes []nodeInfo, level int, below map[uint32]bool) error {
	for _, n := range nodes {
		nn := int(ram.Load32(nAddr(n.addr)))
		for i := 0; i < nn; i++ {
			k := ram.Load32(keyAddr(n.addr, i))
			child := ram.Load32(payAddr(n.addr, i))
			if !below[child] {
				return errf("level %d entry %d points outside the level below", level, k)
			}
			if got := ram.Load32(loAddr(child)); got != k {
				return errf("level %d entry %d at child with lower bound %d", level, k, got)
			}
		}
	}
	return nil
}

func (s *seqBList) checkInvariants(ram *memsys.RAM) error {
	below, err := checkLevel(ram, s.heads[0], 0, false)
	if err != nil {
		return err
	}
	for l := 1; l < s.levels; l++ {
		members := make(map[uint32]bool, len(below))
		for _, n := range below {
			members[n.addr] = true
		}
		nodes, err := checkLevel(ram, s.heads[l], l, true)
		if err != nil {
			return err
		}
		if err := checkRouting(ram, nodes, l, members); err != nil {
			return err
		}
		below = nodes
	}
	return nil
}
