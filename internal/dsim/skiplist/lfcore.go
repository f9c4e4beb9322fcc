package skiplist

import (
	"hybrids/internal/sim/machine"
	"hybrids/internal/sim/memsys"
)

// lfCore holds the lock-free skiplist machinery shared by the host-only
// LockFree structure and the host-managed portion of the Hybrid structure.
// It follows the Herlihy-Lev-Shavit algorithm: next pointers carry a mark
// bit; find() physically snips marked nodes while traversing; insertion
// links bottom-up with CAS; removal marks top-down and lets find() reclaim.
type lfCore struct {
	levels int
	head   uint32
	tail   uint32
	alloc  *memsys.Allocator
}

func newLFCore(ram *memsys.RAM, alloc *memsys.Allocator, levels int) *lfCore {
	s := &lfCore{levels: levels, alloc: alloc}
	s.tail = buildNode(ram, alloc, keyInfinity, 0, levels, 0)
	s.head = buildNode(ram, alloc, 0, 0, levels, 0)
	for l := 0; l < levels; l++ {
		ram.Store32(nextAddr(s.head, l), s.tail)
	}
	return s
}

// find locates key's position, filling preds/succs (each of length levels)
// and snipping marked nodes along the way. It reports whether an unmarked
// node with the key is present (as succs[0]).
func (s *lfCore) find(c *machine.Ctx, key uint32, preds, succs []uint32) bool {
retry:
	for {
		pred := s.head
		for level := s.levels - 1; level >= 0; level-- {
			curr := ref(c.Read32(nextAddr(pred, level)))
			for {
				succ := c.Read32(nextAddr(curr, level))
				for marked(succ) {
					// curr is logically deleted at this level:
					// snip it out; restart on interference.
					if !c.CAS32(nextAddr(pred, level), curr, ref(succ)) {
						continue retry
					}
					curr = ref(c.Read32(nextAddr(pred, level)))
					succ = c.Read32(nextAddr(curr, level))
				}
				if c.Read32(keyAddr(curr)) < key {
					pred = curr
					curr = ref(succ)
				} else {
					break
				}
			}
			preds[level] = pred
			succs[level] = curr
		}
		return c.Read32(keyAddr(succs[0])) == key
	}
}

// search is the wait-free lookup: it skips marked nodes without helping
// and returns the unmarked node holding key (0 if absent) along with the
// last predecessor seen at the bottom level (the hybrid structure's
// shortcut source).
func (s *lfCore) search(c *machine.Ctx, key uint32) (node, bottomPred uint32) {
	pred := s.head
	var curr uint32
	for level := s.levels - 1; level >= 0; level-- {
		curr = ref(c.Read32(nextAddr(pred, level)))
		for {
			succ := c.Read32(nextAddr(curr, level))
			for marked(succ) {
				curr = ref(succ)
				succ = c.Read32(nextAddr(curr, level))
			}
			c.Step(1)
			if c.Read32(keyAddr(curr)) < key {
				pred = curr
				curr = ref(succ)
			} else {
				break
			}
		}
	}
	if c.Read32(keyAddr(curr)) == key {
		return curr, pred
	}
	return 0, pred
}

// insert adds (key, value) with the given height, storing aux in the new
// node. It returns the new node and true, or 0 and false when the key is
// already present.
func (s *lfCore) insert(c *machine.Ctx, key, value uint32, h int, aux uint32) (uint32, bool) {
	preds := make([]uint32, s.levels)
	succs := make([]uint32, s.levels)
	for {
		if s.find(c, key, preds, succs) {
			return 0, false
		}
		node := newNode(c, s.alloc, key, value, h, aux)
		for l := 0; l < h; l++ {
			c.Write32(nextAddr(node, l), succs[l])
		}
		// Linking at the bottom level is the linearization point.
		if !c.CAS32(nextAddr(preds[0], 0), succs[0], node) {
			continue
		}
		s.linkUpper(c, node, key, h, preds, succs)
		return node, true
	}
}

// linkNode links a pre-built node (already initialized, bottom next not
// yet set) into the list; used by the hybrid insert after the NMP portion
// confirmed the insert. Returns false if the key turned out to be present
// host-side (a lost race; the caller treats the hybrid insert as done).
func (s *lfCore) linkNode(c *machine.Ctx, node uint32, key uint32, h int) bool {
	preds := make([]uint32, s.levels)
	succs := make([]uint32, s.levels)
	for {
		if s.find(c, key, preds, succs) {
			return false
		}
		for l := 0; l < h; l++ {
			c.Write32(nextAddr(node, l), succs[l])
		}
		if !c.CAS32(nextAddr(preds[0], 0), succs[0], node) {
			continue
		}
		s.linkUpper(c, node, key, h, preds, succs)
		return true
	}
}

func (s *lfCore) linkUpper(c *machine.Ctx, node, key uint32, h int, preds, succs []uint32) {
	for l := 1; l < h; l++ {
		for {
			raw := c.Read32(nextAddr(node, l))
			if marked(raw) {
				// A concurrent remove got to this node; it owns
				// the remaining unlinking.
				return
			}
			if ref(raw) != succs[l] {
				if !c.CAS32(nextAddr(node, l), raw, succs[l]) {
					continue
				}
			}
			if c.CAS32(nextAddr(preds[l], l), succs[l], node) {
				break
			}
			if !s.find(c, key, preds, succs) {
				return // removed concurrently
			}
			if succs[0] != node {
				return // a different node now holds the key slot
			}
		}
	}
}

// remove logically deletes key's node (marking top-down) and physically
// unlinks it via find. It returns the removed node and true, or 0 and
// false if the key is absent or another thread won the removal.
func (s *lfCore) remove(c *machine.Ctx, key uint32) (uint32, bool) {
	preds := make([]uint32, s.levels)
	succs := make([]uint32, s.levels)
	if !s.find(c, key, preds, succs) {
		return 0, false
	}
	node := succs[0]
	return node, s.removeNode(c, node, key)
}

// removeNode marks a specific node for deletion (used both by remove and
// by the hybrid structure's stale-shortcut cleanup). It returns true if
// this caller won the logical deletion at the bottom level.
func (s *lfCore) removeNode(c *machine.Ctx, node, key uint32) bool {
	h := int(c.Read32(heightAddr(node)))
	for l := h - 1; l >= 1; l-- {
		raw := c.Read32(nextAddr(node, l))
		for !marked(raw) {
			c.CAS32(nextAddr(node, l), raw, raw|1)
			raw = c.Read32(nextAddr(node, l))
		}
	}
	for {
		raw := c.Read32(nextAddr(node, 0))
		if marked(raw) {
			return false // another remover won
		}
		if c.CAS32(nextAddr(node, 0), raw, raw|1) {
			// Physically unlink through a helping find.
			preds := make([]uint32, s.levels)
			succs := make([]uint32, s.levels)
			s.find(c, key, preds, succs)
			return true
		}
	}
}

// Untimed verification walks (run after the simulation on raw RAM).

// dump returns the live (unmarked) key-value pairs at the bottom level.
func (s *lfCore) dump(ram *memsys.RAM) []KV {
	var out []KV
	n := ref(ram.Load32(nextAddr(s.head, 0)))
	for n != s.tail {
		if !marked(ram.Load32(nextAddr(n, 0))) {
			out = append(out, KV{Key: ram.Load32(keyAddr(n)), Value: ram.Load32(valueAddr(n))})
		}
		n = ref(ram.Load32(nextAddr(n, 0)))
	}
	return out
}

// checkInvariants verifies the skiplist property on unmarked nodes: keys
// strictly increase along every level, and every node present at level l>0
// is present at level 0.
func (s *lfCore) checkInvariants(ram *memsys.RAM) error {
	bottom := map[uint32]bool{}
	n := ref(ram.Load32(nextAddr(s.head, 0)))
	prev := uint32(0)
	for n != s.tail {
		k := ram.Load32(keyAddr(n))
		if !marked(ram.Load32(nextAddr(n, 0))) {
			if k <= prev && prev != 0 {
				return errf("level 0 keys not strictly increasing: %d after %d", k, prev)
			}
			prev = k
			bottom[n] = true
		}
		n = ref(ram.Load32(nextAddr(n, 0)))
	}
	for l := 1; l < s.levels; l++ {
		n = ref(ram.Load32(nextAddr(s.head, l)))
		prev = 0
		for n != s.tail {
			k := ram.Load32(keyAddr(n))
			if !marked(ram.Load32(nextAddr(n, l))) && !marked(ram.Load32(nextAddr(n, 0))) {
				if k <= prev && prev != 0 {
					return errf("level %d keys not strictly increasing: %d after %d", l, k, prev)
				}
				prev = k
				if !bottom[n] {
					return errf("level %d node key=%d missing from level 0 (skiplist property)", l, k)
				}
			}
			n = ref(ram.Load32(nextAddr(n, l)))
		}
	}
	return nil
}
