package btree

import (
	"hybrids/internal/dsim/fc"
	"hybrids/internal/sim/machine"
	"hybrids/internal/sim/memsys"
)

// nmpTree is the NMP-managed portion of the hybrid B+ tree inside one
// partition: the bottom `levels` tree levels, operated single-threadedly
// by the partition's NMP core (Listing 5). Nodes carry plain lock words
// (no atomics needed) and the topmost NMP level's nodes carry the
// parent-sequence-number used for host-NMP boundary synchronization.
type nmpTree struct {
	levels int
	alloc  *memsys.Allocator
	// pending holds the locked state of inserts that answered LOCK_PATH
	// and await RESUME_INSERT or UNLOCK_PATH, keyed by publication slot.
	pending map[int]*pendingInsert
}

type pendingInsert struct {
	path   []uint32
	idxs   []int
	key    uint32
	value  uint32
	offSeq uint32
	begin  uint32
}

func newNMPTree(levels int, alloc *memsys.Allocator) *nmpTree {
	return &nmpTree{levels: levels, alloc: alloc, pending: make(map[int]*pendingInsert)}
}

func (t *nmpTree) handler() fc.Handler {
	return func(c *machine.Ctx, slot int, req fc.Request) fc.Response {
		switch req.Op {
		case fc.OpResumeInsert:
			return t.resume(c, slot)
		case fc.OpUnlockPath:
			return t.unlockPending(c, slot)
		}
		begin := req.NMPPtr
		// Listing 5 lines 2-8: compare the recorded parent sequence
		// number against the offloaded one.
		recorded := c.Read32(syncAddr(begin))
		if recorded > req.Aux {
			// The begin node was split by a concurrent operation
			// processed earlier: its leaves may be unreachable now.
			return fc.Response{Retry: true}
		}
		if recorded < req.Aux {
			// The parent was modified by a sibling's split; refresh.
			c.Write32(syncAddr(begin), req.Aux)
		}
		path, idxs := t.descend(c, begin, req.Key)
		leaf := path[0]
		switch req.Op {
		case fc.OpRead, fc.OpUpdate:
			slots := metaSlots(c.Read32(metaAddr(leaf)))
			i := findLeafSlot(c, leaf, slots, req.Key)
			if i < 0 {
				return fc.Response{}
			}
			if req.Op == fc.OpRead {
				return fc.Response{Success: true, Value: c.Read32(ptrAddr(leaf, i))}
			}
			c.Write32(ptrAddr(leaf, i), req.Value)
			return fc.Response{Success: true}
		case fc.OpRemove:
			// §3.4: a locked leaf is part of a prepared split; the
			// slot count must not change under it.
			if c.Read32(lockAddr(leaf)) != 0 {
				return fc.Response{Retry: true}
			}
			meta := c.Read32(metaAddr(leaf))
			slots := metaSlots(meta)
			i := findLeafSlot(c, leaf, slots, req.Key)
			if i < 0 {
				return fc.Response{}
			}
			for j := i; j < slots-1; j++ {
				c.Write32(keyAddr(leaf, j), c.Read32(keyAddr(leaf, j+1)))
				c.Write32(ptrAddr(leaf, j), c.Read32(ptrAddr(leaf, j+1)))
			}
			c.Write32(metaAddr(leaf), packMeta(0, slots-1))
			return fc.Response{Success: true}
		case fc.OpInsert:
			return t.insert(c, slot, req, begin, path, idxs)
		default:
			panic("btree: unexpected NMP op " + req.Op.String())
		}
	}
}

func (t *nmpTree) descend(c *machine.Ctx, begin, key uint32) (path []uint32, idxs []int) {
	path = make([]uint32, t.levels)
	idxs = make([]int, t.levels)
	curr := begin
	for lv := t.levels - 1; lv > 0; lv-- {
		path[lv] = curr
		slots := metaSlots(c.Read32(metaAddr(curr)))
		idx := findChildIdx(c, curr, slots, key)
		idxs[lv] = idx
		curr = c.Read32(ptrAddr(curr, idx))
	}
	path[0] = curr
	return path, idxs
}

// insert implements Listing 5 lines 13-32: lock the path bottom-up through
// the first non-full node; complete internally when possible, otherwise
// keep the locks and ask the host to lock its side.
func (t *nmpTree) insert(c *machine.Ctx, slot int, req fc.Request, begin uint32, path []uint32, idxs []int) fc.Response {
	leaf := path[0]
	slots := metaSlots(c.Read32(metaAddr(leaf)))
	if findLeafSlot(c, leaf, slots, req.Key) >= 0 {
		return fc.Response{} // key already present
	}
	var locked []uint32
	lockedAll := false
	top := 0
	for i := 0; i < t.levels; i++ {
		if c.Read32(lockAddr(path[i])) != 0 {
			// A concurrent insert holds this node (Listing 5
			// lines 20-23): back off and let the host retry.
			for _, n := range locked {
				c.Write32(lockAddr(n), 0)
			}
			return fc.Response{Retry: true}
		}
		c.Write32(lockAddr(path[i]), 1)
		locked = append(locked, path[i])
		maxSlots := InnerMax
		if i == 0 {
			maxSlots = LeafMax
		}
		if metaSlots(c.Read32(metaAddr(path[i]))) < maxSlots {
			lockedAll = true
			top = i
			break
		}
	}
	if !lockedAll {
		// Even the topmost NMP node will split: the host must lock
		// its side of the path (Listing 5 lines 30-32). Locks stay
		// held until RESUME_INSERT or UNLOCK_PATH.
		t.pending[slot] = &pendingInsert{
			path: path, idxs: idxs,
			key: req.Key, value: req.Value,
			offSeq: req.Aux, begin: begin,
		}
		return fc.Response{LockPath: true}
	}
	// Complete internally: split levels 0..top-1 (all full), insert into
	// the non-full path[top].
	if top == 0 {
		leafInsertAt(c, leaf, req.Key, req.Value)
	} else {
		right, div := splitLeafInsert(c, t.alloc, leaf, req.Key, req.Value)
		t.chainUp(c, path, idxs, 1, top, div, right)
	}
	for _, n := range locked {
		c.Write32(lockAddr(n), 0)
	}
	return fc.Response{Success: true}
}

// chainUp splits full inner nodes from level `from` up to (excluding)
// `top`, then inserts into the non-full path[top].
func (t *nmpTree) chainUp(c *machine.Ctx, path []uint32, idxs []int, from, top int, div, right uint32) {
	for lv := from; lv < top; lv++ {
		right, div = splitInnerInsert(c, t.alloc, path[lv], idxs[lv], div, right)
	}
	innerInsertAt(c, path[top], idxs[top], div, right)
}

// resume completes a pending insert whose host-side path is now locked
// (§3.4): every node on the NMP path is full, so the split chain reaches
// and splits the begin node, whose new sibling and dividing key are
// returned for the host to link. The parent sequence numbers of the begin
// node and its sibling are advanced to the value the host parent will hold
// after unlocking (offloaded# + 2; footnote 3).
func (t *nmpTree) resume(c *machine.Ctx, slot int) fc.Response {
	p, ok := t.pending[slot]
	if !ok {
		panic("btree: RESUME_INSERT with no pending state")
	}
	delete(t.pending, slot)
	right, div := splitLeafInsert(c, t.alloc, p.path[0], p.key, p.value)
	for lv := 1; lv < t.levels; lv++ {
		right, div = splitInnerInsert(c, t.alloc, p.path[lv], p.idxs[lv], div, right)
	}
	c.Write32(syncAddr(p.begin), p.offSeq+2)
	c.Write32(syncAddr(right), p.offSeq+2)
	for _, n := range p.path {
		c.Write32(lockAddr(n), 0)
	}
	return fc.Response{Success: true, Value: div, Ptr: right}
}

// unlockPending releases a pending insert's locks after the host failed to
// lock its side of the path; the host will retry from the root.
func (t *nmpTree) unlockPending(c *machine.Ctx, slot int) fc.Response {
	p, ok := t.pending[slot]
	if !ok {
		panic("btree: UNLOCK_PATH with no pending state")
	}
	delete(t.pending, slot)
	for _, n := range p.path {
		c.Write32(lockAddr(n), 0)
	}
	return fc.Response{Success: true}
}
