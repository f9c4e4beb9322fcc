package btree

import (
	"hybrids/internal/dsim/kv"
	"hybrids/internal/hds"
	"hybrids/internal/sim/machine"
)

// HostOnly is the paper's non-NMP baseline B+ tree: the whole tree lives
// in host main memory and host threads synchronize with sequence locks,
// exactly like the host-managed portion of the hybrid tree (§5.1: "the
// host-only B+ tree uses sequence locks for concurrency").
type HostOnly struct {
	m    *machine.Machine
	core *hostCore
}

// NewHostOnly creates an empty tree holder; call Build before use.
func NewHostOnly(m *machine.Machine) *HostOnly {
	return &HostOnly{m: m, core: newHostCore(m, 0)}
}

// Build bulk-loads pairs, buildFill entries per node.
func (t *HostOnly) Build(pairs []KV) {
	root, height := bulkBuild(t.m.Mem.RAM, kv.SortedUnique(pairs), hostOnlyHooks(t.m.Mem.HostAlloc))
	t.core.setRoot(root, height)
}

// Apply executes op as host thread: the read value (Read) and success.
func (t *HostOnly) Apply(c *machine.Ctx, thread int, op kv.Op) (uint32, bool) {
	for attempt := uint64(0); ; attempt++ {
		c.Step(attempt * 8) // deterministic backoff between retries
		p, ok := t.core.descend(c, op.Key)
		if !ok {
			continue
		}
		leaf := p.nodes[0]
		switch op.Kind {
		case hds.Read:
			slots := metaSlots(c.Read32(metaAddr(leaf)))
			i := findLeafSlot(c, leaf, slots, op.Key)
			var v uint32
			if i >= 0 {
				v = c.Read32(ptrAddr(leaf, i))
			}
			// Seqlock read validation: retry if the leaf changed.
			if c.Read32(syncAddr(leaf)) != p.seqs[0] {
				continue
			}
			return v, i >= 0
		case hds.Update, hds.Remove:
			// Lock the leaf (odd sequence), change it in place, unlock.
			if !c.CAS32(syncAddr(leaf), p.seqs[0], p.seqs[0]+1) {
				continue
			}
			slots := metaSlots(c.Read32(metaAddr(leaf)))
			i := findLeafSlot(c, leaf, slots, op.Key)
			switch {
			case i < 0: // absent: nothing to change
			case op.Kind == hds.Update:
				c.Write32(ptrAddr(leaf, i), op.Value)
			default:
				for j := i; j < slots-1; j++ {
					c.Write32(keyAddr(leaf, j), c.Read32(keyAddr(leaf, j+1)))
					c.Write32(ptrAddr(leaf, j), c.Read32(ptrAddr(leaf, j+1)))
				}
				c.Write32(metaAddr(leaf), packMeta(0, slots-1))
			}
			c.AtomicAdd32(syncAddr(leaf), 1)
			return 0, i >= 0
		case hds.Insert:
			// Presence check under seqlock validation, then lock the
			// path and perform the (possibly splitting) insert.
			slots := metaSlots(c.Read32(metaAddr(leaf)))
			present := findLeafSlot(c, leaf, slots, op.Key) >= 0
			if c.Read32(syncAddr(leaf)) != p.seqs[0] {
				continue
			}
			if present {
				return 0, false
			}
			ls, top, ok := t.core.lockPath(c, &p)
			if !ok {
				continue
			}
			if top == 0 {
				leafInsertAt(c, leaf, op.Key, op.Value)
			} else {
				right, div := splitLeafInsert(c, t.m.Mem.HostAlloc, leaf, op.Key, op.Value)
				ls.nodes = append(ls.nodes, right)
				t.core.insertChain(c, &p, 1, div, right, &ls)
			}
			t.core.unlock(c, ls)
			return 0, true
		default:
			panic("btree: unknown op kind")
		}
	}
}

// Dump returns the live key-value pairs in key order (untimed).
func (t *HostOnly) Dump() []KV { return dumpTree(t.m, t.core, nil, 0) }

// CheckInvariants validates structural invariants (untimed).
func (t *HostOnly) CheckInvariants() error { return checkTree(t.m, t.core, nil, 0) }
