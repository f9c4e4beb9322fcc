package btree

import (
	"hybrids/internal/dsim/fc"
	"hybrids/internal/dsim/kv"
	"hybrids/internal/dsim/offload"
	"hybrids/internal/hds"
	"hybrids/internal/sim/machine"
)

// Hybrid is the paper's hybrid B+ tree (§3.4): the top levels form a
// sequence-lock tree in host memory; the bottom NMPLevels levels live in
// NMP partitions served by flat-combining NMP cores. Host-NMP boundary
// synchronization uses the parent-sequence-number protocol; inserts whose
// splits cross the boundary run the LOCK_PATH / RESUME_INSERT exchange.
type Hybrid struct {
	m     *machine.Machine
	host  *hostCore
	trees []*nmpTree
	rt    *offload.Runtime

	nmpLevels int // bottom tree levels NMP-side
}

// HybridBTreeConfig parameterizes the hybrid B+ tree.
type HybridBTreeConfig struct {
	// NMPLevels bottom tree levels are pushed to NMP partitions; the
	// host-managed remainder is sized to fit the LLC. The tree's total
	// height follows from fan-out, so only the NMP side is sized here.
	NMPLevels int
	// Window is the in-flight NMP call budget per host thread for
	// ApplyBatch (1 = blocking behaviour).
	Window int
}

// NewHybrid creates the structure; Build must run before Start.
func NewHybrid(m *machine.Machine, cfg HybridBTreeConfig) *Hybrid {
	if cfg.NMPLevels <= 0 {
		panic("btree: split must place >= 1 NMP level")
	}
	t := &Hybrid{
		m:         m,
		rt:        offload.New(m, cfg.Window),
		nmpLevels: cfg.NMPLevels,
	}
	t.host = newHostCore(m, cfg.NMPLevels)
	for p := 0; p < m.Cfg.Mem.NMPVaults; p++ {
		t.trees = append(t.trees, newNMPTree(cfg.NMPLevels, m.Mem.NMPAlloc[p]))
	}
	return t
}

// Build bulk-loads pairs (§3.4: "the initial B+ tree is constructed over
// an existing database table"), pushing the bottom NMPLevels levels down
// into partition memory and tagging boundary pointers with partition IDs.
// It touches only simulated RAM and the bump allocators, so a built
// machine is fully described by its memsys.Image.
func (t *Hybrid) Build(pairs []KV) {
	uniq := kv.SortedUnique(pairs)
	hooks := hybridHooks(t.m.Mem.HostAlloc, t.m.Mem.NMPAlloc, t.nmpLevels, len(uniq))
	root, height := bulkBuild(t.m.Mem.RAM, uniq, hooks)
	t.host.setRoot(root, height)
}

// Start spawns the NMP combiner daemons. Call once before Machine.Run.
func (t *Hybrid) Start() {
	for p := range t.trees {
		t.rt.Start(p, t.trees[p].handler())
	}
}

// route performs the host-side traversal and derives the offload target:
// partition, begin-NMP-traversal node and the offloaded parent sequence
// number (Listing 4 lines 4-23).
func (t *Hybrid) route(c *machine.Ctx, key uint32) (p pathInfo, part int, begin uint32, ok bool) {
	p, ok = t.host.descend(c, key)
	if !ok {
		return p, 0, 0, false
	}
	child, _, ok := t.host.childOf(c, &p, key)
	if !ok {
		return p, 0, 0, false
	}
	begin, part = untag(child)
	return p, part, begin, true
}

// btState tracks one operation's host-side path, locked-path state and
// protocol phase across the offload runtime's retry loop.
type btState struct {
	p    pathInfo
	part int
	// phase: 0 = initial request in flight, 1 = RESUME_INSERT in flight
	// (host locks held), 2 = UNLOCK_PATH in flight (restart after ack).
	phase int
	ls    lockSet
}

// btAdapter plugs the hybrid B+ tree protocol (§3.4) — parent sequence
// numbers plus the LOCK_PATH / RESUME_INSERT exchange — into the shared
// offload runtime.
type btAdapter struct{ t *Hybrid }

func (ad btAdapter) Begin(c *machine.Ctx, op kv.Op) btState { return btState{} }

func (ad btAdapter) Prepare(c *machine.Ctx, op kv.Op, st *btState, attempt int) (fc.Request, int, offload.PrepareCtl, bool) {
	t := ad.t
	// Linear backoff after a failed optimistic descend (a Step(0) yield on
	// the first attempt keeps same-cycle actors in FIFO order).
	c.Step(uint64(attempt) * 8)
	p, part, begin, ok := t.route(c, op.Key)
	if !ok {
		return fc.Request{}, 0, offload.PrepareRestart, false
	}
	st.p, st.part, st.phase = p, part, 0
	req := fc.Request{Op: fc.OpFor(op.Kind), Key: op.Key, Value: op.Value, NMPPtr: begin, Aux: p.seqs[t.nmpLevels]}
	return req, part, offload.PrepareOffload, false
}

func (ad btAdapter) Finish(c *machine.Ctx, op kv.Op, st *btState, resp fc.Response) offload.Verdict {
	t := ad.t
	switch st.phase {
	case 1: // RESUME_INSERT completed
		if !resp.Success {
			panic("btree: RESUME_INSERT failed")
		}
		t.host.insertChain(c, &st.p, t.nmpLevels, resp.Value, taggedPtr(resp.Ptr, st.part), &st.ls)
		t.host.unlock(c, st.ls)
		return offload.Verdict{Kind: offload.OpDone, OK: true, Gate: offload.GateRelease}
	case 2: // UNLOCK_PATH acknowledged: restart the whole insert
		return offload.Verdict{Kind: offload.OpRetry}
	}
	if resp.Retry {
		return offload.Verdict{Kind: offload.OpRetry}
	}
	if op.Kind == hds.Insert && resp.LockPath {
		// LOCK_PATH: lock the host-side path and resume the insert
		// (Listing 4 lines 26-43).
		ls, _, ok := t.host.lockPath(c, &st.p)
		if !ok {
			st.phase = 2
			return offload.Verdict{Kind: offload.OpFollowUp, Next: fc.Request{Op: fc.OpUnlockPath}}
		}
		st.ls = ls
		st.phase = 1
		return offload.Verdict{
			Kind: offload.OpFollowUp,
			Next: fc.Request{Op: fc.OpResumeInsert},
			Gate: offload.GateAcquire,
		}
	}
	return offload.Verdict{Kind: offload.OpDone, OK: resp.Success, Value: uint64(resp.Value)}
}

// Apply executes op with one blocking NMP call (§3.2).
func (t *Hybrid) Apply(c *machine.Ctx, thread int, op kv.Op) (uint32, bool) {
	return offload.Apply(t.rt, btAdapter{t}, c, thread, op)
}

// ApplyBatch executes ops with non-blocking NMP calls (§3.5).
// While any insert of this thread holds host-side locks, the runtime's
// deferral gate pauses new traversals: a descend could otherwise spin on
// the thread's own locks, which would deadlock a single actor.
func (t *Hybrid) ApplyBatch(c *machine.Ctx, thread int, ops []kv.Op) int {
	return offload.ApplyBatch(t.rt, btAdapter{t}, c, thread, ops)
}

// Dump returns live pairs in key order (untimed).
func (t *Hybrid) Dump() []KV { return dumpTree(t.m, t.host, t.trees, t.nmpLevels) }

// CheckInvariants validates host and NMP structural invariants, partition
// placement, and boundary-pointer tags (untimed).
func (t *Hybrid) CheckInvariants() error { return checkTree(t.m, t.host, t.trees, t.nmpLevels) }
