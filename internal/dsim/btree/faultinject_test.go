package btree

import (
	"slices"
	"testing"

	"hybrids/internal/dsim/kv"
	"hybrids/internal/sim/machine"
	"hybrids/internal/sim/memsys"
)

// White-box tests for the §3.4 boundary-synchronization machinery,
// injecting the exact states the protocol must detect.

// boundaryTarget descends the built tree untimed and returns a leaf key,
// its begin-NMP-traversal node, and the host parent for that key.
func boundaryTarget(m *machine.Machine, h *Hybrid, key uint32) (begin, parent uint32) {
	ram := m.Mem.RAM
	root, height := h.host.rootInfo(ram)
	curr := root
	for level := height - 1; level > h.nmpLevels; level-- {
		slots := metaSlots(ram.Load32(metaAddr(curr)))
		i := 0
		for i < slots-1 && key > ram.Load32(keyAddr(curr, i)) {
			i++
		}
		curr = ram.Load32(ptrAddr(curr, i))
	}
	slots := metaSlots(ram.Load32(metaAddr(curr)))
	i := 0
	for i < slots-1 && key > ram.Load32(keyAddr(curr, i)) {
		i++
	}
	child, _ := untag(ram.Load32(ptrAddr(curr, i)))
	return child, curr
}

func TestHybridParentSeqnumAheadForcesRetryThenSucceeds(t *testing.T) {
	pairs := initialPairs(2000)
	m := testMachine()
	h := NewHybrid(m, HybridBTreeConfig{NMPLevels: testNMPLevels, Window: 1})
	h.Build(pairs)
	h.Start()

	key := pairs[500].Key
	begin, parent := boundaryTarget(m, h, key)
	ram := m.Mem.RAM
	// Simulate "begin node was split by an operation the combiner served
	// earlier": its recorded parent# and the host parent's seqnum are
	// both two ahead of what an old traversal would have recorded. A
	// fresh descend reads the new (even) seqnum, so after one retry the
	// operation proceeds.
	ram.Store32(syncAddr(begin), ram.Load32(syncAddr(begin))+2)
	ram.Store32(syncAddr(parent), ram.Load32(syncAddr(parent))+2)

	m.SpawnHost(0, "driver", func(c *machine.Ctx) {
		v, ok := h.Apply(c, 0, kv.Op{Kind: kv.Read, Key: key})
		if !ok || v != pairs[500].Value {
			t.Errorf("read after parent split = (%d,%v), want (%d,true)", v, ok, pairs[500].Value)
		}
	})
	m.Run()
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHybridSiblingSplitRefreshesRecordedParentSeqnum(t *testing.T) {
	pairs := initialPairs(2000)
	m := testMachine()
	h := NewHybrid(m, HybridBTreeConfig{NMPLevels: testNMPLevels, Window: 1})
	h.Build(pairs)
	h.Start()

	key := pairs[700].Key
	begin, parent := boundaryTarget(m, h, key)
	ram := m.Mem.RAM
	// Simulate "the parent was modified because a SIBLING child split":
	// the host parent's seqnum moved ahead while begin's recorded
	// parent# is stale (Listing 5 lines 5-8). The combiner must refresh
	// the recorded number and serve the operation without a retry.
	ram.Store32(syncAddr(parent), ram.Load32(syncAddr(parent))+2)
	wantSeq := ram.Load32(syncAddr(parent))

	m.SpawnHost(0, "driver", func(c *machine.Ctx) {
		if _, ok := h.Apply(c, 0, kv.Op{Kind: kv.Read, Key: key}); !ok {
			t.Error("read failed after sibling split")
		}
	})
	m.Run()
	if got := ram.Load32(syncAddr(begin)); got != wantSeq {
		t.Fatalf("recorded parent# = %d, want refreshed %d", got, wantSeq)
	}
}

func TestHybridRemoveRetriesWhileLeafLocked(t *testing.T) {
	pairs := initialPairs(2000)
	m := testMachine()
	h := NewHybrid(m, HybridBTreeConfig{NMPLevels: testNMPLevels, Window: 1})
	h.Build(pairs)
	h.Start()

	key := pairs[300].Key
	// Find the leaf holding key and lock it, as a pending LOCK_PATH
	// insert would (§3.4: removes must not change slot counts under a
	// prepared split).
	ram := m.Mem.RAM
	begin, _ := boundaryTarget(m, h, key)
	leaf := begin
	for metaLevel(ram.Load32(metaAddr(leaf))) > 0 {
		slots := metaSlots(ram.Load32(metaAddr(leaf)))
		i := 0
		for i < slots-1 && key > ram.Load32(keyAddr(leaf, i)) {
			i++
		}
		leaf = ram.Load32(ptrAddr(leaf, i))
	}
	ram.Store32(lockAddr(leaf), 1)

	var removed bool
	m.SpawnHost(0, "remover", func(c *machine.Ctx) {
		_, removed = h.Apply(c, 0, kv.Op{Kind: kv.Remove, Key: key})
	})
	// A second actor releases the lock after a while, as the insert
	// holding it would on RESUME/UNLOCK.
	m.SpawnHost(1, "unlocker", func(c *machine.Ctx) {
		c.Step(20000)
		ram.Store32(lockAddr(leaf), 0)
	})
	m.Run()
	if !removed {
		t.Fatal("remove did not succeed after the lock was released")
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHybridBoundaryPointerTagsMatchPartitions(t *testing.T) {
	pairs := initialPairs(3000)
	m := testMachine()
	h := NewHybrid(m, HybridBTreeConfig{NMPLevels: testNMPLevels, Window: 1})
	h.Build(pairs)
	ram := m.Mem.RAM
	root, height := h.host.rootInfo(ram)
	var walk func(node uint32, level int)
	checked := 0
	walk = func(node uint32, level int) {
		if level < h.nmpLevels {
			return
		}
		slots := metaSlots(ram.Load32(metaAddr(node)))
		for i := 0; i < slots; i++ {
			ptr := ram.Load32(ptrAddr(node, i))
			if level == h.nmpLevels {
				n, tag := untag(ptr)
				owner, ok := m.Mem.IsNMPMem(memsys.Addr(n))
				if !ok || owner != tag {
					t.Fatalf("boundary pointer tag %d, owner %d (ok=%v)", tag, owner, ok)
				}
				checked++
				continue
			}
			walk(ptr, level-1)
		}
	}
	walk(root, height-1)
	if checked == 0 {
		t.Fatal("no boundary pointers checked")
	}
}

// TestHybridBackoffWaitsOutLockedHeader holds the tree header's seqnum odd,
// as a root split in progress would, from a second actor that releases it
// after a fixed delay. Every host descend fails meanwhile, so Prepare
// restarts with growing attempts and linear backoff — a path no experiment
// reaches. Both faces of the offload loop, the blocking Apply (window 1)
// and a window-4 ApplyBatch, must complete every operation once the header
// is released.
func TestHybridBackoffWaitsOutLockedHeader(t *testing.T) {
	const hold = 20_000
	for _, window := range []int{1, 4} {
		pairs := initialPairs(2000)
		m := testMachine()
		h := NewHybrid(m, HybridBTreeConfig{NMPLevels: testNMPLevels, Window: window})
		h.Build(pairs)
		h.Start()
		fresh := uint32(testKeyMax/2 + 7) // above every initial key
		ops := []kv.Op{
			{Kind: kv.Read, Key: pairs[100].Key},
			{Kind: kv.Insert, Key: fresh, Value: 77},
			{Kind: kv.Read, Key: pairs[900].Key},
			{Kind: kv.Remove, Key: pairs[1500].Key},
		}
		ram := m.Mem.RAM
		seq := memsys.Addr(h.host.header) + hdrSeq
		ram.Store32(seq, ram.Load32(seq)+1)

		var succeeded int
		var finished uint64
		m.SpawnHost(0, "driver", func(c *machine.Ctx) {
			if window == 1 {
				for _, op := range ops {
					if _, ok := h.Apply(c, 0, op); ok {
						succeeded++
					}
				}
			} else {
				succeeded = h.ApplyBatch(c, 0, ops)
			}
			finished = c.Now()
		})
		m.SpawnHost(1, "releaser", func(c *machine.Ctx) {
			c.Step(hold)
			ram.Store32(seq, ram.Load32(seq)+1)
		})
		m.Run()
		if succeeded != len(ops) {
			t.Errorf("window %d: %d of %d operations succeeded", window, succeeded, len(ops))
		}
		if finished < hold {
			t.Errorf("window %d: finished at cycle %d, before the header was released at %d", window, finished, hold)
		}
		dump := h.Dump()
		if i := slices.IndexFunc(dump, func(p KV) bool { return p.Key == fresh }); i < 0 || dump[i].Value != 77 {
			t.Errorf("window %d: inserted key %d missing from the dump", window, fresh)
		}
		if err := h.CheckInvariants(); err != nil {
			t.Fatalf("window %d: %v", window, err)
		}
	}
}
