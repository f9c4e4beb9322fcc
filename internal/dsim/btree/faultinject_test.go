package btree

import (
	"slices"
	"testing"

	"hybrids/internal/dsim/fc"
	"hybrids/internal/dsim/kv"
	"hybrids/internal/hds"
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

// nmpPath descends untimed from begin toward key and returns the NMP
// path indexed by level: the leaf first, begin last.
func nmpPath(ram *memsys.RAM, begin, key uint32) []uint32 {
	path := []uint32{begin}
	for curr := begin; metaLevel(ram.Load32(metaAddr(curr))) > 0; {
		slots := metaSlots(ram.Load32(metaAddr(curr)))
		i := 0
		for i < slots-1 && key > ram.Load32(keyAddr(curr, i)) {
			i++
		}
		curr = ram.Load32(ptrAddr(curr, i))
		path = append([]uint32{curr}, path...)
	}
	return path
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
		v, ok := h.Apply(c, 0, kv.Op{Kind: hds.Read, Key: key})
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
		if _, ok := h.Apply(c, 0, kv.Op{Kind: hds.Read, Key: key}); !ok {
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
	leaf := nmpPath(ram, begin, key)[0]
	ram.Store32(lockAddr(leaf), 1)

	var removed bool
	m.SpawnHost(0, "remover", func(c *machine.Ctx) {
		_, removed = h.Apply(c, 0, kv.Op{Kind: hds.Remove, Key: key})
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

// TestHybridFailedLockPathUnlocksAndRetries drives an insert whose NMP
// path is full, so the combiner locks it and answers LOCK_PATH, and makes
// the host's lockPath fail: a second actor moves the recorded host
// parent's seqnum by 2 between the descent and the response, as a sibling
// split would. Finish must send UNLOCK_PATH, the combiner must release
// every NMP lock on the path, and the insert must restart from the root
// and be applied exactly once.
func TestHybridFailedLockPathUnlocksAndRetries(t *testing.T) {
	pairs := initialPairs(2000)
	m := testMachine()
	h := NewHybrid(m, HybridBTreeConfig{NMPLevels: testNMPLevels, Window: 1})
	h.Build(pairs)
	// Start each combiner with a handler that records the requests the
	// target insert sends.
	var armed bool
	var sent []fc.OpType
	for p, tree := range h.trees {
		serve := tree.handler()
		h.rt.Start(p, func(c *machine.Ctx, slot int, req fc.Request) fc.Response {
			if armed {
				sent = append(sent, req.Op)
			}
			return serve(c, slot, req)
		})
	}

	ram := m.Mem.RAM
	want := make(map[uint32]uint32, len(pairs))
	for _, p := range pairs {
		want[p.Key] = p.Value
	}
	full := func(path []uint32) bool {
		for lv, n := range path {
			maxSlots := InnerMax
			if lv == 0 {
				maxSlots = LeafMax
			}
			if metaSlots(ram.Load32(metaAddr(n))) < maxSlots {
				return false
			}
		}
		return true
	}
	// Ascending inserts above every initial key fill the rightmost NMP
	// path; the first key whose path is full is the target.
	var path []uint32
	var parent uint32
	var done, moved bool
	key := uint32(testKeyMax/2 + 1)
	m.SpawnHost(0, "driver", func(c *machine.Ctx) {
		defer func() { done = true }()
		for ; ; key++ {
			var begin uint32
			begin, parent = boundaryTarget(m, h, key)
			if path = nmpPath(ram, begin, key); full(path) {
				break
			}
			if _, ok := h.Apply(c, 0, kv.Op{Kind: hds.Insert, Key: key, Value: key}); !ok {
				t.Errorf("filling insert %d failed", key)
				return
			}
			want[key] = key
		}
		armed = true
		if _, ok := h.Apply(c, 0, kv.Op{Kind: hds.Insert, Key: key, Value: 77}); !ok {
			t.Errorf("insert %d into a full NMP path failed", key)
		}
		armed = false
		want[key] = 77
	})
	m.SpawnHost(1, "mover", func(c *machine.Ctx) {
		// The combiner holds the leaf's lock from its LOCK_PATH answer
		// until RESUME_INSERT or UNLOCK_PATH.
		for !done && (!armed || ram.Load32(lockAddr(path[0])) == 0) {
			c.Step(1)
		}
		if done {
			return
		}
		ram.Store32(syncAddr(parent), ram.Load32(syncAddr(parent))+2)
		moved = true
		// An NMP lock left held would make the insert retry forever.
		for end := c.Now() + 1_000_000; !done; c.Step(64) {
			if c.Now() > end {
				panic("the insert still retries 10^6 cycles after its lockPath failed")
			}
		}
	})
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatal(r)
			}
		}()
		m.Run()
	}()

	if !moved {
		t.Fatal("the target insert never locked its NMP path")
	}
	wantSent := []fc.OpType{fc.OpInsert, fc.OpUnlockPath, fc.OpInsert, fc.OpResumeInsert}
	if !slices.Equal(sent, wantSent) {
		t.Fatalf("target insert sent %v, want %v", sent, wantSent)
	}
	begin, _ := boundaryTarget(m, h, key)
	for _, n := range append(path, nmpPath(ram, begin, key)...) {
		if l := ram.Load32(lockAddr(n)); l != 0 {
			t.Errorf("NMP node %#x still locked (%d)", n, l)
		}
	}
	for p, tree := range h.trees {
		if len(tree.pending) != 0 {
			t.Errorf("partition %d: %d pending inserts left", p, len(tree.pending))
		}
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	dump := h.Dump()
	if len(dump) != len(want) {
		t.Fatalf("dump holds %d pairs, want %d", len(dump), len(want))
	}
	for _, p := range dump {
		if v, ok := want[p.Key]; !ok || v != p.Value {
			t.Fatalf("dump pair (%d,%d), want (%d,%v)", p.Key, p.Value, v, ok)
		}
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
			{Kind: hds.Read, Key: pairs[100].Key},
			{Kind: hds.Insert, Key: fresh, Value: 77},
			{Kind: hds.Read, Key: pairs[900].Key},
			{Kind: hds.Remove, Key: pairs[1500].Key},
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
