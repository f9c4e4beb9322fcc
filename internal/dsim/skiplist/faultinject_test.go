package skiplist

import (
	"testing"

	"hybrids/internal/dsim/kv"
	"hybrids/internal/hds"
	"hybrids/internal/sim/machine"
)

// These white-box tests force the cross-boundary race windows of §3.3 that
// are hard to hit on demand with real interleavings: a begin-NMP-traversal
// node that is logically deleted between the host traversal and the
// combiner's service.

// staleShortcuts counts live host nodes whose NMP counterpart is logically
// deleted (transient states left by racing insert/remove pairs).
func staleShortcuts(s *Hybrid) int {
	ram := s.m.Mem.RAM
	count := 0
	n := ref(ram.Load32(nextAddr(s.host.head, 0)))
	for n != s.host.tail {
		if !marked(ram.Load32(nextAddr(n, 0))) {
			nmp := ram.Load32(auxAddr(n))
			if nmp != 0 && ram.Load32(flagsAddr(nmp))&flagDeleted != 0 {
				count++
			}
		}
		n = ref(ram.Load32(nextAddr(n, 0)))
	}
	return count
}

// markNMPCounterpart replicates what a concurrently-served NMP remove does
// to the NMP counterpart of a host node: flag it logically deleted, then
// physically unlink it from its partition list — while the host node (the
// now-stale shortcut) stays linked.
func markNMPCounterpart(m *machine.Machine, s *Hybrid, key uint32) (host, nmp uint32) {
	ram := m.Mem.RAM
	n := ref(ram.Load32(nextAddr(s.host.head, 0)))
	for n != s.host.tail {
		if ram.Load32(keyAddr(n)) == key {
			host, nmp = n, ram.Load32(auxAddr(n))
			break
		}
		n = ref(ram.Load32(nextAddr(n, 0)))
	}
	if nmp == 0 {
		return 0, 0
	}
	ram.Store32(flagsAddr(nmp), flagDeleted)
	list := s.lists[s.part.Part(key)]
	h := int(ram.Load32(heightAddr(nmp)))
	for l := 0; l < h; l++ {
		prev := list.head
		for {
			next := ram.Load32(nextAddr(prev, l))
			if next == 0 {
				break
			}
			if next == nmp {
				ram.Store32(nextAddr(prev, l), ram.Load32(nextAddr(nmp, l)))
				break
			}
			prev = next
		}
	}
	return host, nmp
}

// tallKeys returns keys that have host-side nodes, in key order.
func tallKeys(m *machine.Machine, s *Hybrid) []uint32 {
	ram := m.Mem.RAM
	var out []uint32
	n := ref(ram.Load32(nextAddr(s.host.head, 0)))
	for n != s.host.tail {
		out = append(out, ram.Load32(keyAddr(n)))
		n = ref(ram.Load32(nextAddr(n, 0)))
	}
	return out
}

func TestHybridRetryOnDeletedBeginNode(t *testing.T) {
	pairs := initialPairs(testN)
	m := testMachine()
	s := NewHybrid(m, HybridConfig{Levels: testLevels, NMPLevels: testNMPLevels, KeyMax: testKeyMax, Window: 1, Seed: 7})
	s.Build(pairs)
	s.Start()

	talls := tallKeys(m, s)
	if len(talls) < 2 {
		t.Skip("not enough tall nodes")
	}
	// Poison a host node's shortcut, then read a key just above it: the
	// host traversal will use the poisoned node as its begin pointer,
	// the combiner must answer Retry, and the operation must still
	// complete correctly via cleanup + retry.
	victim := talls[len(talls)/2]
	markNMPCounterpart(m, s, victim)

	// Find a real key directly after the victim (same partition bias is
	// fine; if the next key routes elsewhere the test still passes but
	// exercises less).
	var probe uint32
	for _, p := range pairs {
		if p.Key > victim && (probe == 0 || p.Key < probe) {
			probe = p.Key
		}
	}
	var wantVal uint32
	for _, p := range pairs {
		if p.Key == probe {
			wantVal = p.Value
		}
	}

	m.SpawnHost(0, "driver", func(c *machine.Ctx) {
		v, ok := s.Apply(c, 0, kv.Op{Kind: hds.Read, Key: probe})
		if !ok || v != wantVal {
			t.Errorf("read through poisoned shortcut: (%d,%v), want (%d,true)", v, ok, wantVal)
		}
		// The poisoned key itself must now read as absent (its NMP node
		// is logically deleted) without hanging.
		if _, ok := s.Apply(c, 0, kv.Op{Kind: hds.Read, Key: victim}); ok {
			t.Error("logically deleted key still readable")
		}
		// And re-inserting it must succeed.
		if _, ok := s.Apply(c, 0, kv.Op{Kind: hds.Insert, Key: victim, Value: 777}); !ok {
			t.Error("re-insert over deleted NMP node failed")
		}
		if v, ok := s.Apply(c, 0, kv.Op{Kind: hds.Read, Key: victim}); !ok || v != 777 {
			t.Errorf("read after re-insert = (%d,%v)", v, ok)
		}
	})
	m.Run()
}

func TestHybridStaleShortcutCleanupUnlinksHostNode(t *testing.T) {
	pairs := initialPairs(testN)
	m := testMachine()
	s := NewHybrid(m, HybridConfig{Levels: testLevels, NMPLevels: testNMPLevels, KeyMax: testKeyMax, Window: 1, Seed: 7})
	s.Build(pairs)
	s.Start()

	talls := tallKeys(m, s)
	victim := talls[len(talls)/3]
	host, _ := markNMPCounterpart(m, s, victim)
	if host == 0 {
		t.Fatal("victim host node not found")
	}
	before := staleShortcuts(s)
	if before == 0 {
		t.Fatal("poisoning did not create a stale shortcut")
	}

	var probe uint32
	for _, p := range pairs {
		if p.Key > victim && (probe == 0 || p.Key < probe) {
			probe = p.Key
		}
	}
	m.SpawnHost(0, "driver", func(c *machine.Ctx) {
		// Operations that route through the stale shortcut trigger
		// Retry + cleanup; afterwards the stale host node must be gone
		// (marked) so later traversals no longer use it.
		for i := 0; i < 3; i++ {
			s.Apply(c, 0, kv.Op{Kind: hds.Read, Key: probe})
		}
	})
	m.Run()
	if after := staleShortcuts(s); after >= before {
		t.Fatalf("stale shortcuts not cleaned: %d -> %d", before, after)
	}
}

// TestHybridStaleShortcutCleanupNonBlocking drives the same poisoned-
// shortcut race through ApplyBatch: the offload runtime's reissue path
// must run the adapter's cleanup before retrying, and every windowed
// operation must still complete correctly.
func TestHybridStaleShortcutCleanupNonBlocking(t *testing.T) {
	pairs := initialPairs(testN)
	m := testMachine()
	s := NewHybrid(m, HybridConfig{Levels: testLevels, NMPLevels: testNMPLevels, KeyMax: testKeyMax, Window: 4, Seed: 7})
	s.Build(pairs)
	s.Start()

	talls := tallKeys(m, s)
	if len(talls) < 2 {
		t.Skip("not enough tall nodes")
	}
	victim := talls[len(talls)/3]
	if host, _ := markNMPCounterpart(m, s, victim); host == 0 {
		t.Fatal("victim host node not found")
	}
	before := staleShortcuts(s)
	if before == 0 {
		t.Fatal("poisoning did not create a stale shortcut")
	}

	var probe uint32
	var wantVal uint32
	for _, p := range pairs {
		if p.Key > victim && (probe == 0 || p.Key < probe) {
			probe, wantVal = p.Key, p.Value
		}
	}
	ops := []kv.Op{
		{Kind: hds.Read, Key: probe},
		{Kind: hds.Read, Key: victim}, // logically deleted: must miss, not hang
		{Kind: hds.Read, Key: probe},
		{Kind: hds.Read, Key: probe},
	}
	var succeeded int
	var checkVal uint32
	var checkOK bool
	m.SpawnHost(0, "driver", func(c *machine.Ctx) {
		succeeded = s.ApplyBatch(c, 0, ops)
		// Post-cleanup blocking read verifies the probe key is intact.
		checkVal, checkOK = s.Apply(c, 0, kv.Op{Kind: hds.Read, Key: probe})
	})
	m.Run()
	if succeeded != len(ops)-1 {
		t.Fatalf("succeeded = %d, want %d (deleted key must miss)", succeeded, len(ops)-1)
	}
	if after := staleShortcuts(s); after >= before {
		t.Fatalf("stale shortcuts not cleaned via batch path: %d -> %d", before, after)
	}
	if !checkOK || checkVal != wantVal {
		t.Fatalf("probe key after cleanup = (%d,%v), want (%d,true)", checkVal, checkOK, wantVal)
	}
}
