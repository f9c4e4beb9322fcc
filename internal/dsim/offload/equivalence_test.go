package offload_test

import (
	"testing"

	"hybrids/internal/dsim/btree"
	"hybrids/internal/dsim/kv"
	"hybrids/internal/dsim/skiplist"
	"hybrids/internal/hds"
	"hybrids/internal/sim/machine"
)

// Cross-structure equivalence: for the same operation streams, the
// blocking path (Apply) and the non-blocking path (ApplyBatch, any window
// depth) must converge to identical final contents on both hybrid
// structures. Streams use distinct keys per operation so the final state
// is completion-order-independent. The cross-stack (native vs simulated)
// half of this property is covered per registered engine by the
// conformance suite in internal/store.

func eqMachine() *machine.Machine {
	cfg := machine.Default()
	cfg.Mem.HostMemSize = 16 << 20
	cfg.Mem.NMPMemSize = 16 << 20
	cfg.Mem.L2Size = 64 << 10
	cfg.Mem.L1Size = 8 << 10
	return machine.New(cfg)
}

const (
	eqThreads   = 2
	eqPerThread = 120
	eqKeyMax    = 1 << 12
)

type eqPair struct{ k, v uint32 }

// eqData returns the initial contents (even keys) and per-thread op
// streams. Each stream position derives a unique index, and each index
// touches its own key: inserts use fresh odd keys, removes/updates/reads
// target distinct initial even keys.
func eqData() (pairs []eqPair, streams [][]kv.Op) {
	total := eqThreads * eqPerThread
	for i := 1; i <= total; i++ {
		pairs = append(pairs, eqPair{uint32(2 * i), uint32(2*i + 7)})
	}
	streams = make([][]kv.Op, eqThreads)
	for th := 0; th < eqThreads; th++ {
		for i := 0; i < eqPerThread; i++ {
			idx := th*eqPerThread + i
			even := uint32(2 * (idx + 1))
			odd := uint32(2*idx + 1)
			var op kv.Op
			switch i % 4 {
			case 0:
				op = kv.Op{Kind: hds.Insert, Key: odd, Value: odd * 3}
			case 1:
				op = kv.Op{Kind: hds.Remove, Key: even}
			case 2:
				op = kv.Op{Kind: hds.Update, Key: even, Value: even * 5}
			default:
				op = kv.Op{Kind: hds.Read, Key: even}
			}
			streams[th] = append(streams[th], op)
		}
	}
	return pairs, streams
}

func driveStreams(m *machine.Machine, streams [][]kv.Op, apply func(c *machine.Ctx, th int, ops []kv.Op)) {
	for th := range streams {
		th := th
		m.SpawnHost(th, "drv", func(c *machine.Ctx) { apply(c, th, streams[th]) })
	}
	m.Run()
}

func skiplistDump(t *testing.T, window int, async bool) []skiplist.KV {
	t.Helper()
	pairs, streams := eqData()
	m := eqMachine()
	s := skiplist.NewHybrid(m, skiplist.HybridConfig{
		Levels: 9, NMPLevels: 4, KeyMax: eqKeyMax, Window: window, Seed: 7,
	})
	skp := make([]skiplist.KV, len(pairs))
	for i, p := range pairs {
		skp[i] = skiplist.KV{Key: p.k, Value: p.v}
	}
	s.Build(skp)
	s.Start()
	driveStreams(m, streams, func(c *machine.Ctx, th int, ops []kv.Op) {
		if async {
			s.ApplyBatch(c, th, ops)
		} else {
			for _, op := range ops {
				s.Apply(c, th, op)
			}
		}
	})
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("skiplist invariants (window=%d async=%v): %v", window, async, err)
	}
	return s.Dump()
}

func btreeDump(t *testing.T, window int, async bool) []btree.KV {
	t.Helper()
	pairs, streams := eqData()
	m := eqMachine()
	s := btree.NewHybrid(m, btree.HybridBTreeConfig{NMPLevels: 2, Window: window})
	btp := make([]btree.KV, len(pairs))
	for i, p := range pairs {
		btp[i] = btree.KV{Key: p.k, Value: p.v}
	}
	s.Build(btp)
	s.Start()
	driveStreams(m, streams, func(c *machine.Ctx, th int, ops []kv.Op) {
		if async {
			s.ApplyBatch(c, th, ops)
		} else {
			for _, op := range ops {
				s.Apply(c, th, op)
			}
		}
	})
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("btree invariants (window=%d async=%v): %v", window, async, err)
	}
	return s.Dump()
}

func TestSkiplistBlockingNonblockingEquivalent(t *testing.T) {
	want := skiplistDump(t, 1, false)
	if len(want) == 0 {
		t.Fatal("empty blocking dump")
	}
	for _, w := range []int{2, 4} {
		got := skiplistDump(t, w, true)
		if len(got) != len(want) {
			t.Fatalf("window %d: %d pairs, want %d", w, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("window %d: pair %d = %+v, want %+v", w, i, got[i], want[i])
			}
		}
	}
}

func TestBTreeBlockingNonblockingEquivalent(t *testing.T) {
	want := btreeDump(t, 1, false)
	if len(want) == 0 {
		t.Fatal("empty blocking dump")
	}
	for _, w := range []int{2, 4} {
		got := btreeDump(t, w, true)
		if len(got) != len(want) {
			t.Fatalf("window %d: %d pairs, want %d", w, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("window %d: pair %d = %+v, want %+v", w, i, got[i], want[i])
			}
		}
	}
}
