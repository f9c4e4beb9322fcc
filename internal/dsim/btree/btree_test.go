package btree

import (
	"fmt"
	"sort"
	"testing"

	"hybrids/internal/dsim/kv"
	"hybrids/internal/hds"
	"hybrids/internal/prng"
	"hybrids/internal/sim/machine"
)

const (
	testKeyMax    = 1 << 24
	testN         = 3000
	testNMPLevels = 2
)

func testMachine() *machine.Machine {
	cfg := machine.Default()
	cfg.Mem.HostMemSize = 32 << 20
	cfg.Mem.NMPMemSize = 32 << 20
	cfg.Mem.L2Size = 128 << 10
	cfg.Mem.L1Size = 8 << 10
	return machine.New(cfg)
}

func initialPairs(n int) []KV {
	rng := prng.New(54321)
	seen := map[uint32]bool{}
	var out []KV
	for len(out) < n {
		k := rng.Uint32()%(testKeyMax/2-1) + 1
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, KV{Key: k, Value: k ^ 0xa5a5a5a5})
	}
	return out
}

type oracle map[uint32]uint32

func (o oracle) apply(op kv.Op) (uint32, bool) {
	switch op.Kind {
	case hds.Read:
		v, ok := o[op.Key]
		return v, ok
	case hds.Update:
		if _, ok := o[op.Key]; !ok {
			return 0, false
		}
		o[op.Key] = op.Value
		return 0, true
	case hds.Insert:
		if _, ok := o[op.Key]; ok {
			return 0, false
		}
		o[op.Key] = op.Value
		return 0, true
	case hds.Remove:
		if _, ok := o[op.Key]; !ok {
			return 0, false
		}
		delete(o, op.Key)
		return 0, true
	}
	panic("bad op")
}

func (o oracle) dump() []KV {
	var out []KV
	for k, v := range o {
		out = append(out, KV{Key: k, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func kvsEqual(a, b []KV) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func mixedOps(seed uint64, n int, existing []KV, freshBase uint32) []kv.Op {
	rng := prng.New(seed)
	ops := make([]kv.Op, n)
	fresh := freshBase
	for i := range ops {
		r := rng.Intn(100)
		switch {
		case r < 50:
			ops[i] = kv.Op{Kind: hds.Read, Key: existing[rng.Intn(len(existing))].Key}
		case r < 60:
			ops[i] = kv.Op{Kind: hds.Update, Key: existing[rng.Intn(len(existing))].Key, Value: rng.Uint32()}
		case r < 80:
			if rng.Intn(4) == 0 {
				ops[i] = kv.Op{Kind: hds.Insert, Key: existing[rng.Intn(len(existing))].Key, Value: rng.Uint32()}
			} else {
				fresh += uint32(rng.Intn(64) + 1)
				ops[i] = kv.Op{Kind: hds.Insert, Key: fresh, Value: rng.Uint32()}
			}
		default:
			ops[i] = kv.Op{Kind: hds.Remove, Key: existing[rng.Intn(len(existing))].Key}
		}
	}
	return ops
}

func freshBlock(i int) uint32 { return testKeyMax/2 + uint32(i)<<19 }

type testStore interface {
	Apply(c *machine.Ctx, thread int, op kv.Op) (uint32, bool)
	Dump() []KV
	CheckInvariants() error
}

func buildStore(t *testing.T, name string, m *machine.Machine, pairs []KV) testStore {
	t.Helper()
	switch name {
	case "hostonly":
		s := NewHostOnly(m)
		s.Build(pairs)
		return s
	case "hybrid":
		s := NewHybrid(m, HybridBTreeConfig{NMPLevels: testNMPLevels, Window: 1})
		s.Build(pairs)
		s.Start()
		return s
	default:
		t.Fatalf("unknown store %q", name)
		return nil
	}
}

var variants = []string{"hostonly", "hybrid"}

func TestLevelCounts(t *testing.T) {
	counts := levelCounts(100)
	// 100 keys -> 13 leaves -> 2 inner -> 1 root.
	want := []int{13, 2, 1}
	if len(counts) != len(want) {
		t.Fatalf("counts = %v", counts)
	}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
	if got := levelCounts(0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("empty tree counts = %v", got)
	}
}

func TestBuildMatchesDump(t *testing.T) {
	pairs := initialPairs(testN)
	want := append([]KV(nil), pairs...)
	sort.Slice(want, func(i, j int) bool { return want[i].Key < want[j].Key })
	for _, name := range variants {
		t.Run(name, func(t *testing.T) {
			m := testMachine()
			s := buildStore(t, name, m, pairs)
			if !kvsEqual(s.Dump(), want) {
				t.Fatal("dump does not match built pairs")
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSingleThreadOracle(t *testing.T) {
	pairs := initialPairs(testN)
	ops := mixedOps(42, 2000, pairs, freshBlock(0))
	for _, name := range variants {
		t.Run(name, func(t *testing.T) {
			m := testMachine()
			s := buildStore(t, name, m, pairs)
			o := oracle{}
			for _, p := range pairs {
				o[p.Key] = p.Value
			}
			var failures []string
			m.SpawnHost(0, "driver", func(c *machine.Ctx) {
				for i, op := range ops {
					gotV, gotOK := s.Apply(c, 0, op)
					wantV, wantOK := o.apply(op)
					if gotOK != wantOK || (op.Kind == hds.Read && gotOK && gotV != wantV) {
						failures = append(failures, fmt.Sprintf("op %d %s key=%d: got (%d,%v) want (%d,%v)",
							i, op.Kind, op.Key, gotV, gotOK, wantV, wantOK))
					}
				}
			})
			m.Run()
			if len(failures) > 0 {
				t.Fatalf("%d mismatches, first: %s", len(failures), failures[0])
			}
			if !kvsEqual(s.Dump(), o.dump()) {
				t.Fatal("final contents diverge from oracle")
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSequentialInsertsForceDeepSplits(t *testing.T) {
	// Monotonic keys concentrated at the tree's right edge force splits
	// at every level, including root splits (host-only) and
	// LOCK_PATH/RESUME boundary splits (hybrid).
	pairs := initialPairs(600)
	for _, name := range variants {
		t.Run(name, func(t *testing.T) {
			m := testMachine()
			s := buildStore(t, name, m, pairs)
			o := oracle{}
			for _, p := range pairs {
				o[p.Key] = p.Value
			}
			m.SpawnHost(0, "driver", func(c *machine.Ctx) {
				for i := 0; i < 2000; i++ {
					op := kv.Op{Kind: hds.Insert, Key: testKeyMax/2 + uint32(i), Value: uint32(i)}
					if _, ok := s.Apply(c, 0, op); !ok {
						t.Errorf("sequential insert %d failed", i)
						return
					}
					o.apply(op)
				}
			})
			m.Run()
			if !kvsEqual(s.Dump(), o.dump()) {
				t.Fatal("contents diverge after deep splits")
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRootSplitGrowsTree(t *testing.T) {
	// Build a minimal tree and insert until the root must split.
	m := testMachine()
	s := NewHostOnly(m)
	var pairs []KV
	for i := uint32(1); i <= 16; i++ {
		pairs = append(pairs, KV{Key: i * 100, Value: i})
	}
	s.Build(pairs)
	_, h0 := s.core.rootInfo(m.Mem.RAM)
	m.SpawnHost(0, "driver", func(c *machine.Ctx) {
		for i := uint32(0); i < 3000; i++ {
			s.Apply(c, 0, kv.Op{Kind: hds.Insert, Key: 10000 + i, Value: i})
		}
	})
	m.Run()
	_, h1 := s.core.rootInfo(m.Mem.RAM)
	if h1 <= h0 {
		t.Fatalf("tree height did not grow: %d -> %d", h0, h1)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentDisjointRangesOracle(t *testing.T) {
	pairs := initialPairs(testN)
	for _, name := range variants {
		t.Run(name, func(t *testing.T) {
			m := testMachine()
			s := buildStore(t, name, m, pairs)
			o := oracle{}
			for _, p := range pairs {
				o[p.Key] = p.Value
			}
			const threads = 4
			for th := 0; th < threads; th++ {
				th := th
				var mine []KV
				for i, p := range pairs {
					if i%threads == th {
						mine = append(mine, p)
					}
				}
				ops := mixedOps(uint64(100+th), 500, mine, freshBlock(th))
				m.SpawnHost(th, fmt.Sprintf("driver%d", th), func(c *machine.Ctx) {
					for _, op := range ops {
						s.Apply(c, th, op)
					}
				})
				for _, op := range ops {
					o.apply(op)
				}
			}
			m.Run()
			if !kvsEqual(s.Dump(), o.dump()) {
				t.Fatal("disjoint-range concurrent run diverges from oracle")
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestConcurrentOverlappingKeysInvariants(t *testing.T) {
	pairs := initialPairs(96)
	run := func(name string) []KV {
		m := testMachine()
		s := buildStore(t, name, m, pairs)
		const threads = 8
		for th := 0; th < threads; th++ {
			th := th
			rng := prng.New(uint64(th) + 9)
			m.SpawnHost(th, fmt.Sprintf("driver%d", th), func(c *machine.Ctx) {
				for i := 0; i < 250; i++ {
					key := pairs[rng.Intn(len(pairs))].Key
					switch rng.Intn(4) {
					case 0:
						s.Apply(c, th, kv.Op{Kind: hds.Read, Key: key})
					case 1:
						s.Apply(c, th, kv.Op{Kind: hds.Insert, Key: key, Value: uint32(th)<<16 | uint32(i)})
					case 2:
						s.Apply(c, th, kv.Op{Kind: hds.Remove, Key: key})
					default:
						s.Apply(c, th, kv.Op{Kind: hds.Update, Key: key, Value: uint32(th)<<16 | uint32(i)})
					}
				}
			})
		}
		m.Run()
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return s.Dump()
	}
	for _, name := range variants {
		t.Run(name, func(t *testing.T) {
			d1 := run(name)
			d2 := run(name)
			if !kvsEqual(d1, d2) {
				t.Fatal("runs not deterministic")
			}
			valid := map[uint32]bool{}
			for _, p := range pairs {
				valid[p.Key] = true
			}
			for _, p := range d1 {
				if !valid[p.Key] {
					t.Fatalf("phantom key %d in final state", p.Key)
				}
			}
		})
	}
}

func TestConcurrentTailInsertsExerciseBoundarySplits(t *testing.T) {
	// All threads insert monotonically increasing keys into overlapping
	// tails: maximal split contention on the same nodes, including
	// LOCK_PATH conversations racing with each other.
	pairs := initialPairs(500)
	m := testMachine()
	s := NewHybrid(m, HybridBTreeConfig{NMPLevels: testNMPLevels, Window: 1})
	s.Build(pairs)
	s.Start()
	o := oracle{}
	for _, p := range pairs {
		o[p.Key] = p.Value
	}
	const threads = 8
	const perThread = 300
	for th := 0; th < threads; th++ {
		th := th
		m.SpawnHost(th, fmt.Sprintf("driver%d", th), func(c *machine.Ctx) {
			for i := 0; i < perThread; i++ {
				// Distinct keys across threads but adjacent, so all
				// threads fight over the same leaves.
				key := testKeyMax/2 + uint32(i*threads+th)
				s.Apply(c, th, kv.Op{Kind: hds.Insert, Key: key, Value: key})
			}
		})
	}
	for i := 0; i < perThread*threads; i++ {
		key := testKeyMax/2 + uint32(i)
		o.apply(kv.Op{Kind: hds.Insert, Key: key, Value: key})
	}
	m.Run()
	if !kvsEqual(s.Dump(), o.dump()) {
		t.Fatal("tail-insert contention run diverges from oracle")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHybridAsyncBatchMatchesOracleOnDistinctKeys(t *testing.T) {
	pairs := initialPairs(testN)
	var ops []kv.Op
	o := oracle{}
	for _, p := range pairs {
		o[p.Key] = p.Value
	}
	rng := prng.New(3)
	taken := map[uint32]bool{}
	for _, p := range pairs {
		taken[p.Key] = true
	}
	for i, p := range pairs[:1600] {
		switch i % 4 {
		case 0:
			ops = append(ops, kv.Op{Kind: hds.Read, Key: p.Key})
		case 1:
			ops = append(ops, kv.Op{Kind: hds.Remove, Key: p.Key})
		case 2:
			ops = append(ops, kv.Op{Kind: hds.Update, Key: p.Key, Value: rng.Uint32()})
		default:
			for {
				k := rng.Uint32()%(testKeyMax-1) + 1
				if !taken[k] {
					taken[k] = true
					ops = append(ops, kv.Op{Kind: hds.Insert, Key: k, Value: rng.Uint32()})
					break
				}
			}
		}
	}
	want := 0
	for _, op := range ops {
		if _, ok := o.apply(op); ok {
			want++
		}
	}
	m := testMachine()
	s := NewHybrid(m, HybridBTreeConfig{NMPLevels: testNMPLevels, Window: 4})
	s.Build(pairs)
	s.Start()
	got := 0
	m.SpawnHost(0, "driver", func(c *machine.Ctx) {
		got = s.ApplyBatch(c, 0, ops)
	})
	m.Run()
	if got != want {
		t.Fatalf("ApplyBatch succeeded = %d, want %d", got, want)
	}
	if !kvsEqual(s.Dump(), o.dump()) {
		t.Fatal("async batch contents diverge from oracle")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHybridAsyncConcurrentWithSplits(t *testing.T) {
	pairs := initialPairs(800)
	m := testMachine()
	s := NewHybrid(m, HybridBTreeConfig{NMPLevels: testNMPLevels, Window: 4})
	s.Build(pairs)
	s.Start()
	const threads = 8
	for th := 0; th < threads; th++ {
		th := th
		var ops []kv.Op
		for i := 0; i < 250; i++ {
			key := testKeyMax/2 + uint32(i*threads+th)
			ops = append(ops, kv.Op{Kind: hds.Insert, Key: key, Value: key})
		}
		m.SpawnHost(th, fmt.Sprintf("driver%d", th), func(c *machine.Ctx) {
			s.ApplyBatch(c, th, ops)
		})
	}
	m.Run()
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Every inserted key must be present.
	have := map[uint32]bool{}
	for _, p := range s.Dump() {
		have[p.Key] = true
	}
	for i := 0; i < 250*threads; i++ {
		if !have[testKeyMax/2+uint32(i)] {
			t.Fatalf("inserted key %d missing", testKeyMax/2+uint32(i))
		}
	}
}

func TestCrossVariantSingleThreadAgreement(t *testing.T) {
	pairs := initialPairs(800)
	ops := mixedOps(77, 1200, pairs, freshBlock(0))
	var dumps [][]KV
	for _, name := range variants {
		m := testMachine()
		s := buildStore(t, name, m, pairs)
		m.SpawnHost(0, "driver", func(c *machine.Ctx) {
			for _, op := range ops {
				s.Apply(c, 0, op)
			}
		})
		m.Run()
		dumps = append(dumps, s.Dump())
	}
	if !kvsEqual(dumps[0], dumps[1]) {
		t.Fatal("host-only and hybrid disagree after identical op stream")
	}
}

func TestEmptyLeafToleratedByReads(t *testing.T) {
	m := testMachine()
	s := NewHostOnly(m)
	var pairs []KV
	for i := uint32(1); i <= 40; i++ {
		pairs = append(pairs, KV{Key: i, Value: i})
	}
	s.Build(pairs)
	m.SpawnHost(0, "driver", func(c *machine.Ctx) {
		// Empty one leaf entirely, then read through the hole.
		for i := uint32(1); i <= 8; i++ {
			s.Apply(c, 0, kv.Op{Kind: hds.Remove, Key: i})
		}
		for i := uint32(1); i <= 8; i++ {
			if _, ok := s.Apply(c, 0, kv.Op{Kind: hds.Read, Key: i}); ok {
				t.Errorf("removed key %d still readable", i)
			}
		}
		if v, ok := s.Apply(c, 0, kv.Op{Kind: hds.Read, Key: 20}); !ok || v != 20 {
			t.Errorf("key 20 = (%d,%v)", v, ok)
		}
	})
	m.Run()
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMetaPacking(t *testing.T) {
	m := packMeta(5, 13)
	if metaLevel(m) != 5 || metaSlots(m) != 13 {
		t.Fatalf("meta roundtrip failed: level=%d slots=%d", metaLevel(m), metaSlots(m))
	}
}

func TestTaggedPointers(t *testing.T) {
	n := uint32(0x1000_0000)
	for part := 0; part < 8; part++ {
		node, p := untag(taggedPtr(n, part))
		if node != n || p != part {
			t.Fatalf("tag roundtrip failed for partition %d", part)
		}
	}
}
