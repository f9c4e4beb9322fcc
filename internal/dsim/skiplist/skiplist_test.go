package skiplist

import (
	"fmt"
	"strings"
	"testing"

	"hybrids/internal/dsim/fc"
	"hybrids/internal/dsim/kv"
	"hybrids/internal/hds"
	"hybrids/internal/prng"
	"hybrids/internal/sim/machine"
	"hybrids/internal/sim/memsys"
)

const (
	testLevels    = 11
	testNMPLevels = 5
	testKeyMax    = 1 << 20
	testN         = 2000
)

func testMachine() *machine.Machine {
	cfg := machine.Default()
	cfg.Mem.HostMemSize = 32 << 20
	cfg.Mem.NMPMemSize = 32 << 20
	cfg.Mem.L2Size = 128 << 10
	cfg.Mem.L1Size = 8 << 10
	return machine.New(cfg)
}

// initialPairs produces deterministic distinct keys spread over the key
// space.
func initialPairs(n int) []KV {
	rng := prng.New(12345)
	seen := map[uint32]bool{}
	var out []KV
	for len(out) < n {
		// Initial keys stay in the lower half so tests can mint fresh
		// insert keys from the upper half without collisions.
		k := rng.Uint32()%(testKeyMax/2-1) + 1
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, KV{Key: k, Value: k ^ 0x5a5a5a5a})
	}
	return out
}

// oracle mirrors Store semantics on a plain map.
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
	sortKVs(out)
	return out
}

func sortKVs(s []KV) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].Key < s[j-1].Key; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
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

// mixedOps generates a deterministic op stream over existing keys plus
// fresh inserts minted from the disjoint block [freshBase, freshBase+2^16)
// in the upper half of the key space, so streams built with distinct
// freshBase blocks never collide on fresh keys.
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
			// Mix of fresh inserts and re-inserts of existing keys.
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

// freshBlock returns the fresh-key block base for stream index i.
func freshBlock(i int) uint32 { return testKeyMax/2 + uint32(i)<<16 }

type testStore interface {
	Apply(c *machine.Ctx, thread int, op kv.Op) (uint32, bool)
	Dump() []KV
	CheckInvariants() error
}

// buildStore constructs each named variant on a fresh machine.
func buildStore(t *testing.T, name string, m *machine.Machine, pairs []KV) testStore {
	t.Helper()
	switch name {
	case "lockfree":
		s := NewLockFree(m, testLevels, 7)
		s.Build(pairs)
		return s
	case "nmpfc":
		// The NMP-based baseline: the hybrid with every level NMP-side.
		s := NewHybrid(m, HybridConfig{Levels: testLevels, NMPLevels: testLevels, KeyMax: testKeyMax, Window: 1, Seed: 7})
		s.Build(pairs)
		s.Start()
		return s
	case "hybrid":
		s := NewHybrid(m, HybridConfig{Levels: testLevels, NMPLevels: testNMPLevels, KeyMax: testKeyMax, Window: 1, Seed: 7})
		s.Build(pairs)
		s.Start()
		return s
	default:
		t.Fatalf("unknown store %q", name)
		return nil
	}
}

var variants = []string{"lockfree", "nmpfc", "hybrid"}

func TestBuildMatchesDump(t *testing.T) {
	pairs := initialPairs(testN)
	want := append([]KV(nil), pairs...)
	sortKVs(want)
	for _, name := range variants {
		t.Run(name, func(t *testing.T) {
			m := testMachine()
			s := buildStore(t, name, m, pairs)
			if !kvsEqual(s.Dump(), want) {
				t.Fatalf("%s: dump does not match built pairs", name)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		})
	}
}

func TestSingleThreadOracle(t *testing.T) {
	pairs := initialPairs(testN)
	ops := mixedOps(42, 1500, pairs, freshBlock(0))
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
				t.Fatalf("%s: %d mismatches, first: %s", name, len(failures), failures[0])
			}
			if !kvsEqual(s.Dump(), o.dump()) {
				t.Fatalf("%s: final contents diverge from oracle", name)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
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
			// Each thread works on keys congruent to its id mod 4 by
			// filtering the shared key list: op sets are disjoint, so
			// the final state equals the oracle's regardless of
			// interleaving.
			const threads = 4
			for th := 0; th < threads; th++ {
				th := th
				var mine []KV
				for i, p := range pairs {
					if i%threads == th {
						mine = append(mine, p)
					}
				}
				ops := mixedOps(uint64(100+th), 400, mine, freshBlock(th))
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
				t.Fatalf("%s: disjoint-range concurrent run diverges from oracle", name)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestConcurrentOverlappingKeysInvariants(t *testing.T) {
	// All threads hammer the same small key set with inserts and
	// removes: maximal contention on host CASes, NMP retries, and
	// begin-traversal invalidation. We check structural invariants,
	// determinism, and that results are sane (every read value was
	// written at some point for that key).
	pairs := initialPairs(64)
	written := map[uint32]map[uint32]bool{}
	for _, p := range pairs {
		written[p.Key] = map[uint32]bool{p.Value: true}
	}
	run := func(name string) ([]KV, []string) {
		m := testMachine()
		s := buildStore(t, name, m, pairs)
		var bad []string
		const threads = 8
		for th := 0; th < threads; th++ {
			th := th
			rng := prng.New(uint64(th) + 5)
			m.SpawnHost(th, fmt.Sprintf("driver%d", th), func(c *machine.Ctx) {
				for i := 0; i < 300; i++ {
					key := pairs[rng.Intn(len(pairs))].Key
					val := uint32(th)<<16 | uint32(i)
					switch rng.Intn(4) {
					case 0:
						v, ok := s.Apply(c, th, kv.Op{Kind: hds.Read, Key: key})
						if ok && !written[key][v] {
							bad = append(bad, fmt.Sprintf("read key=%d returned never-written value %d", key, v))
						}
					case 1:
						s.Apply(c, th, kv.Op{Kind: hds.Insert, Key: key, Value: val})
					case 2:
						s.Apply(c, th, kv.Op{Kind: hds.Remove, Key: key})
					default:
						s.Apply(c, th, kv.Op{Kind: hds.Update, Key: key, Value: val})
					}
				}
			})
			// Pre-register every value this thread may write.
			rng2 := prng.New(uint64(th) + 5)
			for i := 0; i < 300; i++ {
				_ = pairs[rng2.Intn(len(pairs))].Key
				r := rng2.Intn(4)
				_ = r
			}
			for i := 0; i < 300; i++ {
				for _, p := range pairs {
					written[p.Key][uint32(th)<<16|uint32(i)] = true
				}
			}
		}
		m.Run()
		if err := s.CheckInvariants(); err != nil {
			bad = append(bad, err.Error())
		}
		return s.Dump(), bad
	}
	for _, name := range variants {
		t.Run(name, func(t *testing.T) {
			d1, bad := run(name)
			if len(bad) > 0 {
				t.Fatalf("%s: %s (and %d more)", name, bad[0], len(bad)-1)
			}
			d2, _ := run(name)
			if !kvsEqual(d1, d2) {
				t.Fatalf("%s: runs not deterministic", name)
			}
			// Every surviving key must be one of the initial keys.
			valid := map[uint32]bool{}
			for _, p := range pairs {
				valid[p.Key] = true
			}
			for _, p := range d1 {
				if !valid[p.Key] {
					t.Fatalf("%s: phantom key %d in final state", name, p.Key)
				}
			}
		})
	}
}

// asyncSplits are the splits the non-blocking tests run: the test split,
// and the far end with every level NMP-side (the NMP-based baseline).
var asyncSplits = []struct {
	name      string
	nmpLevels int
}{{"hybrid", testNMPLevels}, {"nmpfc", testLevels}}

func TestHybridAsyncBatchMatchesOracleOnDistinctKeys(t *testing.T) {
	pairs := initialPairs(testN)
	// Ops touch distinct keys so in-window reordering cannot change
	// outcomes: final state and success counts are exactly predictable.
	var ops []kv.Op
	o := oracle{}
	for _, p := range pairs {
		o[p.Key] = p.Value
	}
	rng := prng.New(9)
	taken := map[uint32]bool{}
	for _, p := range pairs {
		taken[p.Key] = true
	}
	freshKey := func() uint32 {
		for {
			k := rng.Uint32()%(testKeyMax-1) + 1
			if !taken[k] {
				taken[k] = true
				return k
			}
		}
	}
	for i, p := range pairs[:1200] {
		switch i % 4 {
		case 0:
			ops = append(ops, kv.Op{Kind: hds.Read, Key: p.Key})
		case 1:
			ops = append(ops, kv.Op{Kind: hds.Remove, Key: p.Key})
		case 2:
			ops = append(ops, kv.Op{Kind: hds.Update, Key: p.Key, Value: rng.Uint32()})
		default:
			ops = append(ops, kv.Op{Kind: hds.Insert, Key: freshKey(), Value: rng.Uint32()})
		}
	}
	wantSucceeded := 0
	for _, op := range ops {
		if _, ok := o.apply(op); ok {
			wantSucceeded++
		}
	}
	for _, split := range asyncSplits {
		t.Run(split.name, func(t *testing.T) {
			m := testMachine()
			s := NewHybrid(m, HybridConfig{Levels: testLevels, NMPLevels: split.nmpLevels, KeyMax: testKeyMax, Window: 4, Seed: 7})
			s.Build(pairs)
			s.Start()
			got := 0
			m.SpawnHost(0, "driver", func(c *machine.Ctx) {
				got = s.ApplyBatch(c, 0, ops)
			})
			m.Run()
			if got != wantSucceeded {
				t.Fatalf("ApplyBatch succeeded=%d, want %d", got, wantSucceeded)
			}
			if !kvsEqual(s.Dump(), o.dump()) {
				t.Fatal("async batch final contents diverge from oracle")
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestHybridAsyncConcurrentThreads(t *testing.T) {
	pairs := initialPairs(testN)
	for _, split := range asyncSplits {
		t.Run(split.name, func(t *testing.T) {
			m := testMachine()
			s := NewHybrid(m, HybridConfig{Levels: testLevels, NMPLevels: split.nmpLevels, KeyMax: testKeyMax, Window: 4, Seed: 7})
			s.Build(pairs)
			s.Start()
			const threads = 8
			for th := 0; th < threads; th++ {
				th := th
				var mine []KV
				for i, p := range pairs {
					if i%threads == th {
						mine = append(mine, p)
					}
				}
				ops := mixedOps(uint64(300+th), 300, mine, freshBlock(th))
				m.SpawnHost(th, fmt.Sprintf("driver%d", th), func(c *machine.Ctx) {
					s.ApplyBatch(c, th, ops)
				})
			}
			m.Run()
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			// Only a split with host levels has shortcuts to go stale.
			if split.nmpLevels < testLevels {
				if n := staleShortcuts(s); n > len(pairs)/10 {
					t.Fatalf("excessive stale shortcuts: %d", n)
				}
			}
		})
	}
}

func TestCrossVariantSingleThreadAgreement(t *testing.T) {
	pairs := initialPairs(500)
	ops := mixedOps(77, 800, pairs, freshBlock(0))
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
	for i := 1; i < len(dumps); i++ {
		if !kvsEqual(dumps[0], dumps[i]) {
			t.Fatalf("%s and %s disagree after identical op stream", variants[0], variants[i])
		}
	}
}

func TestHybridSplitPlacesTallNodesHostSide(t *testing.T) {
	pairs := initialPairs(testN)
	m := testMachine()
	s := NewHybrid(m, HybridConfig{Levels: testLevels, NMPLevels: testNMPLevels, KeyMax: testKeyMax, Window: 1, Seed: 7})
	s.Build(pairs)
	ram := m.Mem.RAM
	// Count host nodes; expect roughly N / 2^NMPLevels.
	count := 0
	n := ref(ram.Load32(nextAddr(s.host.head, 0)))
	for n != s.host.tail {
		count++
		// Every host node's NMP counterpart must cap at NMPLevels.
		nmp := ram.Load32(auxAddr(n))
		if h := ram.Load32(heightAddr(nmp)); int(h) != testNMPLevels {
			t.Fatalf("host-linked NMP node has height %d, want %d", h, testNMPLevels)
		}
		n = ref(ram.Load32(nextAddr(n, 0)))
	}
	expected := testN >> testNMPLevels
	if count < expected/2 || count > expected*2 {
		t.Fatalf("host node count = %d, expected around %d", count, expected)
	}
}

func TestHybridDelaysPopulated(t *testing.T) {
	pairs := initialPairs(256)
	m := testMachine()
	s := NewHybrid(m, HybridConfig{Levels: testLevels, NMPLevels: testNMPLevels, KeyMax: testKeyMax, Window: 1, Seed: 7})
	s.Build(pairs)
	s.Start()
	m.SpawnHost(0, "driver", func(c *machine.Ctx) {
		for _, p := range pairs[:64] {
			s.Apply(c, 0, kv.Op{Kind: hds.Read, Key: p.Key})
		}
	})
	m.Run()
	d := fc.DelaysFrom(m.Metrics.Snapshot())
	if d.Count != 64 {
		t.Fatalf("offload count = %d, want 64", d.Count)
	}
	if d.Service == 0 || d.PostToScan == 0 || d.CompleteToObserve == 0 {
		t.Fatalf("delay decomposition empty: %+v", d)
	}
}

// TestAllNMPEndStaysNMPSide: with every level NMP-side the hybrid is the
// NMP-based baseline, so every operation is one whole-operation offload
// that starts at the partition sentinel. No host DRAM is read, nothing
// retries and nothing completes host-side; the result is the sequential
// oracle's.
func TestAllNMPEndStaysNMPSide(t *testing.T) {
	const threads, perThread = 4, 200
	pairs := initialPairs(testN)
	m := testMachine()
	s := buildStore(t, "nmpfc", m, pairs)
	o := oracle{}
	for _, p := range pairs {
		o[p.Key] = p.Value
	}
	for th := 0; th < threads; th++ {
		th := th
		// Threads own disjoint keys, so the oracle applied thread by
		// thread predicts the final state of any interleaving.
		rng := prng.New(uint64(500 + th))
		fresh := freshBlock(th)
		ops := make([]kv.Op, perThread)
		for i := range ops {
			existing := pairs[(rng.Intn(testN/threads))*threads+th].Key
			switch i % 4 {
			case 0, 1:
				ops[i] = kv.Op{Kind: hds.Read, Key: existing}
			case 2:
				fresh += uint32(rng.Intn(64) + 1)
				ops[i] = kv.Op{Kind: hds.Insert, Key: fresh, Value: rng.Uint32()}
			default:
				ops[i] = kv.Op{Kind: hds.Remove, Key: existing}
			}
			o.apply(ops[i])
		}
		m.SpawnHost(th, fmt.Sprintf("driver%d", th), func(c *machine.Ctx) {
			for _, op := range ops {
				s.Apply(c, th, op)
			}
		})
	}
	before := m.Metrics.Snapshot()
	m.Run()
	delta := m.Metrics.Snapshot().Sub(before)
	for name, want := range map[string]uint64{
		memsys.MetricHostDRAMReads: 0,
		"offload/retries":          0,
		"offload/local":            0,
		"offload/posted":           threads * perThread,
	} {
		if got := delta.Get(name); got != want {
			t.Errorf("%s = %d over the ops phase, want %d", name, got, want)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !kvsEqual(s.Dump(), o.dump()) {
		t.Fatal("final contents diverge from the sequential oracle")
	}
}

// TestNMPFCScanPanicsBeforePost pins where an unsupported kind fails: in
// the adapter's Prepare, on the calling host thread, with nothing posted.
// It used to travel as OpNone and panic later on the partition's combiner.
func TestNMPFCScanPanicsBeforePost(t *testing.T) {
	m := testMachine()
	s := buildStore(t, "nmpfc", m, initialPairs(64))
	var recovered any
	m.SpawnHost(0, "driver", func(c *machine.Ctx) {
		defer func() { recovered = recover() }()
		s.Apply(c, 0, kv.Op{Kind: hds.Scan, Key: 1, Value: 10})
	})
	m.Run()
	if msg, ok := recovered.(string); !ok || !strings.Contains(msg, "scan") {
		t.Fatalf("Apply(Scan) recovered %v, want the op-mapping panic naming scan", recovered)
	}
	snap := m.Metrics.Snapshot()
	if got := snap.Get("offload/posted"); got != 0 {
		t.Errorf("offload/posted = %d after a refused Scan, want 0", got)
	}
	if d := fc.DelaysFrom(snap); d.Count != 0 {
		t.Errorf("combiners served %d requests after a refused Scan, want 0", d.Count)
	}
}

func TestPartitionerRanges(t *testing.T) {
	p := kv.RangePartitioner{KeyMax: 1000, Parts: 8}
	for key := uint32(1); key < 1000; key += 13 {
		part := p.Part(key)
		lo, hi := p.Range(part)
		if key < lo || key >= hi {
			t.Fatalf("key %d mapped to partition %d range [%d,%d)", key, part, lo, hi)
		}
	}
	seen := map[int]bool{}
	for key := uint32(1); key < 1000; key++ {
		seen[p.Part(key)] = true
	}
	if len(seen) != 8 {
		t.Fatalf("only %d partitions used", len(seen))
	}
}
