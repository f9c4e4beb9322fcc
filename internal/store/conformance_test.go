package store

import (
	"slices"
	"sync"
	"testing"

	"hybrids/internal/core"
	"hybrids/internal/dsim/kv"
	"hybrids/internal/exp"
	"hybrids/internal/hds"
	"hybrids/internal/prng"
	"hybrids/internal/sim/machine"
	"hybrids/internal/ycsb"
)

// Conformance suite: every registered engine must (a) agree with a
// sequential map oracle natively, with structural invariants intact,
// (b) converge to identical final contents on the native runtime and the
// cycle-level simulator for the same operation streams under every call
// discipline — the registry's semantic contract — and (c) keep its native
// Get and write paths within the core blocking-call allocation discipline.
// Every engine's native store is the same cds.BTree, so the native dumps
// and the fuzz target build it once; the simulated side is exp's registry,
// imported here by the tests alone. A new engine passes this suite by
// being registered in both; nothing here names a structure.

// newNative is the per-partition store factory every engine's native
// side uses.
var newNative = Engine{}.NewNative(Tuning{})

const (
	confThreads   = 2
	confPerThread = 120
	confKeyMax    = 1 << 12
)

// confParams sizes every engine small enough for simulated test machines
// while keeping a real host/NMP split.
func confParams(window int) exp.SimParams {
	return exp.SimParams{
		SkiplistRecords: 1 << 10, SkiplistLevels: 9, SkiplistNMPLevels: 4,
		BTreeRecords: 1 << 10, BTreeNMPLevels: 2,
		BSkiplistRecords: 1 << 10, BSkiplistLevels: 5, BSkiplistNMPLevels: 2,
		KeyMax: confKeyMax, Window: window, Seed: 7,
	}
}

func confMachine() *machine.Machine {
	cfg := machine.Default()
	cfg.Mem.HostMemSize = 16 << 20
	cfg.Mem.NMPMemSize = 16 << 20
	cfg.Mem.L2Size = 64 << 10
	cfg.Mem.L1Size = 8 << 10
	return machine.New(cfg)
}

// confData returns the initial contents (even keys) and per-thread op
// streams. Each stream position touches its own key — inserts use fresh
// odd keys, removes/updates/reads target distinct initial even keys — so
// the final state is completion-order-independent and any interleaving of
// the streams must converge to the same contents.
func confData() (pairs []ycsb.Pair, streams [][]kv.Op) {
	total := confThreads * confPerThread
	for i := 1; i <= total; i++ {
		pairs = append(pairs, ycsb.Pair{Key: uint32(2 * i), Value: uint32(2*i + 7)})
	}
	streams = make([][]kv.Op, confThreads)
	for th := 0; th < confThreads; th++ {
		for i := 0; i < confPerThread; i++ {
			idx := th*confPerThread + i
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

// simDump drives confData's streams against an engine's simulated hybrid
// (blocking or windowed) and returns the drained final contents.
func simDump(t *testing.T, e exp.Engine, window int, async bool) []kv.Pair {
	t.Helper()
	pairs, streams := confData()
	m := confMachine()
	s := e.NewSimHybrid(m, confParams(window))
	s.Build(pairs)
	s.Start()
	for th := range streams {
		th := th
		m.SpawnHost(th, "drv", func(c *machine.Ctx) {
			if async {
				s.ApplyBatch(c, th, streams[th])
			} else {
				for _, op := range streams[th] {
					s.Apply(c, th, op)
				}
			}
		})
	}
	m.Run()
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("%s sim invariants (window=%d async=%v): %v", e.Name, window, async, err)
	}
	return s.Dump()
}

// nativeDump runs the same streams against the real runtime — one
// goroutine per stream, blocking (window<=1) or windowed non-blocking —
// and returns the drained final contents.
func nativeDump(window int) []core.KV {
	pairs, streams := confData()
	h := core.New(core.Config{
		Partitions: 4, KeyMax: confKeyMax,
		NewStore: newNative,
	})
	load := make([]core.KV, len(pairs))
	for i, p := range pairs {
		load[i] = core.KV{Key: uint64(p.Key), Value: uint64(p.Value)}
	}
	h.Build(load)
	var wg sync.WaitGroup
	for th := range streams {
		ops := make([]hds.Request, len(streams[th]))
		for i, op := range streams[th] {
			ops[i] = hds.Request{Kind: op.Kind, Key: uint64(op.Key), Value: uint64(op.Value)}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if window > 1 {
				h.NewBatcher(window).Apply(ops, nil)
				return
			}
			for _, req := range ops {
				h.Apply(req)
			}
		}()
	}
	wg.Wait()
	h.Close()
	return h.Dump()
}

// TestEnginesMatchSimulatedRegistry holds the native engine names equal to
// exp.Engines', in order: bench/ and the grids name the same engines.
func TestEnginesMatchSimulatedRegistry(t *testing.T) {
	var native, sim []string
	for _, e := range Engines() {
		native = append(native, e.Name)
	}
	for _, e := range exp.Engines() {
		sim = append(sim, e.Name)
	}
	if !slices.Equal(native, sim) {
		t.Fatalf("store.Engines() names %v, exp.Engines() %v", native, sim)
	}
}

// TestEngineNativeSequentialOracle drives a deterministic mixed stream
// against each engine's bare native store and a map oracle, then checks
// its structural invariants.
func TestEngineNativeSequentialOracle(t *testing.T) {
	for _, e := range Engines() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			s := e.NewNative(Tuning{})(0)
			oracle := map[uint64]uint64{}
			rng := prng.New(4242)
			for i := 0; i < 30_000; i++ {
				key := uint64(rng.Uint32()%4096 + 1)
				val := uint64(rng.Uint32())
				switch rng.Intn(4) {
				case 0:
					wantV, want := oracle[key]
					gotV, got := s.Get(key)
					if got != want || (got && gotV != wantV) {
						t.Fatalf("op %d: Get(%d) = (%d,%v), want (%d,%v)", i, key, gotV, got, wantV, want)
					}
				case 1:
					_, exists := oracle[key]
					if got := s.Put(key, val); got != !exists {
						t.Fatalf("op %d: Put(%d) = %v, oracle exists=%v", i, key, got, exists)
					}
					if !exists {
						oracle[key] = val
					}
				case 2:
					_, exists := oracle[key]
					if got := s.Update(key, val); got != exists {
						t.Fatalf("op %d: Update(%d) = %v, oracle exists=%v", i, key, got, exists)
					}
					if exists {
						oracle[key] = val
					}
				default:
					_, exists := oracle[key]
					if got := s.Delete(key); got != exists {
						t.Fatalf("op %d: Delete(%d) = %v, oracle exists=%v", i, key, got, exists)
					}
					delete(oracle, key)
				}
			}
			// Keys 0 and MaxUint64 lie outside the oracle's key space: absent, and
			// asking changes nothing.
			for _, k := range []uint64{0, ^uint64(0)} {
				if v, ok := s.Get(k); ok || v != 0 {
					t.Errorf("Get(%d) = (%d,%v), want (0,false)", k, v, ok)
				}
				if s.Update(k, 9) || s.Delete(k) {
					t.Errorf("Update/Delete(%d) succeeded", k)
				}
			}
			if s.Len() != len(oracle) {
				t.Fatalf("Len = %d, oracle %d", s.Len(), len(oracle))
			}
			if err := s.(interface{ CheckInvariants() error }).CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestEngineCrossStackEquivalence runs the same operation streams through
// each engine's simulated hybrid (blocking) and the native runtime at
// blocking and windowed disciplines; all final contents must match pair
// for pair. The native side is one store for every engine, so its dumps
// are taken once.
func TestEngineCrossStackEquivalence(t *testing.T) {
	native := map[int][]core.KV{1: nativeDump(1), 4: nativeDump(4)}
	for _, e := range exp.Engines() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			sim := simDump(t, e, 1, false)
			if len(sim) == 0 {
				t.Fatal("empty simulated dump")
			}
			for window, got := range native {
				if len(got) != len(sim) {
					t.Fatalf("window %d: native %d pairs, sim %d", window, len(got), len(sim))
				}
				for i := range sim {
					if got[i].Key != uint64(sim[i].Key) || got[i].Value != uint64(sim[i].Value) {
						t.Fatalf("window %d: pair %d native=%+v sim=%+v", window, i, got[i], sim[i])
					}
				}
			}
		})
	}
}

// TestEngineSimWindowEquivalence checks that each engine's simulated
// hybrid converges to the blocking contents at every window depth.
func TestEngineSimWindowEquivalence(t *testing.T) {
	for _, e := range exp.Engines() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			want := simDump(t, e, 1, false)
			for _, w := range []int{2, 4} {
				got := simDump(t, e, w, true)
				if len(got) != len(want) {
					t.Fatalf("window %d: %d pairs, want %d", w, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("window %d: pair %d = %+v, want %+v", w, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestSimHybridRejectsBadSplit: every engine's simulated hybrid refuses a
// split with no NMP level. The skiplist's far end, every level NMP-side,
// is the NMP-based baseline, so it accepts NMPLevels == Levels and refuses
// one level more. The B-skiplist refuses a split that leaves no host
// level. The B+ tree derives its height from fan-out, so it has no host
// floor to refuse.
func TestSimHybridRejectsBadSplit(t *testing.T) {
	noNMP := confParams(1)
	noNMP.SkiplistNMPLevels, noNMP.BTreeNMPLevels, noNMP.BSkiplistNMPLevels = 0, 0, 0
	allNMP := confParams(1)
	allNMP.SkiplistNMPLevels, allNMP.BSkiplistNMPLevels = allNMP.SkiplistLevels, allNMP.BSkiplistLevels
	pastAll := confParams(1)
	pastAll.SkiplistNMPLevels = pastAll.SkiplistLevels + 1
	for _, e := range exp.Engines() {
		refuses := func(p exp.SimParams) (panicked bool) {
			defer func() { panicked = recover() != nil }()
			e.NewSimHybrid(confMachine(), p)
			return false
		}
		if !refuses(noNMP) {
			t.Errorf("%s: built a hybrid with no NMP level", e.Name)
		}
		switch e.Name {
		case "skiplist":
			if refuses(allNMP) {
				t.Errorf("skiplist: refused the all-NMP end (the NMP-based baseline)")
			}
			if !refuses(pastAll) {
				t.Errorf("skiplist: built a hybrid with more NMP levels than levels")
			}
		case "bskiplist":
			if !refuses(allNMP) {
				t.Errorf("bskiplist: built a hybrid with no host level")
			}
		}
		if refuses(confParams(1)) {
			t.Errorf("%s: refused the conformance split", e.Name)
		}
	}
}

// TestEngineGetAllocs holds every engine's native Get path at zero
// allocations: a descent touches only the store's arenas.
func TestEngineGetAllocs(t *testing.T) {
	for _, e := range Engines() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			s := e.NewNative(Tuning{})(0)
			for k := uint64(1); k <= 4096; k++ {
				s.Put(k, k*3)
			}
			key := uint64(1)
			allocs := testing.AllocsPerRun(1000, func() {
				s.Get(key)
				key = key%4096 + 1
			})
			if allocs != 0 {
				t.Fatalf("Get allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
}

// TestEngineWriteAllocs holds every engine's native steady-state writes
// at zero allocations: an Update, and a Delete followed by a Put of the
// same key, on a loaded store (Put records its descent in a stack array
// and the emptied leaf slot takes the key back).
func TestEngineWriteAllocs(t *testing.T) {
	for _, e := range Engines() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			s := e.NewNative(Tuning{})(0)
			for k := uint64(1); k <= 4096; k++ {
				s.Put(k, k*3)
			}
			key := uint64(1)
			if allocs := testing.AllocsPerRun(1000, func() {
				s.Update(key, key)
				key = key%4096 + 1
			}); allocs != 0 {
				t.Errorf("Update allocates %.1f objects/op, want 0", allocs)
			}
			if allocs := testing.AllocsPerRun(1000, func() {
				if !s.Delete(key) || !s.Put(key, key) {
					t.Fatalf("Delete+Put of stored key %d failed", key)
				}
				key = key%4096 + 1
			}); allocs != 0 {
				t.Errorf("Delete+Put allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
}
