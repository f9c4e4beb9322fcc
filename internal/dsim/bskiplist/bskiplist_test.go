package bskiplist

import (
	"fmt"
	"testing"

	"hybrids/internal/dsim/kv"
	"hybrids/internal/hds"
	"hybrids/internal/prng"
	"hybrids/internal/sim/machine"
)

const (
	testLevels    = 5
	testNMPLevels = 2
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

func buildHybrid(m *machine.Machine, pairs []KV, window int) *Hybrid {
	s := NewHybrid(m, Config{
		Levels: testLevels, NMPLevels: testNMPLevels,
		KeyMax: testKeyMax, Window: window,
	})
	s.Build(pairs)
	s.Start()
	return s
}

// initialPairs produces deterministic distinct keys in the lower half of
// the key space, so tests mint fresh insert keys from the upper half.
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
		out = append(out, KV{Key: k, Value: k ^ 0x5a5a5a5a})
	}
	return out
}

// oracle mirrors store semantics on a plain map.
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
// fresh inserts minted from a disjoint upper-half block per stream.
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

func freshBlock(i int) uint32 { return testKeyMax/2 + uint32(i)<<16 }

func TestBuildMatchesDump(t *testing.T) {
	pairs := initialPairs(testN)
	want := append([]KV(nil), pairs...)
	sortKVs(want)
	m := testMachine()
	s := buildHybrid(m, pairs, 1)
	if !kvsEqual(s.Dump(), want) {
		t.Fatal("dump does not match built pairs")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSingleThreadOracle(t *testing.T) {
	pairs := initialPairs(testN)
	ops := mixedOps(42, 1500, pairs, freshBlock(0))
	m := testMachine()
	s := buildHybrid(m, pairs, 1)
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
}

func TestConcurrentDisjointRangesOracle(t *testing.T) {
	pairs := initialPairs(testN)
	m := testMachine()
	s := buildHybrid(m, pairs, 1)
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
		t.Fatal("disjoint-range concurrent run diverges from oracle")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchMatchesBlocking runs the same streams through blocking Apply
// and windowed ApplyBatch on separate machines; final contents must match.
func TestBatchMatchesBlocking(t *testing.T) {
	pairs := initialPairs(testN)
	const threads = 2
	streams := make([][]kv.Op, threads)
	for th := range streams {
		var mine []KV
		for i, p := range pairs {
			if i%threads == th {
				mine = append(mine, p)
			}
		}
		streams[th] = mixedOps(uint64(7+th), 500, mine, freshBlock(th))
	}
	run := func(window int, batch bool) []KV {
		m := testMachine()
		s := buildHybrid(m, pairs, window)
		for th := 0; th < threads; th++ {
			th := th
			m.SpawnHost(th, fmt.Sprintf("driver%d", th), func(c *machine.Ctx) {
				if batch {
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
			t.Fatal(err)
		}
		return s.Dump()
	}
	blocking := run(1, false)
	for _, w := range []int{2, 4} {
		if got := run(w, true); !kvsEqual(got, blocking) {
			t.Fatalf("window %d batch contents diverge from blocking", w)
		}
	}
}
