package store

import (
	"hybrids/internal/boundary"
	"hybrids/internal/cds"
	"hybrids/internal/core"
	"hybrids/internal/dsim/bskiplist"
	"hybrids/internal/dsim/btree"
	"hybrids/internal/dsim/skiplist"
	"hybrids/internal/sim/machine"
	"hybrids/internal/ycsb"
)

// --- B+ tree --------------------------------------------------------------

// simBTree wraps the simulated hybrid B+ tree as a SimHybrid: Build
// captures the engine's bulk-load fill, Dump converts to registry pairs.
type simBTree struct {
	*btree.Hybrid
	fill int
}

// Build bulk-loads the initial pairs at the configured fill (untimed).
func (s simBTree) Build(load []ycsb.Pair) {
	pairs := make([]btree.KV, len(load))
	for i, p := range load {
		pairs[i] = btree.KV{Key: p.Key, Value: p.Value}
	}
	s.Hybrid.Build(pairs, s.fill)
}

// Dump returns the final contents in ascending key order (untimed).
func (s simBTree) Dump() []KV {
	var out []KV
	for _, p := range s.Hybrid.Dump() {
		out = append(out, KV{Key: p.Key, Value: p.Value})
	}
	return out
}

func btreeEngine() Engine {
	return Engine{
		Name: "btree",
		Desc: "B+ tree",
		NewNative: func(Tuning) func(int) core.Store {
			return func(int) core.Store { return cds.NewBTree() }
		},
		NewSimHybrid: func(m *machine.Machine, p SimParams) SimHybrid {
			h := btree.NewHybrid(m, btree.HybridBTreeConfig{
				Split: btreeEngine().SimSplit(p), Window: p.Window,
			})
			return simBTree{Hybrid: h, fill: p.BTreeFill}
		},
		SimRecords: func(p SimParams) int { return p.BTreeRecords },
		SimSplit:   func(p SimParams) boundary.Split { return boundary.Split{NMP: p.BTreeNMPLevels} },
	}
}

// --- Skiplist -------------------------------------------------------------

// simSkiplist wraps the simulated hybrid skiplist as a SimHybrid: Build
// captures the load-phase seed convention (structure seed + 1).
type simSkiplist struct {
	*skiplist.Hybrid
	seed uint64
}

// Build bulk-loads the initial pairs (untimed), deriving tower heights
// from the load-phase seed.
func (s simSkiplist) Build(load []ycsb.Pair) {
	pairs := make([]skiplist.KV, len(load))
	for i, p := range load {
		pairs[i] = skiplist.KV{Key: p.Key, Value: p.Value}
	}
	s.Hybrid.Build(pairs, s.seed+1)
}

// Dump returns the final contents in ascending key order (untimed).
func (s simSkiplist) Dump() []KV {
	var out []KV
	for _, p := range s.Hybrid.Dump() {
		out = append(out, KV{Key: p.Key, Value: p.Value})
	}
	return out
}

func skiplistEngine() Engine {
	return Engine{
		Name: "skiplist",
		Desc: "skiplist",
		NewNative: func(Tuning) func(int) core.Store {
			return func(int) core.Store { return cds.NewSkipList() }
		},
		NewSimHybrid: func(m *machine.Machine, p SimParams) SimHybrid {
			h := skiplist.NewHybrid(m, skiplist.HybridConfig{
				Split:  skiplistEngine().SimSplit(p),
				KeyMax: p.KeyMax, Window: p.Window, Seed: p.Seed,
			})
			return simSkiplist{Hybrid: h, seed: p.Seed}
		},
		SimRecords: func(p SimParams) int { return p.SkiplistRecords },
		SimSplit: func(p SimParams) boundary.Split {
			return boundary.Split{Total: p.SkiplistLevels, NMP: p.SkiplistNMPLevels}
		},
	}
}

// --- B-skiplist -----------------------------------------------------------

// simBSkiplist wraps the simulated hybrid B-skiplist as a SimHybrid; its
// Dump already returns registry-shaped pairs, so only Build adapts.
type simBSkiplist struct {
	*bskiplist.Hybrid
}

// Build bulk-loads the initial pairs (untimed).
func (s simBSkiplist) Build(load []ycsb.Pair) {
	pairs := make([]bskiplist.KV, len(load))
	for i, p := range load {
		pairs[i] = bskiplist.KV{Key: p.Key, Value: p.Value}
	}
	s.Hybrid.Build(pairs)
}

// Dump returns the final contents in ascending key order (untimed).
func (s simBSkiplist) Dump() []KV {
	var out []KV
	for _, p := range s.Hybrid.Dump() {
		out = append(out, KV{Key: p.Key, Value: p.Value})
	}
	return out
}

func bskiplistEngine() Engine {
	return Engine{
		Name: "bskiplist",
		Desc: "cache-conscious B-skiplist",
		NewNative: func(Tuning) func(int) core.Store {
			return func(int) core.Store { return cds.NewBSkipList(0) }
		},
		NewSimHybrid: func(m *machine.Machine, p SimParams) SimHybrid {
			h := bskiplist.NewHybrid(m, bskiplist.Config{
				Split: bskiplistEngine().SimSplit(p),
				Fill:  p.BSkiplistFill, KeyMax: p.KeyMax, Window: p.Window,
			})
			return simBSkiplist{Hybrid: h}
		},
		SimRecords: func(p SimParams) int { return p.BSkiplistRecords },
		SimSplit: func(p SimParams) boundary.Split {
			return boundary.Split{Total: p.BSkiplistLevels, NMP: p.BSkiplistNMPLevels}
		},
	}
}
