package store

import (
	"hybrids/internal/dsim/bskiplist"
	"hybrids/internal/dsim/btree"
	"hybrids/internal/dsim/skiplist"
	"hybrids/internal/sim/machine"
)

// --- B+ tree --------------------------------------------------------------

func btreeEngine() Engine {
	return Engine{
		Name: "btree",
		Desc: "B+ tree",
		NewSimHybrid: func(m *machine.Machine, p SimParams) SimHybrid {
			return btree.NewHybrid(m, btree.HybridBTreeConfig{
				NMPLevels: p.BTreeNMPLevels, Fill: p.BTreeFill, Window: p.Window,
			})
		},
		SimRecords: func(p SimParams) int { return p.BTreeRecords },
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
func (s simSkiplist) Build(load []KV) { s.Hybrid.Build(load, s.seed+1) }

func skiplistEngine() Engine {
	return Engine{
		Name: "skiplist",
		Desc: "skiplist",
		NewSimHybrid: func(m *machine.Machine, p SimParams) SimHybrid {
			h := skiplist.NewHybrid(m, skiplist.HybridConfig{
				Levels: p.SkiplistLevels, NMPLevels: p.SkiplistNMPLevels,
				KeyMax: p.KeyMax, Window: p.Window, Seed: p.Seed,
			})
			return simSkiplist{Hybrid: h, seed: p.Seed}
		},
		SimRecords: func(p SimParams) int { return p.SkiplistRecords },
	}
}

// --- B-skiplist -----------------------------------------------------------

func bskiplistEngine() Engine {
	return Engine{
		Name: "bskiplist",
		Desc: "cache-conscious B-skiplist",
		NewSimHybrid: func(m *machine.Machine, p SimParams) SimHybrid {
			return bskiplist.NewHybrid(m, bskiplist.Config{
				Levels: p.BSkiplistLevels, NMPLevels: p.BSkiplistNMPLevels,
				Fill: p.BSkiplistFill, KeyMax: p.KeyMax, Window: p.Window,
			})
		},
		SimRecords: func(p SimParams) int { return p.BSkiplistRecords },
	}
}
