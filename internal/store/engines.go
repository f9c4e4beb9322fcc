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
		NewSimHybrid: func(m *machine.Machine, p SimParams) SimHybrid {
			return btree.NewHybrid(m, btree.HybridBTreeConfig{
				NMPLevels: p.BTreeNMPLevels, Window: p.Window,
			})
		},
	}
}

// --- Skiplist -------------------------------------------------------------

func skiplistEngine() Engine {
	return Engine{
		Name: "skiplist",
		NewSimHybrid: func(m *machine.Machine, p SimParams) SimHybrid {
			return skiplist.NewHybrid(m, skiplist.HybridConfig{
				Levels: p.SkiplistLevels, NMPLevels: p.SkiplistNMPLevels,
				KeyMax: p.KeyMax, Window: p.Window, Seed: p.Seed,
			})
		},
	}
}

// --- B-skiplist -----------------------------------------------------------

func bskiplistEngine() Engine {
	return Engine{
		Name: "bskiplist",
		NewSimHybrid: func(m *machine.Machine, p SimParams) SimHybrid {
			return bskiplist.NewHybrid(m, bskiplist.Config{
				Levels: p.BSkiplistLevels, NMPLevels: p.BSkiplistNMPLevels,
				KeyMax: p.KeyMax, Window: p.Window,
			})
		},
	}
}
