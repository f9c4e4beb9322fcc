package exp

import (
	"hybrids/internal/dsim/bskiplist"
	"hybrids/internal/dsim/btree"
	"hybrids/internal/dsim/kv"
	"hybrids/internal/dsim/skiplist"
	"hybrids/internal/sim/machine"
)

// SimParams fixes every engine's simulated sizing in one value; Scale
// embeds it, so these are the fields experiment grids sweep. Engines read
// only their own fields, so one SimParams parameterizes any engine's
// hybrid.
type SimParams struct {
	// SkiplistRecords, SkiplistLevels and SkiplistNMPLevels size the
	// hybrid skiplist (records, tower levels, NMP-side bottom levels).
	SkiplistRecords   int
	SkiplistLevels    int
	SkiplistNMPLevels int

	// BTreeRecords and BTreeNMPLevels size the hybrid B+ tree (records,
	// NMP-side level count).
	BTreeRecords   int
	BTreeNMPLevels int

	// BSkiplistRecords, BSkiplistLevels and BSkiplistNMPLevels size the
	// hybrid B-skiplist (records, list levels, NMP-side bottom levels).
	BSkiplistRecords   int
	BSkiplistLevels    int
	BSkiplistNMPLevels int

	// KeyMax bounds the key space for range partitioning.
	KeyMax uint32
	// Window is the non-blocking in-flight budget per host thread
	// (1 = blocking behaviour).
	Window int
	// Seed feeds deterministic structure randomness (tower heights) and,
	// offset per phase, bulk-load randomness.
	Seed uint64
}

// SimHybrid is a HybriDS hybrid on the cycle-level machine: a structure
// (Apply, one blocking NMP call on behalf of a host thread equal to the
// context's core, and the untimed Build) that the grids and the
// conformance suite drive without knowing its concrete type.
type SimHybrid interface {
	structure
	// ApplyBatch executes ops in order of issue with up to the configured
	// window of NMP offloads in flight (§3.5; window 1 is the blocking
	// design of §3.2) and returns the number that succeeded. It records
	// Ctx.OpDone at each operation's completion itself.
	ApplyBatch(c *machine.Ctx, thread int, ops []kv.Op) (succeeded int)
	// Start spawns the NMP combiner daemons. Call once, after Build and
	// before Machine.Run.
	Start()
	// Dump returns the final contents in ascending key order (untimed).
	Dump() []kv.Pair
	// CheckInvariants validates structural invariants at quiescence.
	CheckInvariants() error
}

// Engine is one simulated HybriDS hybrid (host portion + NMP portion
// behind the shared offload runtime) under its registry name. The grids'
// non-hybrid baselines (lock-free skiplist, host-only B+ tree) are not
// engines; runner.go builds them directly.
type Engine struct {
	// Name is the engine's registry key (experiment ID suffix, variant
	// build key).
	Name string
	// NewSimHybrid builds the engine's hybrid on m, sized by p. The
	// result is not yet loaded or started.
	NewSimHybrid func(m *machine.Machine, p SimParams) SimHybrid
}

// Engines returns every simulated engine in registration order (the
// presentation order of grids).
func Engines() []Engine {
	return []Engine{
		{"btree", func(m *machine.Machine, p SimParams) SimHybrid {
			return btree.NewHybrid(m, btree.HybridBTreeConfig{NMPLevels: p.BTreeNMPLevels, Window: p.Window})
		}},
		{"skiplist", func(m *machine.Machine, p SimParams) SimHybrid {
			return skiplist.NewHybrid(m, skiplist.HybridConfig{Levels: p.SkiplistLevels, NMPLevels: p.SkiplistNMPLevels,
				KeyMax: p.KeyMax, Window: p.Window, Seed: p.Seed})
		}},
		{"bskiplist", func(m *machine.Machine, p SimParams) SimHybrid {
			return bskiplist.NewHybrid(m, bskiplist.Config{Levels: p.BSkiplistLevels, NMPLevels: p.BSkiplistNMPLevels,
				KeyMax: p.KeyMax, Window: p.Window})
		}},
	}
}

// lookupEngine returns the engine registered under name, panicking on an
// unknown name: every caller's names are compiled in.
func lookupEngine(name string) Engine {
	for _, e := range Engines() {
		if e.Name == name {
			return e
		}
	}
	panic("exp: unknown engine " + name)
}
