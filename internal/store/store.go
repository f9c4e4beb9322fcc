// Package store is the engine registry: the single place a simulated
// HybriDS hybrid (host portion + NMP portion behind the shared offload
// runtime) is wired into the repository's two stacks. An engine name
// chooses the simulated hybrid only; natively every engine runs on the
// one partition store, cds.BTree. Every consumer — bench/, the simulated
// experiment grids and the cross-stack conformance suite — resolves
// engines only through Engines/MustEngine, so adding a structure is a
// one-package change: implement the structure, append an Engine here, and
// the grids and the conformance tests pick it up with no per-consumer
// code.
package store

import (
	"hybrids/internal/cds"
	"hybrids/internal/core"
	"hybrids/internal/dsim/kv"
	"hybrids/internal/sim/machine"
)

// Tuning is empty: it stays only because bench/ writes
// NewNative(store.Tuning{}); the next benchmark change drops the
// parameter.
type Tuning struct{}

// SimParams fixes every engine's simulated sizing in one value; exp.Scale
// embeds it, so these are the fields experiment grids sweep. Engines read
// only their own fields, so one SimParams parameterizes any engine's
// hybrid.
type SimParams struct {
	// SkiplistRecords, SkiplistLevels and SkiplistNMPLevels size the
	// hybrid skiplist (records, tower levels, NMP-side bottom levels).
	SkiplistRecords   int
	SkiplistLevels    int
	SkiplistNMPLevels int

	// BTreeRecords, BTreeFill and BTreeNMPLevels size the hybrid B+ tree
	// (records, bulk-load fill per node, NMP-side level count).
	BTreeRecords   int
	BTreeFill      int
	BTreeNMPLevels int

	// BSkiplistRecords, BSkiplistLevels, BSkiplistNMPLevels and
	// BSkiplistFill size the hybrid B-skiplist (records, list levels,
	// NMP-side bottom levels, bulk-load entries per fat node).
	BSkiplistRecords   int
	BSkiplistLevels    int
	BSkiplistNMPLevels int
	BSkiplistFill      int

	// KeyMax bounds the key space for range partitioning.
	KeyMax uint32
	// Window is the non-blocking in-flight budget per host thread
	// (1 = blocking behaviour).
	Window int
	// Seed feeds deterministic structure randomness (tower heights) and,
	// offset per phase, bulk-load randomness.
	Seed uint64
}

// KV is one key-value pair of a simulated hybrid's load set or contents.
type KV = kv.Pair

// SimHybrid is the simulated face of an engine: a HybriDS hybrid on the
// cycle-level machine, driveable by the experiment harness and the
// conformance suite without knowing the concrete structure.
type SimHybrid interface {
	kv.Store
	kv.AsyncStore
	// Build bulk-loads the initial pairs (untimed). Call before Start.
	Build(load []KV)
	// Start spawns the NMP combiner daemons. Call once before Machine.Run.
	Start()
	// Dump returns the final contents in ascending key order (untimed).
	Dump() []KV
	// CheckInvariants validates structural invariants at quiescence.
	CheckInvariants() error
}

// Engine is one registered structure: everything a consumer needs to
// build it on either stack.
type Engine struct {
	// Name is the engine's registry key (experiment ID suffix, STATS
	// label).
	Name string
	// Desc is a short human label ("B+ tree") for titles and help text.
	Desc string
	// NewSimHybrid builds the engine's simulated hybrid on m, sized by p.
	// The result is not yet loaded or started.
	NewSimHybrid func(m *machine.Machine, p SimParams) SimHybrid
	// SimRecords returns the engine's simulated load-set size under p.
	SimRecords func(p SimParams) int
}

// NewNative returns the per-partition store factory the native runtime
// (internal/core) consumes. It is the same for every engine: a partition
// has one holder at a time, so its store is sequential, and cds.BTree is
// the one such store (DESIGN §5.7).
func (Engine) NewNative(Tuning) func(partition int) core.Store {
	return func(int) core.Store { return cds.NewBTree() }
}

// Engines returns every registered engine in registration order (the
// presentation order of grids).
func Engines() []Engine {
	return []Engine{btreeEngine(), skiplistEngine(), bskiplistEngine()}
}

// MustEngine returns the engine registered under name, panicking on an
// unknown name — every caller's names are compiled in.
func MustEngine(name string) Engine {
	for _, e := range Engines() {
		if e.Name == name {
			return e
		}
	}
	panic("store: unknown engine " + name)
}
