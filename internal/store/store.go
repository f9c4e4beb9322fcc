// Package store is the engine registry: the single place a simulated
// HybriDS hybrid (host portion + NMP portion behind the shared offload
// runtime) is wired into the repository's two stacks. An engine name
// chooses the simulated hybrid only; natively every engine runs on the
// one partition store, cds.BTree. bench/, the experiment grids and the
// cross-stack conformance suite build every hybrid through
// Engines/MustEngine, and the conformance suite covers each registered
// engine with no per-engine code. The grids' non-hybrid baselines
// (lock-free skiplist, host-only B+ tree) are not engines: exp builds
// them directly, and an experiment names the engines it measures.
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

// KV is one key-value pair of a simulated hybrid's load set or contents.
type KV = kv.Pair

// SimHybrid is the simulated face of an engine: a HybriDS hybrid on the
// cycle-level machine, driveable by the experiment harness and the
// conformance suite without knowing the concrete structure.
type SimHybrid interface {
	// Apply executes op on behalf of host thread (which must equal the
	// context's core) as one blocking NMP call, returning the read value
	// (for Read) and the operation's success flag.
	Apply(c *machine.Ctx, thread int, op kv.Op) (value uint32, ok bool)
	// ApplyBatch executes ops in order of issue with up to the configured
	// window of NMP offloads in flight (§3.5; window 1 is the blocking
	// design of §3.2) and returns the number that succeeded. It records
	// Ctx.OpDone at each operation's completion itself.
	ApplyBatch(c *machine.Ctx, thread int, ops []kv.Op) (succeeded int)
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
	// NewSimHybrid builds the engine's simulated hybrid on m, sized by p.
	// The result is not yet loaded or started.
	NewSimHybrid func(m *machine.Machine, p SimParams) SimHybrid
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
