// Package exp defines one reproducible experiment per table and figure in
// the HybriDS paper's evaluation (§5), plus ablation sweeps over the design
// parameters. Each experiment builds fresh simulated machines, runs the
// workloads, and reports the same rows/series the paper plots.
package exp

import (
	"hybrids/internal/sim/machine"
	"hybrids/internal/store"
)

// Scale fixes every size parameter of an experiment run. Simulation cost
// scales with the number of measured operations, not with structure size,
// so the default SmallScale keeps the paper's Table 1 machine and
// paper-sized structures and shrinks only the measured phases; the
// locality regimes that drive the results are therefore exact:
//
//   - the whole structure stays much larger than the LLC, and
//   - the hybrid host-managed portion is sized to the LLC by the paper's
//     own split formulas (§3.3, §3.4).
type Scale struct {
	Name string

	// Machine is the simulated hardware configuration.
	Machine machine.Config

	// SimParams sizes every simulated structure and carries the key
	// space and the seed. Its Window is the scale's non-blocking in-flight
	// budget ("hybrid-nonblocking4" uses 4 in the paper); each variant
	// substitutes its own window.
	store.SimParams

	// OpsPerThread is the measured operation count per host thread;
	// WarmupPerThread runs first to reach cache steady state.
	OpsPerThread    int
	WarmupPerThread int

	// ThreadCounts is the scalability sweep (Figures 5a, 6a).
	ThreadCounts []int
	// MaxThreads is the thread count for single-point experiments.
	MaxThreads int

	// Parallel is the number of grid cells an experiment measures
	// concurrently (0 or 1: serial). Every cell simulates on a private
	// machine/engine/registry and cells share only immutable inputs, so
	// results are bit-identical at any setting; see runCells.
	Parallel int

	// Attr enables per-operation latency attribution: every cell's host
	// cores split their measured cycles into trace.Bucket categories, each
	// Result gains an attribution table next to its throughput table, and
	// Cell.Attr carries the sums for JSON emission. Attribution is pure
	// bookkeeping and does not change measured timing.
	Attr bool

	// Trace, when non-nil, captures a Chrome trace_event JSON of the first
	// measured cell (see TraceSpec). Tracing does not change measured
	// timing either.
	Trace *TraceSpec
}

// SmallScale is the default. Cycle-level simulation cost scales with the
// number of operations, not the structure size, so the default keeps the
// paper's exact Table 1 machine and paper-sized structures (the skiplist
// is the paper's exact 2^22 keys / 22 levels / 9 NMP levels; the B+ tree
// is the paper's 30M keys, 128 B nodes, 9 levels, 3 NMP levels) and
// shrinks only the measured operation counts.
func SmallScale() Scale {
	return Scale{
		Name:    "small",
		Machine: machine.Default(),
		SimParams: store.SimParams{
			SkiplistRecords:    1 << 22,
			SkiplistLevels:     22,
			SkiplistNMPLevels:  9, // host top 13 levels ~ 2^13 nodes ~ LLC (paper's split)
			BTreeRecords:       30_000_000,
			BTreeNMPLevels:     3, // host top 6 of 9 levels ~ 1 MB ~ LLC (paper's split)
			BSkiplistRecords:   1 << 22,
			BSkiplistLevels:    8, // 2^22 records / fill 8 -> ~8-level hierarchy
			BSkiplistNMPLevels: 4, // host top 4 levels ~ 1.2k fat nodes ~ 150 KB << LLC
			KeyMax:             1 << 30,
			Window:             4,
			Seed:               42,
		},
		OpsPerThread:    2000,
		WarmupPerThread: 1000,
		ThreadCounts:    []int{1, 2, 4, 8},
		MaxThreads:      8,
	}
}

// PaperScale runs longer measured phases on the same paper-sized
// structures.
func PaperScale() Scale {
	sc := SmallScale()
	sc.Name = "paper"
	sc.OpsPerThread = 6000
	sc.WarmupPerThread = 3000
	return sc
}

// QuickScale is a sub-tiny scale for CI smoke runs and determinism
// regression tests: one short sweep, minimal measured phases.
func QuickScale() Scale {
	sc := TinyScale()
	sc.Name = "quick"
	sc.OpsPerThread = 100
	sc.WarmupPerThread = 30
	sc.ThreadCounts = []int{1, 2}
	sc.MaxThreads = 2
	return sc
}

// TinyScale is for harness self-tests only.
func TinyScale() Scale {
	sc := SmallScale()
	sc.Name = "tiny"
	sc.Machine.Mem.HostMemSize = 32 << 20
	sc.Machine.Mem.NMPMemSize = 32 << 20
	sc.SkiplistRecords = 1 << 12
	sc.SkiplistLevels = 12
	sc.SkiplistNMPLevels = 5
	sc.BTreeRecords = 1 << 13
	sc.BTreeNMPLevels = 2
	sc.BSkiplistRecords = 1 << 12
	sc.BSkiplistLevels = 5
	sc.BSkiplistNMPLevels = 2
	sc.KeyMax = 1 << 20
	sc.OpsPerThread = 150
	sc.WarmupPerThread = 50
	sc.ThreadCounts = []int{1, 4}
	sc.MaxThreads = 4
	return sc
}
