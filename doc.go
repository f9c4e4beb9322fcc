// Package hybrids reproduces "HybriDS: Cache-Conscious Concurrent Data
// Structures for Near-Memory Processing Architectures" (SPAA 2022).
//
// The repository contains:
//
//   - internal/sim/...: a deterministic virtual-time NMP architecture
//     simulator (engine, cache hierarchy with coherence directory and TLB,
//     HMC-style vaulted DRAM, NMP cores with node buffers);
//   - internal/dsim/...: the paper's data structures running on the
//     simulated machine — lock-free / NMP-based / hybrid skiplists and
//     seqlock / hybrid B+ trees, plus the flat-combining publication-list
//     fabric with blocking and non-blocking NMP calls;
//   - internal/core and internal/cds: the hybrid model as a native Go
//     library, each partition served by the caller holding its lock;
//   - internal/server, internal/admin, cmd/hybridsd, cmd/hybridsload: a
//     TCP server over core, its HTTP management plane, a YCSB load driver;
//   - internal/ycsb and internal/exp: YCSB workloads, and one experiment
//     per paper table/figure, driven by cmd/hybrids;
//   - internal/doccheck: tests holding the docs and design rules to code.
//
// See README.md for a tour, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for paper-vs-measured results.
package hybrids
