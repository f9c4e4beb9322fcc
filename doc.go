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
//   - internal/core and internal/cds: a native (non-simulated) Go library
//     realizing the paper's hybrid programming model with combiner
//     goroutines standing in for NMP cores;
//   - internal/ycsb: YCSB-compatible workload generation;
//   - internal/exp: one reproducible experiment per paper table/figure,
//     driven by cmd/hybrids.
//
// See README.md for a tour, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for paper-vs-measured results.
package hybrids
