package core

import (
	"fmt"
	"strings"

	"hybrids/internal/metrics"
)

// PartitionStats is one partition's management-plane snapshot, read
// while holding the partition through the barrier path — so every field
// is consistent with each other, even while traffic flows, and after
// Close.
type PartitionStats struct {
	// Partition is the partition index.
	Partition int `json:"partition"`
	// Ops counts data operations applied to the partition, the reads its
	// host portion answered included.
	Ops uint64 `json:"ops"`
	// Built counts pairs loaded by Build (bypassing the lock).
	Built uint64 `json:"built"`
	// Batches counts lock holds; BatchOps sums the operations, scans and
	// barriers they applied, so mean ops per hold = BatchOps/Batches. A
	// read the host portion answered is in neither.
	Batches uint64 `json:"batches"`
	// BatchOps sums the operations, scans and barriers of every hold.
	BatchOps uint64 `json:"batch_ops"`
	// StoreLen is the partition store's pair count.
	StoreLen int `json:"store_len"`
	// Store maps the partition store's structural instrument names
	// (core/p<i>/store/...) to their values; empty when the engine
	// exposes none.
	Store map[string]uint64 `json:"store,omitempty"`
}

// PartitionStats snapshots partition p while holding it (the same
// barrier Len and Dump use), which is what makes it race-free and exact.
// The tallies are the partition's plain fields, written only by its
// holder, whichever way in it took; the barrier's own round is among
// them. Ops adds the partition's hit cells (hitsOn), read after the
// barrier. It and ExportMetrics are the only readers. Safe to call
// concurrently with traffic and after Close.
func (h *Hybrid) PartitionStats(p int) (st PartitionStats) {
	part := h.parts[p]
	h.barrier(p, func(Store) { st, _ = part.stats() })
	st.Ops += h.hitsOn(p)
	return st
}

// ExportMetrics captures every core/p<i>/ instrument — the counters ops,
// built and the store's own, and the batch histogram with its shape
// buckets — partition by partition through the barrier path, so each
// partition's tallies are read while holding the partition (the read
// rule PartitionStats states, ops with the partition's hit cells added),
// and the export never races the data path. Partitions are visited one
// after another, not atomically (the same contract as Len and Scan).
// Safe during traffic and after Close.
func (h *Hybrid) ExportMetrics() (metrics.Snapshot, []metrics.HistSnapshot) {
	counters := make(metrics.Snapshot)
	var hists []metrics.HistSnapshot
	for p, part := range h.parts {
		var st PartitionStats
		var buckets [metrics.NumBuckets]uint64
		h.barrier(p, func(Store) { st, buckets = part.stats() })
		st.Ops += h.hitsOn(p)
		hists = append(hists, st.export(counters, buckets))
	}
	return counters, hists
}

// stats reads the partition's tallies, its store's length and counters,
// and the batch buckets. Only the holder calls it.
func (p *partition) stats() (PartitionStats, [metrics.NumBuckets]uint64) {
	st := PartitionStats{
		Partition: p.id,
		Ops:       p.ops,
		Built:     p.built,
		Batches:   p.rounds,
		BatchOps:  p.batchSum,
		StoreLen:  p.store.Len(),
	}
	if counters := p.reg.Snapshot(); len(counters) > 0 {
		prefix := fmt.Sprintf("core/p%d/store/", p.id)
		st.Store = make(map[string]uint64, len(counters))
		for name, v := range counters {
			st.Store[strings.TrimPrefix(name, prefix)] = v
		}
	}
	return st, *p.buckets
}

// export adds st's counters to counters under their core/p<i>/ names and
// returns its batch histogram, whose shape is buckets.
func (st PartitionStats) export(counters metrics.Snapshot, buckets [metrics.NumBuckets]uint64) metrics.HistSnapshot {
	prefix := fmt.Sprintf("core/p%d/", st.Partition)
	counters[prefix+"ops"], counters[prefix+"built"] = st.Ops, st.Built
	for name, v := range st.Store {
		counters[prefix+"store/"+name] = v
	}
	return metrics.HistSnapshot{Name: prefix + "batch", Sum: st.BatchOps, Count: st.Batches, Buckets: buckets}
}
