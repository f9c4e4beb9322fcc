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
	// Ops counts data operations applied to the partition.
	Ops uint64 `json:"ops"`
	// Built counts pairs loaded by Build (bypassing the lock).
	Built uint64 `json:"built"`
	// Batches counts lock holds; BatchOps sums the operations, scans and
	// barriers they applied, so mean ops per hold = BatchOps/Batches.
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
// them. It and ExportMetrics are the only readers. Safe to call
// concurrently with traffic and after Close.
func (h *Hybrid) PartitionStats(p int) PartitionStats {
	part := h.parts[p]
	storePrefix := fmt.Sprintf("core/p%d/store/", p)
	var out PartitionStats
	h.barrier(p, func(s Store) {
		out = PartitionStats{
			Partition: p,
			Ops:       part.ops,
			Built:     part.built,
			Batches:   part.rounds,
			BatchOps:  part.batchSum,
			StoreLen:  s.Len(),
		}
		for _, name := range h.reg.Names() {
			if strings.HasPrefix(name, storePrefix) {
				if out.Store == nil {
					out.Store = make(map[string]uint64)
				}
				c, _ := h.reg.LookupCounter(name)
				out.Store[strings.TrimPrefix(name, storePrefix)] = c.Value()
			}
		}
	})
	return out
}

// ExportMetrics captures every core/p<i>/ instrument — the counters ops,
// built and the store's own, and the batch histogram with its shape
// buckets — partition by partition through the barrier path,
// so each partition's tallies are read while holding the partition (the
// read rule PartitionStats states), and the export never races the data
// path. Partitions are visited one after another, not atomically (the
// same contract as Len and Scan). Safe during traffic and after Close.
func (h *Hybrid) ExportMetrics() (metrics.Snapshot, []metrics.HistSnapshot) {
	counters := make(metrics.Snapshot)
	var hists []metrics.HistSnapshot
	for p := range h.parts {
		h.barrier(p, func(Store) { hists = h.tally(p, counters, hists) })
	}
	return counters, hists
}

// tally reads partition p's instruments: its counters into counters,
// and its batch histogram appended to hists. The caller holds p, or the
// map is quiescent.
func (h *Hybrid) tally(p int, counters metrics.Snapshot, hists []metrics.HistSnapshot) []metrics.HistSnapshot {
	part, prefix := h.parts[p], fmt.Sprintf("core/p%d/", p)
	counters[prefix+"ops"], counters[prefix+"built"] = part.ops, part.built
	for _, name := range h.reg.Names() {
		if strings.HasPrefix(name, prefix) {
			c, _ := h.reg.LookupCounter(name)
			counters[name] = c.Value()
		}
	}
	return append(hists, metrics.HistSnapshot{Name: prefix + "batch", Sum: part.batchSum, Count: part.rounds, Buckets: *part.buckets})
}
