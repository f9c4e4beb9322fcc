package core

import (
	"fmt"
	"strings"

	"hybrids/internal/metrics"
)

// PartitionStats is one partition's management-plane snapshot, read
// while holding the partition through the barrier path — so every field
// is consistent with each other and with list order, even while traffic
// flows, and after Close.
type PartitionStats struct {
	// Partition is the partition index.
	Partition int `json:"partition"`
	// Ops counts data operations applied to the partition.
	Ops uint64 `json:"ops"`
	// Built counts pairs loaded by Build (bypassing the list).
	Built uint64 `json:"built"`
	// Batches counts combine rounds; BatchOps sums the operations and
	// barriers they applied, so mean combine batch = BatchOps/Batches.
	Batches uint64 `json:"batches"`
	// BatchOps sums the operations and barriers of every combine round.
	BatchOps uint64 `json:"batch_ops"`
	// MailboxSum sums the entries each combine round took off the list
	// (mean depth = MailboxSum/Batches); the saturation signal.
	MailboxSum uint64 `json:"mailbox_sum"`
	// QueueLen counts the entries published behind the snapshot's
	// barrier and not yet taken (a Batcher round is one entry per
	// partition, whatever it carries).
	QueueLen int `json:"queue_len"`
	// StoreLen is the partition store's pair count.
	StoreLen int `json:"store_len"`
	// Store maps the partition store's structural instrument names
	// (core/p<i>/store/...) to their values; empty when the engine
	// exposes none.
	Store map[string]uint64 `json:"store,omitempty"`
}

// PartitionStats snapshots partition p in list order: the read runs
// while holding p, after every operation published before it (the same
// barrier Len and Dump use), which is also what makes it race-free and
// exact. The tallies are the partition's plain fields, written only by
// its holder, whichever way in it took; the barrier's own round is among
// them. It and ExportMetrics are the only readers. Safe to call
// concurrently with traffic and after Close.
func (h *Hybrid) PartitionStats(p int) PartitionStats {
	part := h.parts[p]
	storePrefix := fmt.Sprintf("core/p%d/store/", p)
	var out PartitionStats
	h.barrier(p, func(s Store) {
		out = PartitionStats{
			Partition:  p,
			Ops:        part.ops,
			Built:      part.built,
			Batches:    part.rounds,
			BatchOps:   part.batchSum,
			MailboxSum: part.mailboxSum,
			QueueLen:   part.queued(),
			StoreLen:   s.Len(),
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
// built and the store's own, and the batch and mailbox histograms with
// their shape buckets — partition by partition through the barrier path,
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
// and its two histograms appended to hists. The caller holds p, or the
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
	batch := metrics.HistSnapshot{Name: prefix + "batch", Sum: part.batchSum, Count: part.rounds}
	mailbox := metrics.HistSnapshot{Name: prefix + "mailbox", Sum: part.mailboxSum, Count: part.rounds}
	for i, pair := range part.buckets {
		batch.Buckets[i], mailbox.Buckets[i] = pair[0], pair[1]
	}
	return append(hists, batch, mailbox)
}
