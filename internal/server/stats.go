package server

import "hybrids/internal/metrics"

// stat indexes the server's counters. Each stat is one cell of the
// server's base, one cell per connection and one serve-call tally, and
// every view loops over or indexes that one table: STATS, ExportMetrics,
// the close-time add and ConnsInfo. The stats are declared in name
// order, so STATS lists them as declared.
type stat uint8

const (
	statBadRequests stat = iota
	statBatchCount
	statBatchSum
	statConfigEpoch
	statConnsAccepted
	statConnsClosed
	statConnsRefused
	statOpsDelete
	statOpsGet
	statOpsPut
	statOpsScan
	statOpsStats
	statOpsUpdate
	statRejected
	statRequests
	statResponses
	statScanPairs
	statSlowOps
	statWriteTimeouts
	numStats
)

// batchHist names the coalesced batch-size histogram. Its sum and count
// are the statBatchSum and statBatchCount counters.
const batchHist = "server/batch"

// statNames is the exported name of each stat.
var statNames = [numStats]string{
	statBadRequests:   "server/bad_requests",
	statBatchCount:    batchHist + "/count",
	statBatchSum:      batchHist + "/sum",
	statConfigEpoch:   "server/config_epoch",
	statConnsAccepted: "server/conns_accepted",
	statConnsClosed:   "server/conns_closed",
	statConnsRefused:  "server/conns_refused",
	statOpsDelete:     "server/ops/delete",
	statOpsGet:        "server/ops/get",
	statOpsPut:        "server/ops/put",
	statOpsScan:       "server/ops/scan",
	statOpsStats:      "server/ops/stats",
	statOpsUpdate:     "server/ops/update",
	statRejected:      "server/rejected",
	statRequests:      "server/requests",
	statResponses:     "server/responses",
	statScanPairs:     "server/scan_pairs",
	statSlowOps:       "server/slow_ops",
	statWriteTimeouts: "server/write_timeouts",
}

// opStat is each protocol operation's server/ops/ stat.
var opStat = [OpStats + 1]stat{
	OpGet: statOpsGet, OpPut: statOpsPut, OpUpdate: statOpsUpdate,
	OpDelete: statOpsDelete, OpScan: statOpsScan, OpStats: statOpsStats,
}

// connStats is a connection's metric accumulators: atomic cells only the
// connection's goroutine writes, which the hot path bumps instead of
// taking the server mutex. The server's base is one more: a closing
// connection's totals are added into it, and the stats the server counts
// itself (connections and the config epoch) are counted only there. A
// live snapshot sums base with Load over every open connection.
type connStats struct {
	cells [numStats]metrics.Local
	// batchBuckets shapes the batch-size histogram: Local cells (one Inc
	// per coalesced batch) so the management plane can sum a live
	// histogram across open connections without racing the data path.
	batchBuckets [metrics.NumBuckets]metrics.Local
}
