package exp

import (
	"os"
	"sync"
	"sync/atomic"

	"hybrids/internal/metrics"
	"hybrids/internal/sim/trace"
)

// DefaultTraceEvents is the per-track event ring capacity used when a
// TraceSpec does not set Events.
const DefaultTraceEvents = 1 << 16

// TraceSpec asks the harness to capture a cycle-level event trace of one
// measured grid cell and export it as Chrome trace_event JSON to Path
// (viewable in Perfetto, https://ui.perfetto.dev). Exactly one cell is
// traced — the first declared job of the first grid the spec sees — so the
// capture is deterministic and its cost bounded regardless of experiment
// size. Tracing never advances virtual time: the traced run's measurements
// are bit-identical to an untraced run's.
type TraceSpec struct {
	// Path is the output file for the Chrome trace_event JSON.
	Path string
	// Events bounds each track's event ring (0 = DefaultTraceEvents);
	// older events fall off first.
	Events int

	used atomic.Bool
	mu   sync.Mutex // guards err
	err  error
}

// claim reserves the capture for the calling grid; it returns true exactly
// once per spec (nil-safe).
func (t *TraceSpec) claim() bool { return t != nil && t.used.CompareAndSwap(false, true) }

func (t *TraceSpec) events() int {
	if t.Events > 0 {
		return t.Events
	}
	return DefaultTraceEvents
}

// write exports tr to Path, retaining the first error for Err.
func (t *TraceSpec) write(tr *trace.Tracer) {
	f, err := os.Create(t.Path)
	if err == nil {
		err = tr.WriteChromeJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	t.mu.Lock()
	if t.err == nil {
		t.err = err
	}
	t.mu.Unlock()
}

// Err returns the first error encountered writing the capture (nil when it
// succeeded or never ran; nil-safe).
func (t *TraceSpec) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// AttrSummary is one cell's per-operation latency attribution: virtual
// cycles summed per bucket over Samples attributed operations during the
// measured phase. The buckets sum exactly to Total by construction
// (trace.CoreAttr.Flush attributes every elapsed cycle of every interval).
type AttrSummary struct {
	// Samples is the number of attributed operation completions.
	Samples uint64 `json:"samples"`
	// HostCache: on-chip host cycles (L1/L2 hits, atomic extras, TLB walks).
	HostCache uint64 `json:"host_cache"`
	// Coherence: stalls invalidating remote L1 copies on stores.
	Coherence uint64 `json:"coherence"`
	// DRAM: host LLC-miss fetches (off-chip link + vault bank service).
	DRAM uint64 `json:"dram"`
	// OffloadWait: the NMP round trip as seen by the host, minus NMPSerial.
	OffloadWait uint64 `json:"offload_wait"`
	// NMPSerial: time requests spent queued before combiner pickup.
	NMPSerial uint64 `json:"nmp_serial"`
	// HostCompute: simple-instruction compute plus unattributed residual.
	HostCompute uint64 `json:"host_compute"`
	// Total is the summed interval cycles across all samples.
	Total uint64 `json:"total"`
}

// BucketSum returns bucket b's summed cycles.
func (a *AttrSummary) BucketSum(b trace.Bucket) uint64 { return *a.buckets()[b] }

// PerOp returns bucket b's mean cycles per attributed operation.
func (a *AttrSummary) PerOp(b trace.Bucket) float64 {
	if a.Samples == 0 {
		return 0
	}
	return float64(a.BucketSum(b)) / float64(a.Samples)
}

// buckets maps each trace.Bucket to its field.
func (a *AttrSummary) buckets() [trace.NumBuckets]*uint64 {
	return [...]*uint64{&a.HostCache, &a.Coherence, &a.DRAM, &a.OffloadWait, &a.NMPSerial, &a.HostCompute}
}

// attrFrom assembles a cell's attribution summary from a measured-phase
// registry snapshot delta, or nil when attribution recorded no samples
// (attribution off, or no completions in the phase).
func attrFrom(delta metrics.Snapshot) *AttrSummary {
	n := delta.Get(trace.AttrTotalMetric + "/count")
	if n == 0 {
		return nil
	}
	a := &AttrSummary{Samples: n, Total: delta.Get(trace.AttrTotalMetric + "/sum")}
	for b, f := range a.buckets() {
		*f = delta.Get(trace.Bucket(b).MetricName() + "/sum")
	}
	return a
}
