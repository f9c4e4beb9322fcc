// Package metrics implements the unified instrumentation registry shared
// by every layer of the simulator: the discrete-event engine, the memory
// system, the NMP offload runtime and the data structures all register
// named counters in one per-machine Registry, and the experiment harness
// measures phases by snapshot/delta over that single namespace instead of
// ad-hoc per-subsystem stat structs. A simulator histogram is nothing but
// a pair of those counters, "<name>/sum" and "<name>/count": every reader
// (Table 2, the attribution report) wants a per-operation mean over a
// delta, which the pair gives exactly.
//
// Instrumentation is pure Go-side bookkeeping: it never advances virtual
// time, so adding or reading metrics cannot perturb simulated behaviour.
// A Registry is intended for single-goroutine use (the engine runs exactly
// one actor at a time); it is not synchronized.
//
// The serving data plane keeps no registry at all: each connection
// accumulates into Local cells — single-writer atomics it owns — and the
// server adds a retiring connection's cells into cells of its own. A
// snapshotter that wants a live view sums the server's cells with
// Local.Load over the live owners, with no lock anywhere near the data
// path. The native layers that keep a distribution's shape bucket their
// samples with BucketIndex and export it as a HistSnapshot.
package metrics

import (
	"math/bits"
	"sort"
	"sync/atomic"
)

// Counter is a monotonically increasing named event count.
type Counter struct{ v uint64 }

// Inc adds one to the counter.
func (c *Counter) Inc() { c.v++ }

// Add adds n to the counter.
func (c *Counter) Add(n uint64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// NumBuckets is the number of shape buckets a HistSnapshot carries: one
// per possible uint64 bit length (bucket 0 counts zero samples). Local
// accumulators that bucket samples with BucketIndex size their bucket
// arrays with it, so their shape exports as a HistSnapshot.
const NumBuckets = 65

// Histogram accumulates a distribution of uint64 samples as two registry
// counters, "<name>/sum" and "<name>/count", so snapshots carry it. Sum and
// count are exactly the representation the paper's Table 2 delay
// decomposition needs (mean = sum/count over a measured phase).
type Histogram struct{ sum, count *Counter }

// Observe records one sample.
func (h Histogram) Observe(v uint64) {
	h.sum.Add(v)
	h.count.Inc()
}

// BucketIndex returns the bucket a sample falls in: its bit length.
func BucketIndex(v uint64) int { return bits.Len64(v) }

// Local is a single-writer counter cell for hot-path accumulation
// outside the registry: exactly one goroutine increments it, while any
// goroutine may Load a consistent snapshot concurrently. It is the
// building block for per-connection metric accumulators, added into
// their owner's cells only when the connection retires — the data path
// then performs no shared-memory read-modify-write beyond its own
// cacheline.
type Local struct{ v atomic.Uint64 }

// Inc adds one to the cell.
func (l *Local) Inc() { l.v.Add(1) }

// Add adds n to the cell.
func (l *Local) Add(n uint64) { l.v.Add(n) }

// Load returns the cell's current value. Safe from any goroutine.
func (l *Local) Load() uint64 { return l.v.Load() }

// Registry is a flat namespace of counters. Registration is idempotent:
// asking for an existing name returns the same counter, so independent
// subsystems can share partition- or core-scoped metrics without
// coordination.
type Registry struct {
	counters map[string]*Counter
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{counters: make(map[string]*Counter)}
}

// Counter returns the counter registered under name, creating it on first
// use.
func (r *Registry) Counter(name string) *Counter {
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Histogram returns the histogram named name: its <name>/sum and
// <name>/count counters, created on first use.
func (r *Registry) Histogram(name string) Histogram {
	return Histogram{sum: r.Counter(name + "/sum"), count: r.Counter(name + "/count")}
}

// Names returns every registered counter name in sorted order
// (deterministic across runs).
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.counters))
	for name := range r.counters {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// LookupCounter returns the counter registered under name without
// creating it. Unlike Counter it never mutates the registry, so it is
// safe to call concurrently with other lookups once registration has
// quiesced (all instruments are created at construction time).
func (r *Registry) LookupCounter(name string) (*Counter, bool) {
	c, ok := r.counters[name]
	return c, ok
}

// HistSnapshot is a point-in-time copy of one native histogram
// (server/batch, core/p*/batch): its sum, count and power-of-two shape
// buckets. It is the unit management-plane exporters carry histogram
// state in (Prometheus mapping, JSON introspection), keeping the type
// distinction between counters and histograms that a flat Snapshot loses.
type HistSnapshot struct {
	// Name is the histogram's exported name.
	Name string
	// Sum is the total of all observed samples.
	Sum uint64
	// Count is the number of observed samples.
	Count uint64
	// Buckets counts samples by bit length (Buckets[i] holds samples in
	// [2^(i-1), 2^i); Buckets[0] counts zeros).
	Buckets [NumBuckets]uint64
}

// Mean returns the snapshot's average sample, or 0 when empty.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Snapshot captures every counter's current value.
func (r *Registry) Snapshot() Snapshot {
	out := make(Snapshot, len(r.counters))
	for name, c := range r.counters {
		out[name] = c.v
	}
	return out
}

// Snapshot is a point-in-time copy of a registry's counters, used for
// phase measurement via Sub deltas.
type Snapshot map[string]uint64

// Get returns the snapshot value of name (0 when absent).
func (s Snapshot) Get(name string) uint64 { return s[name] }

// Sub returns s - prev element-wise. Counters absent from prev are taken
// as 0 (registered mid-phase); counters absent from s are dropped.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	out := make(Snapshot, len(s))
	for name, v := range s {
		out[name] = v - prev[name]
	}
	return out
}
