// Package kv defines the key-value operation vocabulary shared by all
// simulated data structures, the offload runtime (internal/dsim/offload,
// whose adapters take an Op) and the experiment drivers. The operation
// kinds themselves live in internal/hds, the one contract shared with the
// native runtime; this package narrows them to the simulator's 32-bit
// wire format, and fc.OpFor encodes a kind as a publication-slot op code.
package kv

import (
	"hybrids/internal/hds"
	"hybrids/internal/radix"
	"hybrids/internal/sim/machine"
)

// Kind is a data structure operation type — an alias of the shared
// internal/hds enum, so simulated and native stacks speak one vocabulary.
type Kind = hds.Kind

// Operation kinds, re-exported from internal/hds. They match the paper's
// workload mixes: YCSB-C is all Read; the sensitivity workloads mix Read,
// Insert and Remove; Update exercises the hybrid structures'
// value-propagation path. Scan (YCSB-E's range read; Op.Value carries the
// pair limit) is served by the native runtime only — the simulated
// structures do not implement it, so simulator workloads must not mix it.
const (
	Read   = hds.Read
	Update = hds.Update
	Insert = hds.Insert
	Remove = hds.Remove
	Scan   = hds.Scan
)

// Op is one key-value operation.
type Op struct {
	Kind  Kind
	Key   uint32
	Value uint32
}

// Pair is one key-value record, the simulator side's only pair type:
// ycsb.Pair (load sets), every structure's KV (bulk-build input, Dump
// output) and store.KV alias it, so a load set reaches a bulk build and a
// Dump reaches its caller without a copy.
type Pair struct {
	Key, Value uint32
}

// SortedUnique returns pairs sorted ascending by key, keeping the first of
// any run of pairs that share a key: the form every bulk build starts
// from. Input that is already strictly ascending is returned as is, after
// one pass over it; anything else is sorted into a fresh slice. pairs is
// never modified, and callers must not write to the result.
func SortedUnique(pairs []Pair) []Pair {
	i := 1
	for i < len(pairs) && pairs[i-1].Key < pairs[i].Key {
		i++
	}
	if i >= len(pairs) {
		return pairs
	}
	sorted := append([]Pair(nil), pairs...)
	radix.SortFunc(sorted, func(p Pair) uint32 { return p.Key })
	uniq := sorted[:0]
	for i, p := range sorted {
		if i == 0 || p.Key != sorted[i-1].Key {
			uniq = append(uniq, p)
		}
	}
	return uniq
}

// Store is a simulated concurrent key-value index executing operations
// synchronously on a host hardware thread.
type Store interface {
	// Apply executes op on behalf of host thread (which must equal the
	// context's core), returning the read value (for Read) and the
	// operation's success flag.
	Apply(c *machine.Ctx, thread int, op Op) (value uint32, ok bool)
}

// RangePartitioner maps keys to NMP partitions by predefined equal-size
// key ranges (§3.3: "nodes in the NMP-managed portion are distributed
// across NMP partitions based on predefined, equal-size ranges of keys").
type RangePartitioner struct {
	// KeyMax is the exclusive upper bound of the key space; valid keys
	// are 1..KeyMax-1 (0 is reserved as the -inf sentinel key).
	KeyMax uint32
	// Parts is the number of NMP partitions.
	Parts int
}

// Part returns the partition owning key.
func (r RangePartitioner) Part(key uint32) int {
	if key >= r.KeyMax {
		panic("kv: key outside partitioned key space")
	}
	span := (uint64(r.KeyMax) + uint64(r.Parts) - 1) / uint64(r.Parts)
	return int(uint64(key) / span)
}

// Range returns partition p's key range [lo, hi).
func (r RangePartitioner) Range(p int) (lo, hi uint32) {
	span := (uint64(r.KeyMax) + uint64(r.Parts) - 1) / uint64(r.Parts)
	l := uint64(p) * span
	h := l + span
	if h > uint64(r.KeyMax) {
		h = uint64(r.KeyMax)
	}
	return uint32(l), uint32(h)
}

// AsyncStore is implemented by every simulated hybrid: a batch of
// operations is executed with up to the configured window of NMP offloads
// in flight (§3.5). A window of one is the blocking design of §3.2, so a
// hybrid built with window 1 runs its blocking calls through ApplyBatch.
type AsyncStore interface {
	// ApplyBatch executes ops in order of issue, overlapping NMP-side
	// work, and returns the number of successful operations. It records
	// Ctx.OpDone at each operation's completion itself.
	ApplyBatch(c *machine.Ctx, thread int, ops []Op) (succeeded int)
}
