// Package kv defines the 32-bit key-value operation vocabulary: the ops
// and pairs the YCSB generator draws, every simulated structure and the
// offload runtime take, and hybridsload sends. It imports only hds, whose
// kinds an Op carries, and radix, so a native binary that speaks it links
// none of the simulator; fc.OpFor encodes a kind as a publication-slot op
// code.
package kv

import (
	"hybrids/internal/hds"
	"hybrids/internal/radix"
)

// Op is one key-value operation. For hds.Scan, which only the native
// runtime serves, Value carries the pair limit.
type Op struct {
	Kind  hds.Kind
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
