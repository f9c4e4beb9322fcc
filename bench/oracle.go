package main

import (
	"fmt"
	"slices"

	"hybrids/internal/core"
	"hybrids/internal/hds"
	"hybrids/internal/prng"
)

// loadValue is the value the load phase stores under key (ycsb.Load
// derives values from keys), so a read of a never-written key has exactly
// one right answer.
func loadValue(key uint64) uint64 { return uint64(uint32(prng.Mix64(key))) }

// oracle decides whether one operation's result is right. The workloads
// are chosen so that the decision never depends on how the two clients
// interleave: reads, removes and scan starts draw from the load set,
// inserts mint fresh keys, nothing is updated, and a removed key is never
// re-inserted.
type oracle struct {
	// hasRemoves is set when the mix removes keys, which makes a later
	// read or remove of the same key a legitimate miss.
	hasRemoves bool
	// strict enables the op-by-op value checks of the warm-up segment;
	// timed segments check status only.
	strict bool
	// warmRemoves counts, per key, the removes either client issues in
	// the warm-up segment (strict only; shared read-only).
	warmRemoves map[uint64]int

	failed   int64
	failures []string
}

func (o *oracle) failf(format string, args ...any) {
	o.failed++
	if len(o.failures) < 4 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// check validates op's result.
func (o *oracle) check(op hds.Request, r result) {
	if r.rejected {
		o.failf("%s key %d was rejected", op.Kind, op.Key)
		return
	}
	switch op.Kind {
	case hds.Read:
		switch {
		case r.ok && o.strict && r.value != loadValue(op.Key):
			o.failf("read key %d returned %d, load value is %d", op.Key, r.value, loadValue(op.Key))
		case !r.ok && (!o.hasRemoves || (o.strict && o.warmRemoves[op.Key] == 0)):
			o.failf("read key %d missed, but nothing removed it", op.Key)
		}
	case hds.Insert:
		if !r.ok {
			o.failf("insert of fresh key %d reported the key present", op.Key)
		}
	case hds.Remove:
		if !r.ok && o.strict && o.warmRemoves[op.Key] == 1 {
			o.failf("the only remove of key %d missed", op.Key)
		}
	case hds.Scan:
		if !r.ok {
			o.failf("scan from %d failed", op.Key)
			return
		}
		if !o.strict || r.pairs == nil {
			return
		}
		if uint64(len(r.pairs)) > op.Value || len(r.pairs) == 0 {
			o.failf("scan from %d limit %d returned %d pairs", op.Key, op.Value, len(r.pairs))
			return
		}
		// Scan starts are load keys and nothing is removed, so the first
		// pair is the start key itself.
		if p := r.pairs[0]; p.Key != op.Key || p.Value != loadValue(op.Key) {
			o.failf("scan from %d starts at (%d,%d), want (%d,%d)", op.Key, p.Key, p.Value, op.Key, loadValue(op.Key))
		}
		for i := 1; i < len(r.pairs); i++ {
			if r.pairs[i].Key <= r.pairs[i-1].Key {
				o.failf("scan from %d not ascending at pair %d (%d after %d)", op.Key, i, r.pairs[i].Key, r.pairs[i-1].Key)
				break
			}
		}
	}
}

// countRemoves tallies the removes in the given op slices per key.
func countRemoves(streams ...[]hds.Request) map[uint64]int {
	m := map[uint64]int{}
	for _, ops := range streams {
		for _, op := range ops {
			if op.Kind == hds.Remove {
				m[op.Key]++
			}
		}
	}
	return m
}

// expectedKeys is the key set the map must hold after executed ran
// against a map loaded with load: load ∪ inserted − removed, ascending.
// It is independent of interleaving for the mixes the oracle admits.
func expectedKeys(load []uint64, executed ...[]hds.Request) []uint64 {
	keys := slices.Clone(load)
	removed := map[uint64]struct{}{}
	for _, ops := range executed {
		for _, op := range ops {
			switch op.Kind {
			case hds.Insert:
				keys = append(keys, op.Key)
			case hds.Remove:
				removed[op.Key] = struct{}{}
			}
		}
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	if len(removed) == 0 {
		return keys
	}
	return slices.DeleteFunc(keys, func(k uint64) bool {
		_, gone := removed[k]
		return gone
	})
}

// checkFinalState compares the map's contents with want, reporting the
// first difference.
func checkFinalState(h *core.Hybrid, want []uint64) error {
	if n := h.Len(); n != len(want) {
		return fmt.Errorf("map holds %d keys, the streams leave %d", n, len(want))
	}
	got := h.Dump()
	if len(got) != len(want) {
		return fmt.Errorf("dump holds %d keys, the streams leave %d", len(got), len(want))
	}
	for i, kv := range got {
		if kv.Key != want[i] {
			return fmt.Errorf("key %d of the dump is %d, the streams leave %d", i, kv.Key, want[i])
		}
	}
	return nil
}
