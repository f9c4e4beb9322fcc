package core

import (
	"sync"

	"hybrids/internal/radix"
)

// Build populates the partition stores directly — in parallel, one
// goroutine per partition, joined before it returns (the only goroutines
// this package starts), bypassing the locks — for untimed workload
// loading before concurrent use. It is a bulk load: each partition's pairs
// are copied out of pairs (the caller's slice is left untouched), sorted
// by key and inserted in ascending order, which is the order every engine
// packs densest. The sort is stable, so of duplicate keys the first pair
// in pairs is the one kept. It must not run concurrently with any
// operation.
func (h *Hybrid) Build(pairs []KV) {
	// One counting pass sizes every partition's run of one shared copy.
	ends := make([]int, len(h.parts))
	for _, kv := range pairs {
		ends[h.Partition(kv.Key)]++
	}
	sum := 0
	for p, n := range ends {
		ends[p], sum = sum, sum+n
	}
	sorted := make([]KV, len(pairs))
	for _, kv := range pairs {
		p := h.Partition(kv.Key)
		sorted[ends[p]] = kv
		ends[p]++
	}
	var wg sync.WaitGroup
	start := 0
	for p, end := range ends {
		run := sorted[start:end]
		start = end
		if len(run) == 0 {
			continue
		}
		wg.Add(1)
		go func(part *partition) {
			defer wg.Done()
			// Two stable passes, low half first, sort by the whole key;
			// keys below 2^32 have no high half to sort by.
			radix.SortFunc(run, func(kv KV) uint32 { return uint32(kv.Key) })
			if h.cfg.KeyMax > 1<<32 {
				radix.SortFunc(run, func(kv KV) uint32 { return uint32(kv.Key >> 32) })
			}
			for _, kv := range run {
				if part.store.Put(kv.Key, kv.Value) {
					part.built++
				}
			}
		}(h.parts[p])
	}
	wg.Wait()
}
