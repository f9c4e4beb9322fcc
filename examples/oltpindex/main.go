// OLTP index on the simulated NMP machine: the paper's headline experiment
// in miniature. Builds a lock-free skiplist and a hybrid skiplist over the
// same YCSB-C load on the Table 1 machine and compares throughput and DRAM
// reads per lookup.
//
//	go run ./examples/oltpindex [-records 1048576] [-ops 1500] [-threads 8]
package main

import (
	"flag"
	"fmt"
	"math"

	"hybrids/internal/boundary"
	"hybrids/internal/dsim/kv"
	"hybrids/internal/dsim/skiplist"
	"hybrids/internal/sim/machine"
	"hybrids/internal/ycsb"
)

func main() {
	records := flag.Int("records", 1<<20, "initial key-value pairs")
	ops := flag.Int("ops", 1500, "lookups per thread")
	threads := flag.Int("threads", 8, "host threads")
	flag.Parse()

	levels := int(math.Ceil(math.Log2(float64(*records))))
	const keyMax = 1 << 28
	gen := ycsb.New(ycsb.YCSBC(*records, keyMax, 1))
	pairs := gen.Load()

	fmt.Printf("YCSB-C over %d records, %d threads x %d lookups, %d-level skiplist\n\n",
		*records, *threads, *ops, levels)

	for _, variant := range []string{"lock-free", "hybrid-blocking", "hybrid-nonblocking4"} {
		m := machine.New(machine.Default())
		var store kv.Store
		var async kv.AsyncStore
		switch variant {
		case "lock-free":
			s := skiplist.NewLockFree(m, levels, 7)
			s.Build(pairs, 99)
			store = s
		default:
			window := 1
			if variant == "hybrid-nonblocking4" {
				window = 4
			}
			s := skiplist.NewHybrid(m, skiplist.HybridConfig{
				Split:  boundary.Split{Total: levels, NMP: levels / 2},
				KeyMax: keyMax, Window: window, Seed: 7,
			})
			s.Build(pairs, 99)
			s.Start()
			if window > 1 {
				async = s
			} else {
				store = s
			}
		}
		streams := gen.Streams(*threads, *ops)
		for th := 0; th < *threads; th++ {
			th := th
			m.SpawnHost(th, fmt.Sprintf("t%d", th), func(c *machine.Ctx) {
				if async != nil {
					async.ApplyBatch(c, th, streams[th])
					return
				}
				for _, op := range streams[th] {
					store.Apply(c, th, op)
				}
			})
		}
		cycles := m.Run()
		totalOps := *threads * *ops
		mops := float64(totalOps) / float64(cycles) * 2e9 / 1e6
		fmt.Printf("%-20s %8.2f Mops/s   %6.1f DRAM reads/op\n",
			variant, mops, float64(m.Mem.Stats().DRAMReads())/float64(totalOps))
	}
}
