// Sensitivity: the hybrid B+ tree under a modification-heavy workload on
// the simulated machine — the paper's §5.2 setting. Inserts target the
// last leaf of every NMP partition (maximum node splits, exercising the
// LOCK_PATH / RESUME_INSERT boundary protocol) and the offload delay
// decomposition of Table 2 is printed afterwards.
//
//	go run ./examples/sensitivity [-records 2097152] [-ops 1000]
package main

import (
	"flag"
	"fmt"

	"hybrids/internal/boundary"
	"hybrids/internal/dsim/btree"
	"hybrids/internal/dsim/fc"
	"hybrids/internal/sim/machine"
	"hybrids/internal/ycsb"
)

func main() {
	records := flag.Int("records", 1<<21, "initial key-value pairs")
	ops := flag.Int("ops", 1000, "operations per thread")
	flag.Parse()

	const keyMax = 1 << 28
	const threads = 8

	cfg := ycsb.Mix(*records, keyMax, 50, 25, 25, 3)
	cfg.Inserts = ycsb.PartitionTail
	cfg.Partitions = 8
	gen := ycsb.New(cfg)

	m := machine.New(machine.Default())
	t := btree.NewHybrid(m, btree.HybridBTreeConfig{Split: boundary.Split{NMP: 3}, Fill: 8, Window: 1})
	t.Build(gen.Load())
	t.Start()

	streams := gen.Streams(threads, *ops)
	for th := 0; th < threads; th++ {
		th := th
		m.SpawnHost(th, fmt.Sprintf("t%d", th), func(c *machine.Ctx) {
			for _, op := range streams[th] {
				t.Apply(c, th, op)
			}
		})
	}
	cycles := m.Run()

	totalOps := threads * *ops
	fmt.Printf("50-25-25 read-insert-remove, targeted splits, %d records\n\n", *records)
	fmt.Printf("throughput:      %.2f Mops/s\n", float64(totalOps)/float64(cycles)*2e9/1e6)
	fmt.Printf("DRAM reads/op:   %.2f\n", float64(m.Mem.Stats().DRAMReads())/float64(totalOps))
	fmt.Printf("TLB misses/op:   %.2f\n", float64(m.Mem.Stats().TLBMisses)/float64(totalOps))

	d := fc.DelaysFrom(m.Metrics.Snapshot())
	if d.Count > 0 {
		fmt.Printf("\noffload delays (Table 2 decomposition, mean cycles over %d offloads):\n", d.Count)
		fmt.Printf("  post -> combiner pickup:  %d\n", d.PostToScan/d.Count)
		fmt.Printf("  NMP-side service:         %d\n", d.Service/d.Count)
		if d.ObserveCount > 0 {
			fmt.Printf("  completion -> observed:   %d\n", d.CompleteToObserve/d.ObserveCount)
		}
	}

	if err := t.CheckInvariants(); err != nil {
		fmt.Println("INVARIANT VIOLATION:", err)
		return
	}
	fmt.Println("\ntree invariants verified after the run")
}
