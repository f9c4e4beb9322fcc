// Quickstart: the native hybrid map from internal/core.
//
// The paper's programming model on plain hardware: a partitioned ordered
// map where each partition is combined by one caller at a time (the
// software stand-in for an NMP core, elected from the callers), with
// blocking and non-blocking (batched) calls.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"hybrids/internal/core"
	"hybrids/internal/hds"
)

func main() {
	h := core.New(core.Config{
		Partitions: 8,
		KeyMax:     1 << 20,
	})
	defer h.Close()

	// Blocking calls: ordinary map operations.
	for k := uint64(1); k <= 10; k++ {
		h.Put(k*100, k)
	}
	if v, ok := h.Get(500); ok {
		fmt.Printf("key 500 -> %d\n", v)
	}
	h.Update(500, 42)
	h.Delete(300)

	// Non-blocking calls (§3.5): a Batcher keeps a window of operations
	// in flight and reports each one's outcome.
	var ops []hds.Request
	for k := uint64(11); k <= 14; k++ {
		ops = append(ops, hds.Request{Kind: hds.Insert, Key: k * 100, Value: k})
	}
	out := make([]core.Outcome, len(ops))
	h.NewBatcher(4).Apply(ops, out)
	for i, o := range out {
		if !o.Result.OK {
			fmt.Printf("pipelined put %d failed\n", i)
		}
	}

	fmt.Printf("map holds %d keys\n", h.Len())
	if v, ok := h.Get(500); ok {
		fmt.Printf("key 500 -> %d after update\n", v)
	}
	if _, ok := h.Get(300); !ok {
		fmt.Println("key 300 deleted")
	}
}
