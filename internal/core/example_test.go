package core_test

import (
	"fmt"

	"hybrids/internal/core"
	"hybrids/internal/hds"
)

// The paper's programming model on plain hardware: a partitioned ordered
// map where each partition serves one caller at a time under its lock
// (the software stand-in for an NMP core), with blocking and non-blocking
// (batched) calls.
func Example() {
	h := core.New(core.Config{Partitions: 8, KeyMax: 1 << 20})
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
	// Output:
	// key 500 -> 5
	// map holds 13 keys
	// key 500 -> 42 after update
	// key 300 deleted
}

// A Batcher keeps up to a window of operations in flight across the
// partitions (the paper's non-blocking calls, §3.5). Operations on one key
// still apply in index order, and each reports its own outcome; Apply
// also counts the operations applied and, of those, the ones that
// succeeded, so a miss is told apart from a refusal.
func ExampleBatcher_Apply() {
	// Keys are k<<20, so the eight partitions of 1<<21 keys each split the
	// operations over partitions 0 to 4.
	h := core.New(core.Config{Partitions: 8, KeyMax: 1 << 24})
	defer h.Close()
	for k := uint64(1); k <= 4; k++ {
		h.Put(k<<20, k)
	}

	ops := []hds.Request{
		{Kind: hds.Read, Key: 2 << 20},
		{Kind: hds.Insert, Key: 2 << 20, Value: 7},
		{Kind: hds.Insert, Key: 9 << 20, Value: 9},
		{Kind: hds.Update, Key: 3 << 20, Value: 33},
		{Kind: hds.Remove, Key: 4 << 20},
		{Kind: hds.Read, Key: 4 << 20},
		{Kind: hds.Read, Key: 9 << 20},
		{Kind: hds.Read, Key: 3 << 20},
	}
	out := make([]core.Outcome, len(ops))
	applied, succeeded := h.NewBatcher(4).Apply(ops, out)
	for i, op := range ops {
		fmt.Printf("%-6s key %d: ok=%v value=%d\n", op.Kind, op.Key>>20, out[i].Result.OK, out[i].Result.Value)
	}
	fmt.Printf("%d applied, %d succeeded\n", applied, succeeded)
	// Output:
	// read   key 2: ok=true value=2
	// insert key 2: ok=false value=0
	// insert key 9: ok=true value=0
	// update key 3: ok=true value=0
	// remove key 4: ok=true value=0
	// read   key 4: ok=false value=0
	// read   key 9: ok=true value=9
	// read   key 3: ok=true value=33
	// 8 applied, 6 succeeded
}
