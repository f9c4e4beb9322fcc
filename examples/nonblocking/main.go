// Non-blocking NMP calls on real hardware: measures how pipelining calls
// through the native hybrid map's Batcher (§3.5) compares to blocking
// calls, on your actual machine rather than the simulator.
//
//	go run ./examples/nonblocking [-ops 200000] [-window 4]
package main

import (
	"flag"
	"fmt"
	"sync"
	"time"

	"hybrids/internal/core"
	"hybrids/internal/hds"
	"hybrids/internal/prng"
)

func main() {
	ops := flag.Int("ops", 200000, "operations per goroutine")
	window := flag.Int("window", 4, "in-flight operations per goroutine")
	flag.Parse()

	const threads = 4
	const keyMax = 1 << 24

	setup := func() *core.Hybrid {
		h := core.New(core.Config{Partitions: 8, KeyMax: keyMax})
		for k := uint64(1); k <= 100000; k++ {
			h.Put(k, k)
		}
		return h
	}

	bench := func(name string, worker func(h *core.Hybrid, th int)) {
		h := setup()
		defer h.Close()
		start := time.Now()
		var wg sync.WaitGroup
		for th := 0; th < threads; th++ {
			th := th
			wg.Add(1)
			go func() {
				defer wg.Done()
				worker(h, th)
			}()
		}
		wg.Wait()
		el := time.Since(start)
		total := float64(threads * *ops)
		fmt.Printf("%-14s %10.0f ops/s\n", name, total/el.Seconds())
	}

	bench("blocking", func(h *core.Hybrid, th int) {
		rng := prng.New(uint64(th) + 1)
		for i := 0; i < *ops; i++ {
			h.Get(uint64(rng.Intn(100000)) + 1)
		}
	})

	bench("non-blocking", func(h *core.Hybrid, th int) {
		rng := prng.New(uint64(th) + 1)
		b := h.NewBatcher(*window)
		batch := make([]hds.Request, 256)
		for left := *ops; left > 0; left -= len(batch) {
			batch = batch[:min(left, len(batch))]
			for i := range batch {
				batch[i] = hds.Request{Kind: hds.Read, Key: uint64(rng.Intn(100000)) + 1}
			}
			b.Apply(batch, nil)
		}
	})
}
