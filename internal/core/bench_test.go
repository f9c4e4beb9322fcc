package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybrids/internal/hds"
	"hybrids/internal/prng"
	"hybrids/internal/ycsb"
)

func benchMap(b *testing.B, parts int) *Hybrid {
	b.Helper()
	h := New(Config{Partitions: parts, KeyMax: 1 << 24})
	for i := uint64(1); i <= 1<<16; i++ {
		h.Put(i, i)
	}
	b.Cleanup(h.Close)
	return h
}

// BenchmarkHybridBuild times the native workloads' bulk load: Build of
// their 2^20 YCSB load pairs over a 2^26 key space into 4 partitions.
func BenchmarkHybridBuild(b *testing.B) {
	load := ycsb.New(ycsb.YCSBC(1<<20, 1<<26, 1)).Load()
	pairs := make([]KV, len(load))
	for i, p := range load {
		pairs[i] = KV{Key: uint64(p.Key), Value: uint64(p.Value)}
	}
	b.ResetTimer()
	for range b.N {
		h := New(Config{Partitions: 4, KeyMax: 1 << 26})
		h.Build(pairs)
		b.StopTimer()
		h.Close()
		b.StartTimer()
	}
}

// BenchmarkHybridGetBlocking measures the blocking-call hot path: a call
// that finds its partition free takes the lock with one CAS, applies
// itself and performs no allocation.
func BenchmarkHybridGetBlocking(b *testing.B) {
	h := benchMap(b, 8)
	rng := prng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Get(uint64(rng.Intn(1<<16)) + 1)
	}
}

func BenchmarkHybridGetParallel(b *testing.B) {
	h := benchMap(b, 8)
	var seed atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := prng.New(seed.Add(1))
		for pb.Next() {
			h.Get(uint64(rng.Intn(1<<16)) + 1)
		}
	})
}

// TestBlockingCallAllocs asserts the blocking-call hot path stays allocation
// free: an uncontended call takes its partition's lock and applies
// itself, so it allocates nothing, under the race detector too.
func TestBlockingCallAllocs(t *testing.T) {
	h := New(Config{Partitions: 4, KeyMax: 1 << 20})
	defer h.Close()
	h.Put(1, 1)
	allocs := testing.AllocsPerRun(2000, func() {
		h.Get(1)
	})
	if allocs != 0 {
		t.Fatalf("blocking call allocates %.2f objects/op, want 0", allocs)
	}
}

// benchApplyBatch measures uniform reads through one Batcher at the given
// window.
func benchApplyBatch(b *testing.B, window int) {
	h := benchMap(b, 8)
	rng := prng.New(4)
	const chunk = 256
	ops := make([]hds.Request, chunk)
	bt := h.NewBatcher(window)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += chunk {
		for j := range ops {
			ops[j] = hds.Request{Kind: hds.Read, Key: uint64(rng.Intn(1<<16)) + 1}
		}
		bt.Apply(ops, nil)
	}
}

// BenchmarkHybridApplyBatch4 measures the non-blocking batch path at the
// paper's window of 4 calls in flight.
func BenchmarkHybridApplyBatch4(b *testing.B) { benchApplyBatch(b, 4) }

// BenchmarkHybridApplyBatch16 is the in-package twin of the benchmark's
// core.batch16_ns_per_op rung: embedded-read's 16-op batches.
func BenchmarkHybridApplyBatch16(b *testing.B) { benchApplyBatch(b, 16) }

// benchCallers runs b.N ops that op draws, from callers goroutines: at
// window 1 each op is a blocking Apply, above it each chunk goes through
// the caller's own Batcher at that window.
func benchCallers(b *testing.B, h *Hybrid, callers, window int, op func(*prng.Source) hds.Request) {
	const chunk = 256
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := prng.New(uint64(c) + 5)
			ops := make([]hds.Request, chunk)
			bt := h.NewBatcher(window)
			for i := c * chunk; i < b.N; i += callers * chunk {
				for j := range ops {
					ops[j] = op(rng)
				}
				if window > 1 {
					bt.Apply(ops, nil)
					continue
				}
				for _, o := range ops {
					h.Apply(o)
				}
			}
		}()
	}
	wg.Wait()
}

// uniformRead draws a read of one of benchMap's keys.
func uniformRead(rng *prng.Source) hds.Request {
	return hds.Request{Kind: hds.Read, Key: uint64(rng.Intn(1<<16)) + 1}
}

// BenchmarkHybridApplyBatch16Contended is the contended path's number: 8
// goroutines over 2 partitions, so a round regularly finds its partition
// held and waits for its lock.
func BenchmarkHybridApplyBatch16Contended(b *testing.B) {
	benchCallers(b, benchMap(b, 2), 8, 16, uniformRead)
}

// BenchmarkHybridApplyBatch16TwoCallers is embedded-read's shape: 2
// goroutines over 4 partitions holding 2^20 keys in a 2^26 key space,
// where a round that finds a partition held by the other caller waits for
// its lock.
func BenchmarkHybridApplyBatch16TwoCallers(b *testing.B) {
	const records, keyMax = 1 << 20, 1 << 26
	h := New(Config{Partitions: 4, KeyMax: keyMax})
	b.Cleanup(h.Close)
	keys := make([]uint64, records)
	pairs := make([]KV, records)
	for i := range pairs {
		keys[i] = uint64(i)*(keyMax/records) + 1
		pairs[i] = KV{Key: keys[i], Value: keys[i]}
	}
	h.Build(pairs)
	benchCallers(b, h, 2, 16, func(rng *prng.Source) hds.Request {
		return hds.Request{Kind: hds.Read, Key: keys[rng.Intn(records)]}
	})
}

// BenchmarkHybridApplyBatch16Zipf is embedded-read's shape with its
// keys: 2 goroutines over 4 partitions holding YCSB-C's 2^20 load pairs
// in a 2^26 key space, each applying its own YCSB-C stream of zipfian
// reads in 16-op rounds, so the host portion answers most reads with no
// lock taken. It reports the share of reads answered that way (hit-%).
func BenchmarkHybridApplyBatch16Zipf(b *testing.B) {
	const callers, perCaller, chunk = 2, 1 << 18, 256
	g := ycsb.New(ycsb.YCSBC(1<<20, 1<<26, 7))
	load := g.Load()
	pairs := make([]KV, len(load))
	for i, p := range load {
		pairs[i] = KV{Key: uint64(p.Key), Value: uint64(p.Value)}
	}
	h := New(Config{Partitions: 4, KeyMax: 1 << 26})
	b.Cleanup(h.Close)
	h.Build(pairs)
	var streams [callers][]hds.Request
	for c, stream := range g.Streams(callers, perCaller) {
		for _, op := range stream {
			streams[c] = append(streams[c], hds.Request{Kind: hds.Read, Key: uint64(op.Key)})
		}
	}
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bt := h.NewBatcher(16)
			for i := c * chunk; i < b.N; i += callers * chunk {
				at := i / callers % perCaller &^ (chunk - 1)
				bt.Apply(streams[c][at:at+chunk], nil)
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	var hits uint64
	for p := range h.parts {
		hits += h.hitsOn(p)
	}
	b.ReportMetric(100*float64(hits)/float64(b.N), "hit-%")
}

// BenchmarkHybridApplyCallers measures the regime no bench workload runs,
// more callers than Ps: 2, 8 and 64 goroutines over 4 partitions, each
// issuing blocking calls (window 1) or 16-op rounds, on embedded-mix's
// uniform 50-25-25 read-insert-remove mix over benchMap's keys.
func BenchmarkHybridApplyCallers(b *testing.B) {
	mix := func(rng *prng.Source) hds.Request {
		k := uint64(rng.Intn(1<<16)) + 1
		switch rng.Intn(4) {
		case 0:
			return hds.Request{Kind: hds.Insert, Key: k, Value: k}
		case 1:
			return hds.Request{Kind: hds.Remove, Key: k}
		}
		return hds.Request{Kind: hds.Read, Key: k}
	}
	for _, callers := range []int{2, 8, 64} {
		for _, window := range []int{1, 16} {
			b.Run(fmt.Sprintf("callers=%d/window=%d", callers, window), func(b *testing.B) {
				benchCallers(b, benchMap(b, 4), callers, window, mix)
			})
		}
	}
}

// BenchmarkLenBesideBlockingCalls times a barrier beside blocking calls:
// two goroutines keep 4 partitions busy with reads and updates while
// each iteration runs one Len, and the median, p90, p99 and maximum of
// those times are reported (at -benchtime 2000x the p99 has 20 samples
// behind it, the maximum one). Each of Len's barriers spins for its
// partition's lock as a blocking call does; one whose spin runs out parks
// in Lock, and at -cpu 2, where both Ps run callers, its wake waits for
// one to be preempted (DESIGN §5.5). At -cpu 1 it gives the spin's cost
// on one P.
func BenchmarkLenBesideBlockingCalls(b *testing.B) {
	h := benchMap(b, 4)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for c := range 2 {
		wg.Add(1)
		go func(rng *prng.Source) {
			defer wg.Done()
			for !stop.Load() {
				if k := uint64(rng.Intn(1<<16)) + 1; rng.Intn(2) == 0 {
					h.Get(k)
				} else {
					h.Update(k, k)
				}
			}
		}(prng.New(uint64(c) + 7))
	}
	ns := make([]float64, 0, b.N)
	b.ResetTimer()
	for range b.N {
		start := time.Now()
		h.Len()
		ns = append(ns, float64(time.Since(start)))
	}
	b.StopTimer()
	stop.Store(true)
	wg.Wait()
	slices.Sort(ns)
	b.ReportMetric(ns[len(ns)/2], "median-ns")
	b.ReportMetric(ns[len(ns)*9/10], "p90-ns")
	b.ReportMetric(ns[len(ns)*99/100], "p99-ns")
	b.ReportMetric(ns[len(ns)-1], "max-ns")
}
