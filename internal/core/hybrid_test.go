package core

import (
	"sync"
	"testing"

	"hybrids/internal/cds"
	"hybrids/internal/hds"
	"hybrids/internal/prng"
)

func newTest(parts int) *Hybrid {
	return New(Config{Partitions: parts, KeyMax: 1 << 20})
}

func TestHybridBasicOps(t *testing.T) {
	h := newTest(4)
	defer h.Close()
	if !h.Put(10, 100) || h.Put(10, 200) {
		t.Fatal("Put semantics wrong")
	}
	if v, ok := h.Get(10); !ok || v != 100 {
		t.Fatalf("Get = (%d,%v)", v, ok)
	}
	if !h.Update(10, 300) || h.Update(11, 1) {
		t.Fatal("Update semantics wrong")
	}
	if v, _ := h.Get(10); v != 300 {
		t.Fatal("update not applied")
	}
	if !h.Delete(10) || h.Delete(10) {
		t.Fatal("Delete semantics wrong")
	}
	if h.Len() != 0 {
		t.Fatalf("Len = %d", h.Len())
	}
}

func TestHybridPartitionRouting(t *testing.T) {
	h := New(Config{Partitions: 8, KeyMax: 800})
	defer h.Close()
	for k := uint64(1); k < 800; k += 37 {
		p := h.Partition(k)
		if p < 0 || p >= 8 {
			t.Fatalf("Partition(%d) = %d", k, p)
		}
		if int(k/100) != p {
			t.Fatalf("Partition(%d) = %d, want %d", k, p, k/100)
		}
	}
}

// TestHybridFullKeySpace runs the whole 64-bit key space, where summing
// KeyMax and Partitions wraps: the first and last keys route to the first
// and last partitions, and a scan reaches the last one.
func TestHybridFullKeySpace(t *testing.T) {
	h := New(Config{Partitions: 8, KeyMax: ^uint64(0)})
	defer h.Close()
	first, last := KV{Key: 1, Value: 10}, KV{Key: ^uint64(0) - 1, Value: 20}
	if p, q := h.Partition(first.Key), h.Partition(last.Key); p != 0 || q != 7 {
		t.Fatalf("first and last keys in partitions %d and %d, want 0 and 7", p, q)
	}
	for _, kv := range []KV{first, last} {
		if !h.Put(kv.Key, kv.Value) {
			t.Fatalf("Put(%d) failed", kv.Key)
		}
		if v, ok := h.Get(kv.Key); !ok || v != kv.Value {
			t.Fatalf("Get(%d) = (%d,%v), want %d", kv.Key, v, ok, kv.Value)
		}
	}
	if got := h.Scan(last.Key-1, 4); len(got) != 1 || got[0] != last {
		t.Fatalf("Scan from just below the last key = %v, want [%v]", got, last)
	}
	if got := h.Dump(); len(got) != 2 || got[0] != first || got[1] != last {
		t.Fatalf("Dump = %v, want [%v %v]", got, first, last)
	}
}

func TestHybridConcurrentDisjoint(t *testing.T) {
	h := newTest(8)
	defer h.Close()
	const threads = 8
	const perThread = 2000
	var wg sync.WaitGroup
	for th := 0; th < threads; th++ {
		th := th
		wg.Add(1)
		go func() {
			defer wg.Done()
			base := uint64(th*perThread) + 1
			for i := uint64(0); i < perThread; i++ {
				if !h.Put(base+i, base+i) {
					t.Errorf("Put(%d) failed", base+i)
					return
				}
			}
			for i := uint64(0); i < perThread; i += 2 {
				if !h.Delete(base + i) {
					t.Errorf("Delete(%d) failed", base+i)
					return
				}
			}
		}()
	}
	wg.Wait()
	if h.Len() != threads*perThread/2 {
		t.Fatalf("Len = %d, want %d", h.Len(), threads*perThread/2)
	}
}

func TestHybridConcurrentContended(t *testing.T) {
	h := newTest(4)
	defer h.Close()
	const threads = 8
	wins := make([]int64, threads)
	var wg sync.WaitGroup
	for th := 0; th < threads; th++ {
		th := th
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := prng.New(uint64(th) + 3)
			for i := 0; i < 3000; i++ {
				k := uint64(rng.Intn(64)) + 1
				if rng.Intn(2) == 0 {
					if h.Put(k, uint64(th)) {
						wins[th]++
					}
				} else if h.Delete(k) {
					wins[th]--
				}
			}
		}()
	}
	wg.Wait()
	net := int64(0)
	for _, w := range wins {
		net += w
	}
	if net != int64(h.Len()) {
		t.Fatalf("net successful puts-deletes %d != Len %d", net, h.Len())
	}
}

func TestHybridNonBlockingPipeline(t *testing.T) {
	// The §3.5 pattern: keep a window of calls in flight.
	h := newTest(8)
	defer h.Close()
	const total = 5000
	const window = 4
	ops := make([]hds.Request, total)
	for i := range ops {
		ops[i] = hds.Request{Kind: hds.Insert, Key: uint64(i) + 1, Value: uint64(i)}
	}
	if applied, succeeded := h.NewBatcher(window).Apply(ops, nil); applied != total || succeeded != total {
		t.Fatalf("pipelined Puts applied/succeeded = %d/%d, want %d/%d", applied, succeeded, total, total)
	}
	if h.Len() != total {
		t.Fatalf("Len = %d", h.Len())
	}
}

func TestHybridCustomStore(t *testing.T) {
	built := 0
	h := New(Config{
		Partitions: 3, KeyMax: 300,
		NewStore: func(p int) Store {
			built++
			return cds.NewBTree()
		},
	})
	defer h.Close()
	if built != 3 {
		t.Fatalf("NewStore called %d times", built)
	}
	if !h.Put(42, 1) {
		t.Fatal("Put through custom store failed")
	}
}

func TestHybridKeyBoundsPanic(t *testing.T) {
	h := newTest(2)
	defer h.Close()
	for _, k := range []uint64{0, 1 << 20} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("key %d did not panic", k)
				}
			}()
			h.Get(k)
		}()
	}
}

func TestHybridCloseIdempotent(t *testing.T) {
	h := newTest(2)
	h.Put(1, 1)
	h.Close()
	h.Close() // must not panic
}
