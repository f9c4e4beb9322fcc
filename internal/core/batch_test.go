package core

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"hybrids/internal/cds"
	"hybrids/internal/hds"
)

// spread returns n read requests dealt round-robin over the partitions of
// a map with the given partition count and key space.
func spread(n, partitions int, keyMax uint64) []hds.Request {
	span := keyMax / uint64(partitions)
	ops := make([]hds.Request, n)
	for i := range ops {
		ops[i] = hds.Request{Kind: hds.Read, Key: uint64(i%partitions)*span + uint64(i) + 1}
	}
	return ops
}

// TestBatcherApplyAllocs pins the steady-state batch path at zero
// allocations, with and without an outcome slice.
func TestBatcherApplyAllocs(t *testing.T) {
	h := New(Config{Partitions: 4, KeyMax: 1 << 20})
	defer h.Close()
	b := h.NewBatcher(16)
	ops := spread(16, 4, 1<<20)
	out := make([]Outcome, len(ops))
	b.Apply(ops, out) // warm the Batcher and the stacks
	for name, res := range map[string][]Outcome{"out": out, "nil": nil} {
		if allocs := testing.AllocsPerRun(500, func() { b.Apply(ops, res) }); allocs != 0 {
			t.Errorf("Batcher.Apply(16 ops, %s) allocates %.2f objects/call, want 0", name, allocs)
		}
	}
}

// TestPartitionLines pins the partition's two cache lines of its own:
// the first holds everything a holder writes, the lock, the refusal
// flag, the table's window, the tallies and the store, and the second the
// pointers to the host portion's table and the hit cells, which every
// Batcher's round reads, away from the lock; its bucket array is a
// pointer-free allocation of its own, 64-aligned, and so are its hit
// cells, a line each.
func TestPartitionLines(t *testing.T) {
	h := New(Config{Partitions: 2})
	p := h.parts[1]
	if addr := uintptr(unsafe.Pointer(p)); unsafe.Sizeof(*p) != 128 || addr%64 != 0 {
		t.Fatalf("partition of %d bytes at %#x; want 128 bytes, 64-aligned", unsafe.Sizeof(*p), addr)
	}
	if off := [...]uintptr{unsafe.Offsetof(p.mu), unsafe.Offsetof(p.refusing), unsafe.Offsetof(p.probes), unsafe.Offsetof(p.idle), unsafe.Offsetof(p.rounds), unsafe.Offsetof(p.ops), unsafe.Offsetof(p.store)}; off[0] != 0 || !slices.IsSorted(off[:]) {
		t.Fatalf("mu, refusing, probes, idle, rounds, ops and store at bytes %v; want the lock first, then the flag, the window, the tallies and the store", off)
	}
	if end := unsafe.Offsetof(p.store) + unsafe.Sizeof(p.store); end > 64 {
		t.Fatalf("store ends at byte %d, want the first line to hold it", end)
	}
	if off := unsafe.Offsetof(p.hot); off < 64 || off+unsafe.Sizeof(p.hot) > 128 {
		t.Fatalf("table pointer at byte %d, want it on the second line", off)
	}
	if addr := uintptr(unsafe.Pointer(p.buckets)); addr%64 != 0 {
		t.Fatalf("bucket array at %#x, want 64-aligned", addr)
	}
	if addr := uintptr(unsafe.Pointer(p.hitCells)); addr%64 != 0 || unsafe.Sizeof(p.hitCells[0]) != 64 {
		t.Fatalf("hit cells of %d bytes at %#x, want a line each, 64-aligned", unsafe.Sizeof(p.hitCells[0]), addr)
	}
}

// holdPartition keeps partition p held inside a barrier closure until
// the returned release is called; release waits for the barrier to
// return and reports what fn read while still holding the partition.
// release is idempotent: a caller defers it right after holdPartition, so
// a failing test lets go of p before its earlier-deferred Close runs.
func holdPartition(h *Hybrid, p int, fn func() int) (release func() int) {
	entered, rel, out := make(chan struct{}), make(chan struct{}), make(chan int, 1)
	go h.barrier(p, func(Store) {
		close(entered)
		<-rel
		out <- fn()
	})
	<-entered
	return sync.OnceValue(func() int {
		close(rel)
		return <-out
	})
}

// waitFor polls cond for up to 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// parkedInLock counts the goroutines parked in a sync.Mutex's Lock: the
// callers whose spin on a held partition ran out.
func parkedInLock() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), " [sync.Mutex.Lock")
}

// refused reports, under partition p's lock, whether Close's barrier has
// run there.
func refused(h *Hybrid, p int) bool {
	part := h.parts[p]
	part.mu.Lock()
	defer part.mu.Unlock()
	return part.refusing
}

// TestBatcherOneEntryPerPartition checks the round granularity: a 16-op
// batch over 4 partitions takes each partition once and applies its 4 ops
// in one hold. Partition 0 is routed last and held by a barrier until the
// round has served the other three and parked on it; the tallies, read at
// quiescence and before Close (whose own barrier is one more round on
// each partition), must show every partition one round of 4 ops, and
// partition 0 one more, for the barrier. A blocking call then is one
// more round of one op.
func TestBatcherOneEntryPerPartition(t *testing.T) {
	const partitions = 4
	h := New(Config{Partitions: partitions, KeyMax: 1 << 20})
	defer h.Close()
	release := holdPartition(h, 0, func() int { return 0 })
	defer release()
	b := h.NewBatcher(16)
	ops := spread(16, partitions, 1<<20)
	ops = append(ops[1:], ops[0]) // partitions 1, 2, 3 and then 0
	applied := make(chan int)
	go func() {
		n, _ := b.Apply(ops, nil)
		applied <- n
	}()
	waitFor(t, "the round to park on partition 0", func() bool { return parkedInLock() == 1 })
	release()
	if n := <-applied; n != len(ops) {
		t.Errorf("applied = %d, want %d", n, len(ops))
	}
	snap := tallied(h)
	get := func(p int, name string) uint64 { return snap.Get(fmt.Sprintf("core/p%d/%s", p, name)) }
	var opsApplied uint64
	for p := 0; p < partitions; p++ {
		extra := uint64(0)
		if p == 0 {
			extra = 1
		}
		if rounds, sum := get(p, "batch/count"), get(p, "batch/sum"); rounds != 1+extra || sum != 4+extra {
			t.Errorf("p%d: rounds = %d, batch sum = %d; want %d, %d", p, rounds, sum, 1+extra, 4+extra)
		}
		opsApplied += get(p, "ops")
	}
	if opsApplied != uint64(len(ops)) {
		t.Errorf("core/p*/ops sum = %d, want %d", opsApplied, len(ops))
	}
	h.Get(ops[0].Key) // partition 1's key
	after := tallied(h)
	for _, name := range []string{"batch/count", "batch/sum", "ops"} {
		if d := after.Get("core/p1/"+name) - get(1, name); d != 1 {
			t.Errorf("uncontended blocking call moved core/p1/%s by %d, want 1", name, d)
		}
	}
}

// TestBatcherRoundTakesPartitionsInRoutingOrder checks that a round
// takes its partitions in the order it routed them. Rounds of 3 reads on
// each of 4 free partitions tally, read through ExportMetrics, one round
// of 3 ops per (round, partition), beside the export's own barrier. A
// round that routes partition 0 first, while it is held, parks on it
// with nothing applied on partition 1 or the others, and applies its ops
// on every partition once the holder lets go.
func TestBatcherRoundTakesPartitionsInRoutingOrder(t *testing.T) {
	const partitions, rounds = 4, 5
	h := New(Config{Partitions: partitions, KeyMax: 1 << 20})
	defer h.Close()
	b := h.NewBatcher(16)
	ops := spread(3*partitions, partitions, 1<<20) // partitions 0, 1, 2, 3, 0, ...
	for range rounds {
		if n, _ := b.Apply(ops, nil); n != len(ops) {
			t.Fatalf("round on free partitions: applied %d of %d", n, len(ops))
		}
	}
	counters, hists := h.ExportMetrics()
	for p := range partitions {
		// The export's barrier on p is one more round of one.
		if got, want := [...]uint64{hists[p].Count, hists[p].Sum, counters[fmt.Sprintf("core/p%d/ops", p)]},
			[...]uint64{rounds + 1, 3*rounds + 1, 3 * rounds}; got != want {
			t.Errorf("p%d: batch count, sum, ops = %v, want %v", p, got, want)
		}
	}

	release := holdPartition(h, 0, func() int { return int(h.parts[0].ops) })
	defer release()
	applied := make(chan int)
	go func() {
		n, _ := b.Apply(ops, nil)
		applied <- n
	}()
	waitFor(t, "the round to park on partition 0", func() bool { return parkedInLock() == 1 })
	for p := 1; p < partitions; p++ {
		if n := h.PartitionStats(p).Ops; n != 3*rounds {
			t.Errorf("p%d applied %d ops while the round waited for partition 0, want the %d before it", p, n, 3*rounds)
		}
	}
	if n := release(); n != 3*rounds {
		t.Errorf("partition 0 applied %d ops while held, want the %d before it", n, 3*rounds)
	}
	if n := <-applied; n != len(ops) {
		t.Errorf("applied = %d, want %d", n, len(ops))
	}
	for p := range partitions {
		if n := h.PartitionStats(p).Ops; n != 3*(rounds+1) {
			t.Errorf("p%d applied %d ops after the release, want %d", p, n, 3*(rounds+1))
		}
	}
}

// TestBatcherParksPastSpin holds partition 0 past the spin bound: a
// round, and then a blocking call, must give up spinning, park in Lock
// and complete once the holder lets go; the next, uncontended round
// completes without parking.
func TestBatcherParksPastSpin(t *testing.T) {
	h := New(Config{Partitions: 2, KeyMax: 1 << 20})
	defer h.Close()
	b := h.NewBatcher(16)
	ops := spread(16, 2, 1<<20)
	for _, call := range []func() int{
		func() int { n, _ := b.Apply(ops, nil); return n },
		func() int { h.Put(ops[0].Key, 7); return 1 },
	} {
		release := holdPartition(h, 0, func() int { return 0 })
		defer release()
		done := make(chan int)
		go func() { done <- call() }()
		waitFor(t, "the caller to park", func() bool { return parkedInLock() == 1 })
		release()
		<-done
		if n := parkedInLock(); n != 0 {
			t.Fatalf("%d callers still parked after the release", n)
		}
	}
	if n, _ := b.Apply(ops, nil); n != len(ops) {
		t.Fatalf("uncontended round: applied = %d, want %d", n, len(ops))
	}
	if v, ok := h.Get(ops[0].Key); !ok || v != 7 {
		t.Errorf("Get after the parked Put = (%d, %v), want (7, true)", v, ok)
	}
}

// yieldingStore yields the processor inside every Get, so a holder is
// descheduled while it holds its partition.
type yieldingStore struct{ Store }

func (s yieldingStore) Get(key uint64) (uint64, bool) {
	runtime.Gosched()
	return s.Store.Get(key)
}

// TestBatcherContendedOneP runs contended rounds and blocking calls on
// one P, where the spin cannot help: every holder yields inside its
// round, or inside its own blocking call's op, so the other callers find
// the partition held while its holder cannot run, spin their spinLoads
// TryLocks (25-40 µs) for nothing and park. Every round and call must
// still complete, and the spin costs at most one bound per lock taken:
// 4 Batchers × 250 rounds over 2 partitions and 2 blocking callers × 32
// calls (each key inserted, then read) are 2064 waits at most, under
// 0.1 s of spinning (the race detector makes each load some fifty times
// dearer). The test allows 20 s.
func TestBatcherContendedOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const callers, rounds, blocking, calls = 4, 250, 2, 32
	h := New(Config{Partitions: 2, KeyMax: 1 << 20, NewStore: func(int) Store { return yieldingStore{cds.NewBTree()} }})
	defer h.Close()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < callers+blocking; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := h.NewBatcher(16)
			ops := spread(16, 2, 1<<20)
			for i := range ops {
				ops[i].Key += uint64(c) << 12
				ops[i].Kind, ops[i].Value = hds.Insert, ops[i].Key
			}
			for r := 0; r < rounds && (c < callers || r < calls); r++ {
				if c < callers {
					if n, _ := b.Apply(ops, nil); n != len(ops) {
						t.Errorf("caller %d round %d: applied %d of %d", c, r, n, len(ops))
						return
					}
					for i := range ops {
						ops[i].Kind = hds.Read
					}
				} else {
					op := ops[r%len(ops)] // each key inserted once, then read
					if r >= len(ops) {
						op.Kind = hds.Read
					}
					if res := h.Apply(op); !res.OK || op.Kind == hds.Read && res.Value != op.Value {
						t.Errorf("blocking caller %d round %d: %v returned %v", c, r, op, res)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	el := time.Since(start)
	if el > 20*time.Second {
		t.Fatalf("%d Batcher rounds and %d blocking calls on one P took %v, want under 20 s", callers*rounds, blocking*calls, el)
	}
	t.Logf("%d Batcher rounds and %d blocking calls on one P in %v", callers*rounds, blocking*calls, el)
	if got := h.Len(); got != (callers+blocking)*16 {
		t.Fatalf("Len = %d, want %d", got, (callers+blocking)*16)
	}
}

// TestBatcherInvalidKeyPublishesNothing is the partial-apply regression:
// a batch whose op k has a key outside the key space panics before any
// partition of its round is taken, and the Batcher stays usable.
func TestBatcherInvalidKeyPublishesNothing(t *testing.T) {
	for _, bad := range []uint64{0, 1 << 20} {
		h := New(Config{Partitions: 4, KeyMax: 1 << 20})
		b := h.NewBatcher(16)
		ops := spread(16, 4, 1<<20)
		for i := range ops {
			ops[i].Kind, ops[i].Value = hds.Insert, 7
		}
		good := ops[9].Key
		ops[9].Key = bad
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("key %d in a batch did not panic", bad)
				}
			}()
			b.Apply(ops, nil)
		}()
		for p := 0; p < 4; p++ {
			if st := h.PartitionStats(p); st.Ops != 0 || st.StoreLen != 0 {
				t.Errorf("key %d: partition %d applied %d ops and holds %d pairs after the panic, want 0 and 0", bad, p, st.Ops, st.StoreLen)
			}
		}
		ops[9].Key = good
		out := make([]Outcome, len(ops))
		if applied, succeeded := b.Apply(ops, out); applied != len(ops) || succeeded != len(ops) {
			t.Errorf("key %d: Apply after the panic applied/succeeded = %d/%d, want %d/%d", bad, applied, succeeded, len(ops), len(ops))
		}
		if got := h.Len(); got != len(ops) {
			t.Errorf("key %d: Len = %d after the retry, want %d", bad, got, len(ops))
		}
		h.Close()
	}
}
