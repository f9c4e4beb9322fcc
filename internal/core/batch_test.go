package core

import (
	"fmt"
	"runtime"
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

// TestRequestSize bounds the list node that every round, blocking call
// and barrier publishes, which a Batcher keeps one of per partition.
func TestRequestSize(t *testing.T) {
	if got := unsafe.Sizeof(request{}); got > 48 {
		t.Fatalf("list entry is %d bytes, want <= 48", got)
	}
}

// TestPartitionLines pins the partition's two cache lines of its own:
// the first holds everything a blocking call writes and reads, the
// election, its tallies and the store, and its bucket array is a
// pointer-free allocation of its own, 64-aligned, whose pair for a round
// of one is the one line of it a call writes.
func TestPartitionLines(t *testing.T) {
	h := New(Config{Partitions: 2})
	p := h.parts[1]
	if addr := uintptr(unsafe.Pointer(p)); unsafe.Sizeof(*p) != 128 || addr%64 != 0 {
		t.Fatalf("partition of %d bytes at %#x; want 128 bytes, 64-aligned", unsafe.Sizeof(*p), addr)
	}
	if end := unsafe.Offsetof(p.store) + unsafe.Sizeof(p.store); unsafe.Offsetof(p.ops) > unsafe.Offsetof(p.store) || end != 64 {
		t.Fatalf("ops at byte %d, store ends at byte %d; want the tallies, then the store, filling the first line", unsafe.Offsetof(p.ops), end)
	}
	if addr := uintptr(unsafe.Pointer(p.buckets)); addr%64 != 0 {
		t.Fatalf("bucket array at %#x, want 64-aligned", addr)
	}
}

// holdPartition keeps partition p held inside a barrier closure until
// the returned release is called; release waits for the barrier to
// return and reports what fn read while still holding the partition.
func holdPartition(h *Hybrid, p int, fn func() int) (release func() int) {
	entered, rel, out := make(chan struct{}), make(chan struct{}), make(chan int, 1)
	go h.barrier(p, func(Store) {
		close(entered)
		<-rel
		out <- fn()
	})
	<-entered
	return func() int {
		close(rel)
		return <-out
	}
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

// TestBatcherOneEntryPerPartition checks the entry granularity: a 16-op
// batch over 4 partitions is 4 entries, one per partition, and at most
// one wake. Partition 0's holder is kept inside a barrier until the
// other three entries are applied — so the whole round is out — and
// then counts the list behind it the way PartitionStats does: it must
// find exactly one entry. The histograms must show every other partition
// combined once, for one entry, a round of 4 operations. They are read at
// quiescence (every published entry consumed) and before Close, whose own
// barrier is one more combine round on each partition. A blocking call on
// a free partition then takes it and applies itself: one more
// round of one entry and one op, with nothing left on the list.
func TestBatcherOneEntryPerPartition(t *testing.T) {
	const partitions = 4
	h := New(Config{Partitions: partitions, KeyMax: 1 << 20})
	defer h.Close()
	release := holdPartition(h, 0, h.parts[0].queued)
	b := h.NewBatcher(16)
	ops := spread(16, partitions, 1<<20)
	applied := make(chan int)
	go func() {
		n, _ := b.Apply(ops, nil)
		applied <- n
	}()
	// The count is the low bits; the waiter may have set the parked bit.
	waitFor(t, "the round to come down to partition 0's entry", func() bool { return b.pending.Load()&^parked == 1 })
	if n := release(); n != 1 {
		t.Errorf("list length behind the barrier = %d, want 1 (the batch's one entry)", n)
	}
	if n := <-applied; n != len(ops) {
		t.Errorf("applied = %d, want %d", n, len(ops))
	}
	if len(b.wake) != 0 || b.pending.Load()&^parked != 0 {
		t.Errorf("after the round: %d wake tokens left, count = %d; want none left, 0", len(b.wake), b.pending.Load()&^parked)
	}
	snap := tallied(h)
	get := func(p int, name string) uint64 { return snap.Get(fmt.Sprintf("core/p%d/%s", p, name)) }
	var opsApplied uint64
	for p := 0; p < partitions; p++ {
		// Partition 0 ran one more round, for the barrier that held it.
		extra := uint64(0)
		if p == 0 {
			extra = 1
		}
		if rounds, depth, sum := get(p, "mailbox/count"), get(p, "mailbox/sum"), get(p, "batch/sum"); rounds != 1+extra || depth != 1+extra || sum != 4+extra {
			t.Errorf("p%d: rounds = %d, entries taken = %d, batch sum = %d; want %d, %d, %d", p, rounds, depth, sum, 1+extra, 1+extra, 4+extra)
		}
		opsApplied += get(p, "ops")
	}
	if opsApplied != uint64(len(ops)) {
		t.Errorf("core/p*/ops sum = %d, want %d", opsApplied, len(ops))
	}
	h.Get(ops[1].Key) // partition 1's key
	after := tallied(h)
	for _, name := range []string{"mailbox/count", "mailbox/sum", "batch/count", "batch/sum", "ops"} {
		if d := after.Get("core/p1/"+name) - get(1, name); d != 1 {
			t.Errorf("uncontended blocking call moved core/p1/%s by %d, want 1", name, d)
		}
	}
	if n := h.parts[1].queued(); n != 0 {
		t.Errorf("uncontended blocking call left %d entries on the list, want 0", n)
	}
}

// TestBatcherRoundTakesFreePartition checks that a round applies its own
// entry on a free partition and publishes only to a held one. Rounds of
// 3 reads on each of 4 free partitions tally, read through
// ExportMetrics, one entry of 3 ops per (round, partition), beside the
// export's own barrier. A round behind an entry queued by hand on free
// partition 1 combines that entry first, so its read sees the queued
// Put, and then applies its own as a second round of one entry: a
// publish would have taken both in one combine of two. A round whose
// partition 0 is held publishes its entry there, one on the list behind
// the holder, and completes after the release.
func TestBatcherRoundTakesFreePartition(t *testing.T) {
	const partitions, rounds = 4, 5
	h := New(Config{Partitions: partitions, KeyMax: 1 << 20})
	defer h.Close()
	b := h.NewBatcher(16)
	ops := spread(3*partitions, partitions, 1<<20)
	for range rounds {
		if n, _ := b.Apply(ops, nil); n != len(ops) || b.wake != nil {
			t.Fatalf("round on free partitions: applied %d of %d, parked %v", n, len(ops), b.wake != nil)
		}
	}
	export := func() map[string]uint64 {
		counters, hists := h.ExportMetrics()
		for _, hs := range hists {
			counters[hs.Name+"/count"], counters[hs.Name+"/sum"] = hs.Count, hs.Sum
		}
		return counters
	}
	before := export()
	for p := range partitions {
		get := func(name string) uint64 { return before[fmt.Sprintf("core/p%d/%s", p, name)] }
		// The export's barrier on p is one more round of one entry.
		if got, want := [...]uint64{get("mailbox/count"), get("mailbox/sum"), get("batch/count"), get("batch/sum"), get("ops")},
			[...]uint64{rounds + 1, rounds + 1, rounds + 1, 3*rounds + 1, 3 * rounds}; got != want {
			t.Errorf("p%d: mailbox count, sum, batch count, sum, ops = %v, want %v", p, got, want)
		}
	}

	const key = 1<<19 + 1 // partition 2 of 4
	queued := h.NewBatcher(1)
	queued.ops, queued.out = []hds.Request{{Kind: hds.Insert, Key: key, Value: 7}}, make([]Outcome, 1)
	queued.parts[2].idx = append(queued.parts[2].idx, 0)
	queued.pending.Store(1)
	h.parts[2].head.Store(&queued.parts[2].entry)
	out := make([]Outcome, 1)
	if b.Apply([]hds.Request{{Kind: hds.Read, Key: key}}, out); out[0].Result != (hds.Result{Value: 7, OK: true}) || queued.pending.Load() != 0 {
		t.Fatalf("read behind a queued Put = %+v, the Put's countdown %d; want (7, ok), 0", out[0].Result, queued.pending.Load())
	}
	after := export()
	for _, name := range []string{"mailbox/count", "mailbox/sum", "batch/count", "batch/sum"} {
		// Two rounds of one entry of one op, and the export's barrier.
		if d := after["core/p2/"+name] - before["core/p2/"+name]; d != 3 {
			t.Errorf("a round behind a queued entry moved core/p2/%s by %d, want 3", name, d)
		}
	}

	release := holdPartition(h, 0, h.parts[0].queued)
	applied := make(chan int)
	go func() {
		n, _ := b.Apply(ops, nil)
		applied <- n
	}()
	waitFor(t, "the round to come down to partition 0's entry", func() bool { return b.pending.Load()&^parked == 1 })
	if n := release(); n != 1 {
		t.Errorf("list length behind the held partition = %d, want 1 (the round's entry)", n)
	}
	if n := <-applied; n != len(ops) {
		t.Errorf("applied = %d, want %d", n, len(ops))
	}
}

// TestBatcherParksPastSpin holds partition 0 past the spin bound: the
// round must give up spinning and set the parked bit, be woken exactly
// once by the holder's release — a second wake would block the holder on
// the one-slot channel or be left behind as a token — and leave the next,
// uncontended round to finish without parking. A blocking call held past
// its spin on the holder flag must publish its round of one, park and be
// woken exactly once; and one that spins while Close's barrier is queued
// on its partition must be refused, whether it takes the partition and
// runs the barrier first or publishes behind it, with the store
// untouched.
func TestBatcherParksPastSpin(t *testing.T) {
	h := New(Config{Partitions: 2, KeyMax: 1 << 20})
	defer h.Close()
	release := holdPartition(h, 0, func() int { return 0 })
	b := h.NewBatcher(16)
	ops := spread(16, 2, 1<<20)
	applied := make(chan int)
	go func() {
		n, _ := b.Apply(ops, nil)
		applied <- n
	}()
	waitFor(t, "the round to park", func() bool { return b.pending.Load() == parked|1 })
	release() // the holder's re-check after its release applies the entry and wakes the round
	if n := <-applied; n != len(ops) {
		t.Fatalf("applied = %d, want %d", n, len(ops))
	}
	if len(b.wake) != 0 || b.pending.Load() != parked {
		t.Fatalf("after the parked round: %d wake tokens, pending = %#x; want 0, %#x", len(b.wake), b.pending.Load(), parked)
	}
	if n, _ := b.Apply(ops, nil); n != len(ops) || len(b.wake) != 0 || b.pending.Load() != 0 {
		t.Fatalf("uncontended round: applied = %d, %d wake tokens, pending = %#x; want %d, 0, 0", n, len(b.wake), b.pending.Load(), len(ops))
	}

	part := h.parts[0]
	release = holdPartition(h, 0, part.queued)
	got := make(chan bool)
	go func() {
		_, ok := h.Get(ops[0].Key)
		got <- ok
	}()
	waitFor(t, "the blocking call to publish", func() bool { return part.head.Load() != nil })
	call := part.head.Load().grp
	waitFor(t, "the blocking call to park", func() bool { return call.pending.Load() == parked|1 })
	if n := release(); n != 1 {
		t.Errorf("list length behind the barrier = %d, want 1 (the call's entry)", n)
	}
	if <-got {
		t.Errorf("Get of an absent key returned ok")
	}
	if len(call.wake) != 0 || call.pending.Load() != parked {
		t.Fatalf("after the parked call: %d wake tokens, pending = %#x; want 0, %#x", len(call.wake), call.pending.Load(), parked)
	}

	// By hand, the moment between a holder's release and its re-check: a
	// Close barrier queued on free partition 1. A call that takes the
	// partition must run the barrier before its own operation.
	before := h.PartitionStats(1).Ops
	barrier := h.newBatcher(1, 0)
	barrier.snap = func(Store) { h.parts[1].refusing = true }
	barrier.pending.Store(1)
	h.parts[1].head.Store(&barrier.parts[1].entry)
	if h.Put(ops[1].Key, 7) || barrier.pending.Load() != 0 {
		t.Errorf("Put taking a partition with a Close barrier queued succeeded, or left it pending")
	}
	if st := h.PartitionStats(1); st.Ops != before || st.StoreLen != 0 {
		t.Errorf("after the refused Put: partition 1 applied %d more ops and holds %d pairs, want 0 and 0", st.Ops-before, st.StoreLen)
	}

	before = h.PartitionStats(0).Ops
	release = holdPartition(h, 0, func() int { return 0 })
	closed := make(chan struct{})
	go func() {
		h.Close()
		close(closed)
	}()
	waitFor(t, "Close's barrier to queue", func() bool { return part.queued() == 1 })
	put := make(chan bool)
	go func() { put <- h.Put(ops[0].Key, 7) }()
	release()
	if <-put {
		t.Errorf("Put spinning behind a queued Close barrier succeeded")
	}
	<-closed
	if st := h.PartitionStats(0); st.Ops != before || st.StoreLen != 0 {
		t.Errorf("after the refused Put: partition 0 applied %d more ops and holds %d pairs, want 0 and 0", st.Ops-before, st.StoreLen)
	}
}

// TestBarrierFollowsQueuedRound queues a Batcher round carrying a Put on
// free partition 1 by hand, the moment between a publish and its serve:
// a barrier that takes the partition must apply the round before its
// closure runs. Len must count the Put and complete the round, and a
// following Close must refuse nothing queued ahead of its barrier.
func TestBarrierFollowsQueuedRound(t *testing.T) {
	h := New(Config{Partitions: 2, KeyMax: 1 << 20})
	queue := func(key uint64) *Batcher {
		b := h.NewBatcher(1)
		b.ops, b.out = []hds.Request{{Kind: hds.Insert, Key: key, Value: key}}, make([]Outcome, 1)
		b.parts[1].idx = append(b.parts[1].idx, 0)
		b.pending.Store(1)
		h.parts[1].head.Store(&b.parts[1].entry)
		return b
	}
	first := queue(1<<19 + 1)
	if n := h.Len(); n != 1 || first.pending.Load() != 0 || !first.out[0].Result.OK {
		t.Fatalf("Len behind a queued Put = %d, countdown %d, outcome %+v; want 1, 0, applied ok", n, first.pending.Load(), first.out[0])
	}
	second := queue(1<<19 + 2)
	h.Close()
	if out := second.out[0]; out.Rejected || !out.Result.OK || second.pending.Load() != 0 {
		t.Fatalf("Put queued ahead of Close: outcome %+v, countdown %d; want applied ok, 0", out, second.pending.Load())
	}
	if n := h.Len(); n != 2 {
		t.Fatalf("Len after Close = %d, want 2", n)
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
// combine, or inside its own blocking call's op, so the other callers
// find the partition held while its holder cannot run, spin their
// spinLoads loads (about 10 µs) for nothing and park. Every round and
// call must still complete, and the spin costs at most one bound per
// round or call: 4 Batchers × 250 rounds and 2 blocking callers × 32
// calls (each key inserted, then read) are 1064 waits at most, about
// 11 ms of spinning (the race detector makes each load some fifty times
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

// TestBatcherInvalidKeyPublishesNothing is the partial-publish
// regression: a batch whose op k has a key outside the key space panics
// before any of its round reaches a list, and the Batcher stays
// usable.
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
