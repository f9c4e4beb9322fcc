package core

import (
	"fmt"
	"testing"
	"time"
	"unsafe"

	"hybrids/internal/hds"
	"hybrids/internal/metrics"
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
	b.Apply(ops, out) // warm the combiners' futures and stacks
	for name, res := range map[string][]Outcome{"out": out, "nil": nil} {
		if allocs := testing.AllocsPerRun(500, func() { b.Apply(ops, res) }); allocs != 0 {
			t.Errorf("Batcher.Apply(16 ops, %s) allocates %.2f objects/call, want 0", name, allocs)
		}
	}
}

// TestRequestSize keeps the mailbox element the blocking path shares with
// the batch path at the size it had before batch groups existed.
func TestRequestSize(t *testing.T) {
	if got := unsafe.Sizeof(request{}); got > 40 {
		t.Fatalf("mailbox entry is %d bytes, want <= 40", got)
	}
}

// TestBatcherOneEntryPerPartition checks the entry granularity: a 16-op
// batch over 4 partitions is 4 mailbox entries, one per partition, and
// one wake. Partition 0's holder is kept inside a barrier until the
// other three entries are applied — so the whole round is published —
// and then reads its queue length the way PartitionStats does: it must
// find exactly one entry. The histograms must show every other partition
// combined once, for one entry, a round of 4 operations. They are read at
// quiescence (every published entry consumed) and before Close, whose
// own barrier is one more combine round on each partition.
func TestBatcherOneEntryPerPartition(t *testing.T) {
	const partitions = 4
	reg := metrics.NewRegistry()
	h := New(Config{Partitions: partitions, KeyMax: 1 << 20, Metrics: reg})
	defer h.Close()
	entered, release := make(chan struct{}), make(chan struct{})
	queued := make(chan int, 1)
	go h.barrier(0, func(Store) {
		close(entered)
		<-release
		queued <- len(h.parts[0].reqs)
	})
	<-entered
	b := h.NewBatcher(16)
	ops := spread(16, partitions, 1<<20)
	applied := make(chan int)
	go func() {
		n, _ := b.Apply(ops, nil)
		applied <- n
	}()
	for deadline := time.Now().Add(10 * time.Second); b.pending.Load() != 1; {
		if time.Now().After(deadline) {
			t.Fatalf("round did not come down to partition 0's entry: pending = %d", b.pending.Load())
		}
		time.Sleep(50 * time.Microsecond)
	}
	close(release)
	if n := <-queued; n != 1 {
		t.Errorf("queue length behind the barrier = %d, want 1 (the batch's one entry)", n)
	}
	if n := <-applied; n != len(ops) {
		t.Errorf("applied = %d, want %d", n, len(ops))
	}
	if len(b.wake) != 0 || b.pending.Load() != 0 {
		t.Errorf("after the round: %d wake tokens left, pending = %d; want one wake, consumed", len(b.wake), b.pending.Load())
	}
	snap := reg.Snapshot()
	get := func(p int, name string) uint64 { return snap.Get(fmt.Sprintf("core/p%d/%s", p, name)) }
	var opsApplied uint64
	for p := 0; p < partitions; p++ {
		// Partition 0 ran one more round, for the barrier that held it.
		extra := uint64(0)
		if p == 0 {
			extra = 1
		}
		if rounds, depth, sum := get(p, "mailbox/count"), get(p, "mailbox/sum"), get(p, "batch/sum"); rounds != 1+extra || depth != 1+extra || sum != 4+extra {
			t.Errorf("p%d: rounds = %d, mailbox sum = %d, batch sum = %d; want %d, %d, %d", p, rounds, depth, sum, 1+extra, 1+extra, 4+extra)
		}
		opsApplied += get(p, "ops")
	}
	if opsApplied != uint64(len(ops)) {
		t.Errorf("core/p*/ops sum = %d, want %d", opsApplied, len(ops))
	}
}

// TestBatcherInvalidKeyPublishesNothing is the partial-publish
// regression: a batch whose op k has a key outside the key space panics
// before any of its round reaches a mailbox, and the Batcher stays
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
