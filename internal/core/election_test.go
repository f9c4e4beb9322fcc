package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybrids/internal/hds"
)

// TestHybridStartsNoGoroutine pins that the runtime owns no goroutine:
// the count is the same before New, after New, after traffic of every
// shape from this goroutine, and after Close.
func TestHybridStartsNoGoroutine(t *testing.T) {
	// Earlier tests' helper goroutines may still be on their way out.
	before, still := runtime.NumGoroutine(), 0
	for still < 5 {
		time.Sleep(10 * time.Millisecond)
		if now := runtime.NumGoroutine(); now == before {
			still++
		} else {
			before, still = now, 0
		}
	}
	check := func(when string) {
		t.Helper()
		if got := runtime.NumGoroutine(); got != before {
			t.Errorf("%d goroutines %s, want %d", got, when, before)
		}
	}
	h := New(Config{Partitions: 4, KeyMax: 1 << 20})
	check("after New")
	ops := spread(64, 4, 1<<20)
	for i := range ops {
		ops[i].Kind, ops[i].Value = hds.Insert, 1
	}
	if applied, succeeded := h.NewBatcher(16).Apply(ops, nil); applied != len(ops) || succeeded != len(ops) {
		t.Fatalf("applied/succeeded = %d/%d, want %d/%d", applied, succeeded, len(ops), len(ops))
	}
	if _, ok := h.Get(ops[0].Key); !ok {
		t.Fatal("Get missed an inserted key")
	}
	if got := len(h.Scan(0, 1000)); got != len(ops) || h.Len() != len(ops) {
		t.Fatalf("Scan = %d pairs, Len = %d, want %d", got, h.Len(), len(ops))
	}
	h.PartitionStats(0)
	h.ExportMetrics()
	check("after traffic")
	h.Close()
	check("after Close")
	if h.Len() != len(ops) {
		t.Fatalf("post-Close Len = %d, want %d", h.Len(), len(ops))
	}
	check("after a post-Close read")
}

// TestHybridContendedEntryServedByHolder is the contended path: while a
// caller holds partition 0 (kept inside a barrier closure), a round
// published to it cannot complete; it completes once the holder lets go,
// and it is the holder — not the publisher, which lost the election and
// moved on — that applies it, found by the re-check after its release.
func TestHybridContendedEntryServedByHolder(t *testing.T) {
	h := New(Config{Partitions: 2, KeyMax: 1 << 20})
	defer h.Close()
	entered, release := make(chan struct{}), make(chan struct{})
	holderDone := make(chan struct{})
	var appliedByHolder bool
	go func() {
		defer close(holderDone)
		h.barrier(0, func(Store) {
			close(entered)
			<-release
		})
		// The re-check runs before barrier returns: if the round's entry
		// was applied by then, this goroutine applied it.
		appliedByHolder = h.parts[0].cOps.Value() == 3
	}()
	<-entered
	b := h.NewBatcher(16)
	ops := []hds.Request{{Kind: hds.Insert, Key: 1, Value: 10}, {Kind: hds.Insert, Key: 2, Value: 20}, {Kind: hds.Read, Key: 1}}
	out := make([]Outcome, len(ops))
	applied := make(chan int)
	go func() {
		n, _ := b.Apply(ops, out)
		applied <- n
	}()
	// The publisher has given up on the held partition once its entry is
	// announced and it is parked on the round's countdown.
	for deadline := time.Now().Add(10 * time.Second); h.parts[0].undrained.Load() != 1; {
		if time.Now().After(deadline) {
			t.Fatalf("the round's entry was not announced: undrained = %d", h.parts[0].undrained.Load())
		}
		time.Sleep(50 * time.Microsecond)
	}
	if !h.parts[0].held.Load() || b.pending.Load() != 1 {
		t.Fatalf("held = %v, pending = %d while the holder is inside its barrier; want true, 1", h.parts[0].held.Load(), b.pending.Load())
	}
	close(release)
	select {
	case n := <-applied:
		if n != len(ops) {
			t.Fatalf("applied = %d, want %d", n, len(ops))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the entry left to the holder was never applied: lost between its release and its re-check")
	}
	if got := out[2].Result; !got.OK || got.Value != 10 {
		t.Errorf("read in the round = %+v, want (10, true)", got)
	}
	<-holderDone
	if !appliedByHolder {
		t.Error("the round's entry was not applied by the partition's holder before it returned")
	}
	if h.parts[0].held.Load() || h.parts[0].undrained.Load() != 0 {
		t.Errorf("after the round: held = %v, undrained = %d; want false, 0", h.parts[0].held.Load(), h.parts[0].undrained.Load())
	}
}

// TestHybridElectionSmallMailbox is the liveness test of the election at
// its tightest: one-entry mailboxes, 2 partitions, 8 Batcher callers
// (windows 1, 4 and 16) whose rounds span both partitions, 8 blocking
// callers, a Scan/Len loop and a Close in mid-stream. Nothing drains a
// mailbox but the callers themselves, so a publisher that blocked on a
// full mailbox while an entry of its own sat unserved in another would
// deadlock the lot (DESIGN §5.5, hazard b); a watchdog dumps every
// goroutine if the run does not finish. No entry may be lost either:
// every insert reported applied is in the final Dump, and nothing else.
func TestHybridElectionSmallMailbox(t *testing.T) {
	const (
		keyMax  = 1 << 20
		closeAt = 20000 // operations issued before Close starts
		tail    = 8     // refusals a caller sees before it stops
	)
	h := New(Config{Partitions: 2, KeyMax: keyMax, MailboxDepth: 1})
	var issued atomic.Int64
	startClose := make(chan struct{})
	var onceClose sync.Once
	count := func(n int) {
		if issued.Add(int64(n)) >= closeAt {
			onceClose.Do(func() { close(startClose) })
		}
	}
	// Caller c inserts fresh keys of its own, alternating partitions so a
	// round of two or more touches both — even callers publish to
	// partition 0 first, odd ones to partition 1, the two orders a cycle
	// needs. key(c, i) is unique.
	key := func(c, i int) uint64 {
		return uint64((i+c)%2)*(keyMax/2) + uint64(c)<<15 + uint64(i/2) + 1
	}
	windows := []int{1, 4, 16, 1, 4, 16, 4, 16}
	const callers = 16
	inserted := make([][]uint64, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if c >= len(windows) { // blocking callers
				for i, refused := 0, 0; refused < tail; i++ {
					count(1)
					if k := key(c, i); h.Put(k, k) {
						inserted[c] = append(inserted[c], k)
					} else {
						refused++ // fresh key: only a closed map says no
					}
				}
				return
			}
			b := h.NewBatcher(windows[c])
			ops := make([]hds.Request, 24)
			out := make([]Outcome, len(ops))
			for i, refused := 0, 0; refused < tail; i += len(ops) {
				for j := range ops {
					k := key(c, i+j)
					ops[j] = hds.Request{Kind: hds.Insert, Key: k, Value: k}
				}
				count(len(ops))
				b.Apply(ops, out)
				for j, o := range out {
					switch {
					case o.Rejected:
						refused++
					case o.Result.OK:
						inserted[c] = append(inserted[c], ops[j].Key)
					default:
						t.Errorf("caller %d: insert of fresh key %d applied but failed", c, ops[j].Key)
					}
				}
			}
		}()
	}
	wg.Add(2)
	go func() { // barriers in the middle of the traffic, and after Close
		defer wg.Done()
		for last := 0; ; {
			n := h.Len()
			if n < last {
				t.Errorf("Len went from %d to %d under insert-only traffic", last, n)
			}
			last = n
			if got := h.Scan(0, 64); len(got) > 64 {
				t.Errorf("Scan(limit 64) returned %d pairs", len(got))
			}
			if h.Closed() {
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		<-startClose
		h.Close()
	}()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("callers still running after 30 s: deadlock or lost entry\n%s", buf[:runtime.Stack(buf, true)])
	}

	want := make(map[uint64]bool)
	for _, keys := range inserted {
		for _, k := range keys {
			want[k] = true
		}
	}
	dump := h.Dump()
	if len(dump) != len(want) || h.Len() != len(want) {
		t.Errorf("Dump holds %d pairs, Len = %d, callers were told %d inserts applied", len(dump), h.Len(), len(want))
	}
	for _, kv := range dump {
		if !want[kv.Key] {
			t.Fatalf("Dump holds key %d, which no caller was told it inserted", kv.Key)
		}
	}
	for p, part := range h.parts {
		if part.held.Load() || part.undrained.Load() != 0 || len(part.reqs) != 0 {
			t.Errorf("p%d at rest: held = %v, undrained = %d, %d entries queued; want false, 0, 0", p, part.held.Load(), part.undrained.Load(), len(part.reqs))
		}
	}
	t.Logf("%d inserts applied of %d operations issued", len(want), issued.Load())
}
