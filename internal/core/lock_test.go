package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybrids/internal/cds"
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

// gatedStore counts the Gets and Puts it sees and blocks a Get of key
// gate until the open channel is closed.
type gatedStore struct {
	Store
	gate    uint64
	entered chan struct{}
	open    chan struct{}
	touched *atomic.Int32
}

func (s gatedStore) Get(key uint64) (uint64, bool) {
	s.touched.Add(1)
	if key == s.gate {
		close(s.entered)
		<-s.open
	}
	return s.Store.Get(key)
}

func (s gatedStore) Put(key, value uint64) bool {
	s.touched.Add(1)
	return s.Store.Put(key, value)
}

// TestCloseRacingRound is a round that straddles Close: it reads the map
// open, is applied on partition 1 ahead of Close's barrier there, and
// takes partition 0 after Close's barrier has run there. The ops on
// partition 1 must be applied and the ops on partition 0 Rejected, with
// partition 0's store never touched; Apply counts only the applied ops.
// Dump after Close is final: later calls and rounds change nothing.
func TestCloseRacingRound(t *testing.T) {
	const keyMax = 1 << 20
	const gate = keyMax/2 + 7
	entered, open := make(chan struct{}), make(chan struct{})
	touched := make([]atomic.Int32, 2)
	h := New(Config{Partitions: 2, KeyMax: keyMax, NewStore: func(p int) Store {
		return gatedStore{Store: cds.NewBTree(), gate: gate, entered: entered, open: open, touched: &touched[p]}
	}})
	h.Build([]KV{{Key: gate, Value: 70}})
	// Partition 0 is held and routed second, so the round takes partition
	// 1 first and stalls there, holding it, inside the gated Get.
	release := holdPartition(h, 0, func() int { return 0 })
	defer release()
	b := h.NewBatcher(16)
	ops := []hds.Request{
		{Kind: hds.Insert, Key: keyMax/2 + 1, Value: 2},
		{Kind: hds.Read, Key: gate},
		{Kind: hds.Insert, Key: 1, Value: 1},
		{Kind: hds.Insert, Key: 2, Value: 3},
	}
	out := make([]Outcome, len(ops))
	applied := make(chan int)
	go func() {
		n, _ := b.Apply(ops, out)
		applied <- n
	}()
	<-entered
	// Close's barrier takes partition 0 once the holder lets go, and then
	// waits for partition 1 ...
	closed := make(chan struct{})
	go func() {
		h.Close()
		close(closed)
	}()
	release()
	waitFor(t, "Close's barrier on partition 0", func() bool { return refused(h, 0) })
	// ... so the round reaches partition 0 behind it.
	close(open)
	if n := <-applied; n != 2 {
		t.Errorf("applied = %d, want 2 (partition 1's ops only)", n)
	}
	<-closed
	for i, want := range []Outcome{
		{Result: hds.Result{OK: true}},
		{Result: hds.Result{Value: 70, OK: true}},
		{Rejected: true},
		{Rejected: true},
	} {
		if out[i] != want {
			t.Errorf("op %d (%v key %d): outcome %+v, want %+v", i, ops[i].Kind, ops[i].Key, out[i], want)
		}
	}
	if n := touched[0].Load(); n != 0 {
		t.Errorf("partition 0's store saw %d data operations, want 0", n)
	}
	final := h.Dump()
	if want := []KV{{Key: keyMax/2 + 1, Value: 2}, {Key: gate, Value: 70}}; fmt.Sprint(final) != fmt.Sprint(want) {
		t.Fatalf("Dump after Close = %v, want %v", final, want)
	}
	if h.Put(3, 3) || h.Delete(gate) {
		t.Error("a call after Close returned was applied")
	}
	if n, _ := b.Apply(ops, out); n != 0 {
		t.Errorf("a round after Close returned applied %d ops", n)
	}
	if got := h.Dump(); fmt.Sprint(got) != fmt.Sprint(final) {
		t.Errorf("Dump changed after Close: %v, then %v", final, got)
	}
}

// TestHybridLockStress is the lock's stress test: 2 partitions, 8
// Batcher callers (windows 1, 4 and 16) whose rounds span both
// partitions and open with a windowed scan, 8 blocking callers, a
// Scan/Len loop and a Close in mid-stream, so most calls find their
// partition held and many outlast the spin and park. A round that held
// one lock while it waited for another could deadlock against a barrier,
// and a lock left held would leave its next caller waiting for ever; a
// watchdog dumps every goroutine if the run does not finish. No operation
// may be lost or applied twice either: every insert reported applied is
// in the final Dump, and nothing else, and every lock is free at the end.
func TestHybridLockStress(t *testing.T) {
	const (
		keyMax  = 1 << 40
		closeAt = 20000 // operations issued before Close starts
		tail    = 8     // refusals a caller sees before it stops
	)
	h := New(Config{Partitions: 2, KeyMax: keyMax})
	var issued atomic.Int64
	var closed atomic.Bool // set once Close has returned
	// The caller whose add crosses closeAt runs Close itself, before its
	// own ops, so Close starts at closeAt issued however busy the rest are.
	count := func(n int) {
		if now := issued.Add(int64(n)); now >= closeAt && now-int64(n) < closeAt {
			t.Logf("Close starts at %d operations issued", now)
			h.Close()
			closed.Store(true)
		}
	}
	// Caller c inserts fresh keys of its own, alternating partitions so a
	// round of two or more touches both — even callers route to partition
	// 0 first, odd ones to partition 1. Each caller owns 2^32 keys in each
	// partition, from c<<32 up, all below the scans' starts (keyMax/2 -
	// c<<10), so key(c, i) is unique for any i a run reaches, however late
	// Close lands.
	key := func(c, i int) uint64 {
		return uint64((i+c)%2)*(keyMax/2) + uint64(c)<<32 + uint64(i/2) + 1
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
				// The scan starts above the caller's partition-0 keys, so
				// it continues into partition 1 after its round.
				ops[0] = hds.Request{Kind: hds.Scan, Key: keyMax/2 - uint64(c)<<10, Value: 16}
				count(len(ops))
				b.Apply(ops, out)
				scan := b.Pairs(0)
				if !out[0].Result.OK || out[0].Rejected || int(out[0].Result.Value) != len(scan) || len(scan) > 16 {
					t.Errorf("caller %d: windowed scan outcome %+v with %d pairs", c, out[0], len(scan))
				}
				for j := range scan {
					if scan[j].Key < ops[0].Key || j > 0 && scan[j].Key <= scan[j-1].Key {
						t.Errorf("caller %d: windowed scan from %d returned %v", c, ops[0].Key, scan)
						break
					}
				}
				for j := 1; j < len(out); j++ {
					switch o := out[j]; {
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
	wg.Add(1)
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
			if closed.Load() {
				return
			}
		}
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
		t.Fatalf("callers still running after 30 s: deadlock or a lock left held\n%s", buf[:runtime.Stack(buf, true)])
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
		if !part.mu.TryLock() {
			t.Errorf("p%d at rest: locked, want free", p)
			continue
		}
		part.mu.Unlock()
	}
	t.Logf("%d inserts applied of %d operations issued", len(want), issued.Load())
}
