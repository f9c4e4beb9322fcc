package core

import (
	"fmt"
	"sync"
	"testing"

	"hybrids/internal/hds"
	"hybrids/internal/metrics"
	"hybrids/internal/prng"
)

// TestHybridCloseDrainsPublished publishes a burst of asynchronous
// operations and closes immediately: every future published before Close
// must complete with its operation applied.
func TestHybridCloseDrainsPublished(t *testing.T) {
	h := New(Config{Partitions: 4, KeyMax: 1 << 20})
	const n = 500
	futs := make([]*future, 0, n)
	for i := uint64(1); i <= n; i++ {
		futs = append(futs, h.async(hds.Request{Kind: hds.Insert, Key: i, Value: i * 2}))
	}
	h.Close()
	for i, f := range futs {
		if _, ok := f.wait(); !ok {
			t.Fatalf("pre-Close insert %d rejected", i+1)
		}
	}
	if got := h.Len(); got != n {
		t.Fatalf("Len = %d after drain, want %d", got, n)
	}
	for i := uint64(1); i <= n; i++ {
		if v, ok := h.Get(i); ok || v != 0 {
			t.Fatal("post-Close Get was not rejected")
		}
		break // one probe is enough
	}
}

// TestHybridLatePublishRejected checks the deterministic rejection path:
// after Close every publish completes immediately with ok=false and no
// store mutation.
func TestHybridLatePublishRejected(t *testing.T) {
	h := New(Config{Partitions: 2, KeyMax: 1 << 16})
	h.Put(7, 70)
	h.Close()
	if _, ok := h.async(hds.Request{Kind: hds.Insert, Key: 9, Value: 90}).wait(); ok {
		t.Fatal("late Insert succeeded")
	}
	if ok := h.Put(10, 100); ok {
		t.Fatal("late Put succeeded")
	}
	f := h.async(hds.Request{Kind: hds.Read, Key: 7})
	done := f.state.Load() == futDone
	if v, ok := f.wait(); !done || ok || v != 0 {
		t.Fatalf("late Read = (%d,%v,%v), want immediate rejection", v, ok, done)
	}
	if !h.Closed() {
		t.Fatal("Closed() = false after Close")
	}
	// Quiescent read-only accessors still serve the drained state.
	if got := h.Len(); got != 1 {
		t.Fatalf("post-Close Len = %d, want 1", got)
	}
	if d := h.Dump(); len(d) != 1 || d[0] != (KV{Key: 7, Value: 70}) {
		t.Fatalf("post-Close Dump = %v", d)
	}
}

// TestHybridApplyBatchWindow drives batches at several window sizes: all
// operations complete, results are exact.
func TestHybridApplyBatchWindow(t *testing.T) {
	for _, window := range []int{1, 4, 16} {
		h := New(Config{Partitions: 4, KeyMax: 1 << 20})
		const n = 2000
		ops := make([]hds.Request, 0, 2*n)
		for i := uint64(1); i <= n; i++ {
			ops = append(ops, hds.Request{Kind: hds.Insert, Key: i, Value: i + 1})
		}
		// Second half: reads of every inserted key plus misses.
		for i := uint64(1); i <= n; i++ {
			ops = append(ops, hds.Request{Kind: hds.Read, Key: i})
		}
		if applied, succeeded := h.NewBatcher(window).Apply(ops, nil); applied != 2*n || succeeded != 2*n {
			t.Fatalf("window %d: applied/succeeded = %d/%d, want %d/%d", window, applied, succeeded, 2*n, 2*n)
		}
		misses := []hds.Request{{Kind: hds.Read, Key: n + 1}, {Kind: hds.Remove, Key: n + 2}}
		if applied, succeeded := h.NewBatcher(window).Apply(misses, nil); applied != 2 || succeeded != 0 {
			t.Fatalf("window %d: misses applied/succeeded = %d/%d, want 2/0", window, applied, succeeded)
		}
		if got := h.Len(); got != n {
			t.Fatalf("window %d: Len = %d, want %d", window, got, n)
		}
		h.Close()
	}
}

// TestHybridApplyBatchConcurrent runs batch callers on several goroutines
// over disjoint key ranges: per-caller Batchers must never interfere.
func TestHybridApplyBatchConcurrent(t *testing.T) {
	h := New(Config{Partitions: 8, KeyMax: 1 << 20})
	defer h.Close()
	const threads = 6
	const perThread = 1500
	var wg sync.WaitGroup
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			base := uint64(th*perThread) + 1
			ops := make([]hds.Request, perThread)
			for i := range ops {
				ops[i] = hds.Request{Kind: hds.Insert, Key: base + uint64(i), Value: base}
			}
			if _, succeeded := h.NewBatcher(4).Apply(ops, nil); succeeded != perThread {
				t.Errorf("thread %d: succeeded = %d, want %d", th, succeeded, perThread)
			}
		}(th)
	}
	wg.Wait()
	if got := h.Len(); got != threads*perThread {
		t.Fatalf("Len = %d, want %d", got, threads*perThread)
	}
}

// TestHybridBuildDump loads pairs through the untimed Build path and
// checks Dump returns them in global key order.
func TestHybridBuildDump(t *testing.T) {
	h := New(Config{Partitions: 4, KeyMax: 1 << 16})
	defer h.Close()
	var pairs []KV
	for k := uint64(1); k < 1<<16; k += 97 {
		pairs = append(pairs, KV{Key: k, Value: k * 3})
	}
	// Scrambled input order must not matter.
	for i, j := 0, len(pairs)-1; i < j; i, j = i+1, j-1 {
		pairs[i], pairs[j] = pairs[j], pairs[i]
	}
	h.Build(pairs)
	if got := h.Len(); got != len(pairs) {
		t.Fatalf("Len = %d, want %d", got, len(pairs))
	}
	d := h.Dump()
	if len(d) != len(pairs) {
		t.Fatalf("Dump len = %d, want %d", len(d), len(pairs))
	}
	for i := 1; i < len(d); i++ {
		if d[i-1].Key >= d[i].Key {
			t.Fatalf("Dump not in key order at %d: %d >= %d", i, d[i-1].Key, d[i].Key)
		}
	}
	for _, kv := range d {
		if kv.Value != kv.Key*3 {
			t.Fatalf("Dump pair %v corrupted", kv)
		}
	}
}

// TestHybridBuildDuplicatesKeepFirst pins Build's contract under its
// sort, on both sides of the 2^32 key bound (above it keys are sorted by
// both halves): shuffled input with repeated keys ends as the first
// occurrence of each key, core/p*/built counts only the accepted pairs,
// the caller's slice is left as it was, and the stores really are fed in
// key order.
func TestHybridBuildDuplicatesKeepFirst(t *testing.T) {
	for _, keyMax := range []uint64{1 << 16, 1 << 62} {
		reg := metrics.NewRegistry()
		h := New(Config{Partitions: 4, KeyMax: keyMax, Metrics: reg})
		rng := prng.New(17)
		first := map[uint64]uint64{}
		pairs := make([]KV, 20000)
		for i := range pairs {
			// 5000 distinct keys spread over the whole key space, so
			// every key repeats about four times.
			k := (uint64(rng.Intn(5000))+1)*(keyMax/5001) + 1
			pairs[i] = KV{Key: k, Value: uint64(i)}
			if _, seen := first[k]; !seen {
				first[k] = uint64(i)
			}
		}
		input := append([]KV(nil), pairs...)
		h.Build(pairs)
		for i := range pairs {
			if pairs[i] != input[i] {
				t.Fatalf("keyMax=%d: Build moved the caller's pair %d", keyMax, i)
			}
		}
		d := h.Dump()
		h.Close()
		if len(d) != len(first) {
			t.Fatalf("keyMax=%d: Dump holds %d pairs, want %d", keyMax, len(d), len(first))
		}
		for i, kv := range d {
			if i > 0 && d[i-1].Key >= kv.Key {
				t.Fatalf("keyMax=%d: Dump not in key order at %d", keyMax, i)
			}
			if want := first[kv.Key]; kv.Value != want {
				t.Fatalf("keyMax=%d: key %d kept value %d, first pair had %d", keyMax, kv.Key, kv.Value, want)
			}
		}
		var built, leafSplits uint64
		snap := reg.Snapshot()
		for p := 0; p < 4; p++ {
			built += snap.Get(fmt.Sprintf("core/p%d/built", p))
			leafSplits += snap.Get(fmt.Sprintf("core/p%d/store/leaf_splits", p))
		}
		if built != uint64(len(first)) {
			t.Fatalf("keyMax=%d: core/p*/built = %d, want %d accepted pairs", keyMax, built, len(first))
		}
		// Ascending inserts leave the store's 15-pair leaves full (the
		// append split); any other order halves them and splits more
		// often.
		if leafSplits > built/15 {
			t.Fatalf("keyMax=%d: %d leaf splits for %d pairs: Build did not insert in key order", keyMax, leafSplits, built)
		}
	}
}

// TestHybridMetrics checks the per-partition instruments: op counts sum
// to the operations applied, batch rounds and list depths are
// observed, and the default B+ tree store reports splits. The registry is
// read before Close, whose barriers are combine rounds too.
func TestHybridMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	h := New(Config{Partitions: 2, KeyMax: 1 << 20, Metrics: reg})
	defer h.Close()
	const n = 4000
	for i := uint64(1); i <= n; i++ {
		h.Put(i, i)
	}
	ops := make([]hds.Request, 0, n)
	for i := uint64(1); i <= n; i++ {
		ops = append(ops, hds.Request{Kind: hds.Read, Key: i})
	}
	h.NewBatcher(8).Apply(ops, nil)
	snap := reg.Snapshot()
	var opsApplied, rounds, batchSum, leafSplits uint64
	for p := 0; p < 2; p++ {
		opsApplied += snap.Get(fmt.Sprintf("core/p%d/ops", p))
		rounds += snap.Get(fmt.Sprintf("core/p%d/batch/count", p))
		batchSum += snap.Get(fmt.Sprintf("core/p%d/batch/sum", p))
		leafSplits += snap.Get(fmt.Sprintf("core/p%d/store/leaf_splits", p))
	}
	if opsApplied != 2*n {
		t.Errorf("ops applied = %d, want %d", opsApplied, 2*n)
	}
	if rounds == 0 || batchSum != opsApplied {
		t.Errorf("batch rounds = %d sum = %d, want sum == ops %d", rounds, batchSum, opsApplied)
	}
	if leafSplits == 0 {
		t.Errorf("no leaf splits recorded for %d sequential inserts", n)
	}
	if h.Metrics() != reg {
		t.Error("Metrics() did not return the configured registry")
	}
}

// TestHybridApplyBatchAccounting pins the applied/succeeded distinction:
// a read of an absent key is an *applied* operation that legitimately
// failed, while a publish rejected by a concurrent Close never reaches a
// store and must not be counted as applied.
func TestHybridApplyBatchAccounting(t *testing.T) {
	h := New(Config{Partitions: 4, KeyMax: 1 << 20})
	const hits, misses = 40, 17
	ops := make([]hds.Request, 0, 2*hits+misses)
	for i := uint64(1); i <= hits; i++ {
		ops = append(ops, hds.Request{Kind: hds.Insert, Key: i, Value: i})
	}
	for i := uint64(1); i <= hits; i++ {
		ops = append(ops, hds.Request{Kind: hds.Read, Key: i})
	}
	for i := uint64(1); i <= misses; i++ {
		ops = append(ops, hds.Request{Kind: hds.Read, Key: 1<<19 + i})
	}
	out := make([]Outcome, len(ops))
	applied, succeeded := h.NewBatcher(8).Apply(ops, out)
	if applied != len(ops) {
		t.Errorf("applied = %d, want %d (misses are still applied)", applied, len(ops))
	}
	if succeeded != 2*hits {
		t.Errorf("succeeded = %d, want %d (misses are not successes)", succeeded, 2*hits)
	}
	for i, o := range out {
		if o.Rejected {
			t.Fatalf("op %d marked rejected on an open map", i)
		}
		wantOK := i < 2*hits
		if o.Result.OK != wantOK {
			t.Fatalf("op %d OK = %v, want %v", i, o.Result.OK, wantOK)
		}
		if i >= hits && i < 2*hits && o.Result.Value != uint64(i-hits+1) {
			t.Fatalf("read %d value = %d, want %d", i, o.Result.Value, i-hits+1)
		}
	}

	// After Close every publish is rejected: applied must drop to zero
	// and every outcome must carry the Rejected mark.
	h.Close()
	late := []hds.Request{{Kind: hds.Read, Key: 1}, {Kind: hds.Insert, Key: 99, Value: 1}}
	lateOut := make([]Outcome, len(late))
	applied, succeeded = h.NewBatcher(4).Apply(late, lateOut)
	if applied != 0 || succeeded != 0 {
		t.Errorf("post-Close applied/succeeded = %d/%d, want 0/0", applied, succeeded)
	}
	for i, o := range lateOut {
		if !o.Rejected || o.Result.OK {
			t.Errorf("post-Close op %d outcome = %+v, want rejected", i, o)
		}
	}
}

// TestHybridScan covers the cross-partition range read: ordering, limit
// handling, a from key inside the range, and post-Close reads of the
// quiescent stores.
func TestHybridScan(t *testing.T) {
	h := New(Config{Partitions: 4, KeyMax: 1 << 16})
	var pairs []KV
	for k := uint64(1); k < 1<<16; k += 131 {
		pairs = append(pairs, KV{Key: k, Value: k * 7})
	}
	h.Build(pairs)
	got := h.Scan(0, len(pairs)+10)
	if len(got) != len(pairs) {
		t.Fatalf("full scan returned %d pairs, want %d", len(got), len(pairs))
	}
	for i, kv := range got {
		if kv != pairs[i] {
			t.Fatalf("scan[%d] = %+v, want %+v", i, kv, pairs[i])
		}
	}
	mid := pairs[len(pairs)/2].Key
	part := h.Scan(mid, 5)
	if len(part) != 5 || part[0].Key != mid {
		t.Fatalf("scan(from=%d, limit=5) = %+v", mid, part)
	}
	if h.Scan(1, 0) != nil {
		t.Error("limit 0 scan returned pairs")
	}
	// The Scan kind of a data call counts pairs per partition.
	res := h.Apply(hds.Request{Kind: hds.Scan, Key: pairs[0].Key, Value: 3})
	if !res.OK || res.Value != 3 {
		t.Fatalf("Scan call = %+v, want OK count 3", res)
	}
	h.Close()
	if got := h.Scan(0, 3); len(got) != 3 || got[0] != pairs[0] {
		t.Fatalf("post-Close scan = %+v", got)
	}
}
