package core

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hybrids/internal/hds"
	"hybrids/internal/metrics"
	"hybrids/internal/prng"
)

// opsApplied sums the core/p*/ops counters: the data operations the
// partitions applied. Read it at quiescence.
func opsApplied(h *Hybrid) (n uint64) {
	for p := 0; p < h.Partitions(); p++ {
		n += h.PartitionStats(p).Ops
	}
	return n
}

// tallied reads every partition's tallies, hit cells included, and the
// stores' counters into one snapshot, a histogram as its sum and count,
// as ExportMetrics does but without a barrier's own round. Call it at
// quiescence.
func tallied(h *Hybrid) metrics.Snapshot {
	snap := metrics.Snapshot{}
	for p, part := range h.parts {
		st, buckets := part.stats()
		st.Ops += h.hitsOn(p)
		hs := st.export(snap, buckets)
		snap[hs.Name+"/sum"], snap[hs.Name+"/count"] = hs.Sum, hs.Count
	}
	return snap
}

// TestHybridCloseDrainsPublished inserts a burst of keys, then races
// Close against a blocking caller and a Batcher inserting fresh keys:
// everything issued before Close began is applied, every racing
// insert is applied or refused, never lost, and the store holds exactly
// the inserts whose callers were told they were applied.
func TestHybridCloseDrainsPublished(t *testing.T) {
	h := New(Config{Partitions: 4, KeyMax: 1 << 20})
	const n = 500
	for i := uint64(1); i <= n; i++ {
		if !h.Put(i, i*2) {
			t.Fatalf("pre-Close insert %d refused", i)
		}
	}
	var applied atomic.Int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for k := uint64(n + 1); k <= 2*n; k++ {
			if h.Put(k, k*2) { // a fresh key: false is a refusal
				applied.Add(1)
			}
		}
	}()
	go func() {
		defer wg.Done()
		ops := make([]hds.Request, n)
		for i := range ops {
			k := uint64(2*n + 1 + i)
			ops[i] = hds.Request{Kind: hds.Insert, Key: k, Value: k * 2}
		}
		out := make([]Outcome, n)
		h.NewBatcher(16).Apply(ops, out)
		for i, o := range out {
			if !o.Rejected && !o.Result.OK {
				t.Errorf("insert of fresh key %d applied but failed", ops[i].Key)
			}
			if !o.Rejected {
				applied.Add(1)
			}
		}
	}()
	h.Close()
	wg.Wait()
	want := n + int(applied.Load())
	if got := h.Len(); got != want {
		t.Fatalf("Len = %d after the drain, want %d", got, want)
	}
	if got := opsApplied(h); got != uint64(want) {
		t.Fatalf("core/p*/ops = %d, want %d", got, want)
	}
	for _, kv := range h.Dump() {
		if kv.Value != kv.Key*2 {
			t.Fatalf("Dump holds %v", kv)
		}
	}
	if v, ok := h.Get(1); ok || v != 0 {
		t.Fatalf("post-Close Get = (%d, %v), want a refusal", v, ok)
	}
}

// TestHybridLatePublishRejected checks the deterministic rejection path:
// after Close every blocking call returns ok=false and every round's data
// operation is Rejected, with no store touched, while the read-only
// accessors still serve the drained state.
func TestHybridLatePublishRejected(t *testing.T) {
	h := New(Config{Partitions: 2, KeyMax: 1 << 16})
	h.Put(7, 70)
	h.Close()
	for _, req := range []hds.Request{
		{Kind: hds.Insert, Key: 9, Value: 90},
		{Kind: hds.Read, Key: 7},
		{Kind: hds.Update, Key: 7, Value: 71},
		{Kind: hds.Remove, Key: 7},
	} {
		if res := h.Apply(req); res != (hds.Result{}) {
			t.Fatalf("late %v = %+v, want a refusal (0, false)", req, res)
		}
	}
	if h.Put(10, 100) {
		t.Fatal("late Put succeeded")
	}
	out := make([]Outcome, 1)
	if n, _ := h.NewBatcher(4).Apply([]hds.Request{{Kind: hds.Read, Key: 7}}, out); n != 0 || !out[0].Rejected {
		t.Fatalf("late round applied %d, outcome %+v; want 0, Rejected", n, out[0])
	}
	if got := opsApplied(h); got != 1 {
		t.Fatalf("core/p*/ops = %d after the late calls, want 1 (the Put before Close)", got)
	}
	if got := h.Len(); got != 1 {
		t.Fatalf("post-Close Len = %d, want 1", got)
	}
	if d := h.Dump(); len(d) != 1 || d[0] != (KV{Key: 7, Value: 70}) {
		t.Fatalf("post-Close Dump = %v", d)
	}
}

// TestHybridApplyScanPanics checks that a blocking Apply refuses a Scan
// by panicking, naming the calls that serve one, before it takes a
// partition: no partition counts an operation and the map still serves.
func TestHybridApplyScanPanics(t *testing.T) {
	h := New(Config{Partitions: 2, KeyMax: 1 << 16})
	defer h.Close()
	h.Put(7, 70)
	func() {
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "Scan or ScanAppend") {
				t.Errorf("Apply(Scan) panicked with %q, want a message naming Scan or ScanAppend", msg)
			}
		}()
		h.Apply(hds.Request{Kind: hds.Scan, Key: 1, Value: 8})
		t.Error("Apply(Scan) returned")
	}()
	if got := opsApplied(h); got != 1 {
		t.Errorf("core/p*/ops = %d after Apply(Scan), want 1 (the Put)", got)
	}
	if v, ok := h.Get(7); !ok || v != 70 {
		t.Errorf("Get(7) = (%d, %v) after the panic, want (70, true)", v, ok)
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
		h := New(Config{Partitions: 4, KeyMax: keyMax})
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
		snap := tallied(h)
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
// to the operations applied, batch rounds are observed, and the default
// B+ tree store reports splits. The tallies are read before Close, whose
// barriers are rounds too.
func TestHybridMetrics(t *testing.T) {
	h := New(Config{Partitions: 2, KeyMax: 1 << 20})
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
	snap := tallied(h)
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
}

// TestBlockingCallsCountedThroughBarrier runs two concurrent blocking
// callers, which tally their calls on the partition alternately, each
// while holding it, and reads the tallies through ExportMetrics, whose
// barrier reads them while holding it too: every call is one op and one
// round of one, and the export's own barrier one more round on each
// partition.
func TestBlockingCallsCountedThroughBarrier(t *testing.T) {
	const partitions, calls = 4, 5000
	h := New(Config{Partitions: partitions, KeyMax: 1 << 16})
	defer h.Close()
	var wg sync.WaitGroup
	for c := range 2 {
		wg.Add(1)
		go func(rng *prng.Source) {
			defer wg.Done()
			for range calls {
				k := uint64(rng.Intn(1<<16-1)) + 1
				switch rng.Intn(3) {
				case 0:
					h.Put(k, k)
				case 1:
					h.Get(k)
				default:
					h.Delete(k)
				}
			}
		}(prng.New(uint64(c) + 1))
	}
	wg.Wait()
	counters, hists := h.ExportMetrics()
	var ops uint64
	for p := range partitions {
		ops += counters[fmt.Sprintf("core/p%d/ops", p)]
	}
	if ops != 2*calls {
		t.Errorf("core/p*/ops = %d, want the %d calls made", ops, 2*calls)
	}
	var batchSum uint64
	for _, batch := range hists {
		if batch.Count != batch.Sum || batch.Buckets[1] != batch.Count {
			t.Errorf("%s: %d rounds of %d ops, %d of them of one; want every round of one", batch.Name, batch.Count, batch.Sum, batch.Buckets[1])
		}
		batchSum += batch.Sum
	}
	if batchSum != 2*calls+partitions {
		t.Errorf("core/p*/batch sum = %d, want %d calls and %d barriers", batchSum, 2*calls, partitions)
	}
}

// TestRoundTallies pins the batch histogram, sum, count and every
// bucket, and the ops counter, through ExportMetrics after one round by
// each way into a partition: a blocking call (1 op), Len's barrier (1), a
// round of 3 reads and a scan on the free partition (4), whose read of
// key 1 installs its pair in the host portion, holdPartition's barrier
// (1), the rounds of 2 and 3 reads parked behind it, whose reads of key
// 1 are hits, so they hold it for 1 and 2, and the export's own barrier
// (1). A hit is an applied op, counted in ops, but not a lock hold.
func TestRoundTallies(t *testing.T) {
	h := New(Config{Partitions: 1, KeyMax: 1 << 10})
	defer h.Close()
	h.Put(1, 10)
	h.Len()
	reads := []hds.Request{{Kind: hds.Read, Key: 1}, {Kind: hds.Read, Key: 2}, {Kind: hds.Read, Key: 3}}
	if n, _ := h.NewBatcher(16).Apply(append(reads, hds.Request{Kind: hds.Scan, Key: 1, Value: 4}), nil); n != 4 {
		t.Fatalf("round of 3 reads and a scan applied %d, want 4", n)
	}
	release := holdPartition(h, 0, func() int { return 0 })
	defer release()
	var wg sync.WaitGroup
	for _, ops := range [][]hds.Request{reads[:2], reads} {
		wg.Add(1)
		go func(b *Batcher) {
			defer wg.Done()
			b.Apply(ops, nil)
		}(h.NewBatcher(16))
	}
	waitFor(t, "two rounds parked behind the held partition", func() bool { return parkedInLock() == 2 })
	release()
	wg.Wait()
	counters, hists := h.ExportMetrics()
	var batch [metrics.NumBuckets]uint64
	batch[1], batch[2], batch[3] = 5, 1, 1 // sizes 1, 1, 4, 1, 1, 2, 1
	want := []metrics.HistSnapshot{{Name: "core/p0/batch", Sum: 11, Count: 7, Buckets: batch}}
	if !reflect.DeepEqual(hists, want) {
		t.Errorf("histograms = %+v, want %+v", hists, want)
	}
	if ops := counters["core/p0/ops"]; ops != 9 {
		t.Errorf("core/p0/ops = %d, want 9", ops)
	}
}

// TestHybridApplyBatchAccounting pins the applied/succeeded distinction:
// a read of an absent key is an *applied* operation that legitimately
// failed, while an operation rejected by a concurrent Close never reaches
// a store and must not be counted as applied.
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

	// After Close every operation is rejected: applied must drop to zero
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
	h.Close()
	if got := h.Scan(0, 3); len(got) != 3 || got[0] != pairs[0] {
		t.Fatalf("post-Close scan = %+v", got)
	}
}
