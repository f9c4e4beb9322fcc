package core

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"hybrids/internal/cds"
	"hybrids/internal/hds"
)

// TestBatcherScanMatchesScan compares windowed scans with Hybrid.Scan on
// a quiescent map: starts on and next to every partition boundary, key 0
// and KeyMax-1; limits of 0, 1, exactly the rest of the start partition,
// and beyond the last key. The scans run in 16-op windows, so a round
// holds scans from several partitions.
func TestBatcherScanMatchesScan(t *testing.T) {
	const partitions, keyMax = 4, 1 << 16
	h := New(Config{Partitions: partitions, KeyMax: keyMax})
	defer h.Close()
	span := h.span
	var pairs []KV
	for k := uint64(1); k < keyMax; k += 131 {
		pairs = append(pairs, KV{Key: k, Value: k * 7})
	}
	starts := []uint64{0, 1, keyMax - 1}
	for p := uint64(1); p < partitions; p++ {
		b := p * span
		pairs = append(pairs, KV{Key: b - 1, Value: 1}, KV{Key: b, Value: 2}, KV{Key: b + 1, Value: 3})
		starts = append(starts, b-2, b-1, b, b+1)
	}
	h.Build(pairs)
	total := len(pairs)

	var ops []hds.Request
	for _, from := range starts {
		// rest counts the pairs from from to the end of its partition.
		end := min(from/span+1, partitions) * span
		rest := 0
		for _, kv := range h.Scan(from, total) {
			if kv.Key < end {
				rest++
			}
		}
		for _, limit := range []int{0, 1, rest, rest + 1, total + 5} {
			ops = append(ops, hds.Request{Kind: hds.Scan, Key: from, Value: uint64(limit)})
		}
	}
	b := h.NewBatcher(16)
	out := make([]Outcome, len(ops))
	applied, succeeded := b.Apply(ops, out)
	if applied != len(ops) || succeeded != len(ops) {
		t.Fatalf("applied/succeeded = %d/%d, want %d/%d", applied, succeeded, len(ops), len(ops))
	}
	for i, op := range ops {
		want := h.Scan(op.Key, int(op.Value))
		got := b.Pairs(i)
		if !slices.Equal(got, want) {
			t.Errorf("scan from %d limit %d: got %d pairs %v..., want %d pairs", op.Key, op.Value, len(got), got[:min(len(got), 3)], len(want))
		}
		if out[i] != (Outcome{Result: hds.Result{Value: uint64(len(want)), OK: true}}) {
			t.Errorf("scan from %d limit %d: outcome %+v, want OK with %d", op.Key, op.Value, out[i], len(want))
		}
	}
	// The pairs stay valid until the next Apply; a 1-op window gives the
	// same answers.
	one := h.NewBatcher(1)
	for i, op := range ops {
		one.Apply(ops[i:i+1], nil)
		if got := one.Pairs(0); !slices.Equal(got, b.Pairs(i)) {
			t.Fatalf("scan from %d limit %d in a 1-op window: %d pairs, in a 16-op window %d", op.Key, op.Value, len(got), len(b.Pairs(i)))
		}
	}
}

// TestBatcherScanPipelineOrder pins the order contract: a scan sees the
// writes before it in ops and none after it, on its start partition and
// on the partitions it continues into after the round.
func TestBatcherScanPipelineOrder(t *testing.T) {
	const keyMax = 1 << 20
	h := New(Config{Partitions: 2, KeyMax: keyMax})
	defer h.Close()
	span := h.span
	h.Build([]KV{{Key: span - 2, Value: 1}, {Key: span - 1, Value: 2}})
	ops := []hds.Request{
		{Kind: hds.Insert, Key: span + 1, Value: 3}, // before the scan: seen
		{Kind: hds.Scan, Key: span - 2, Value: 10},
		{Kind: hds.Insert, Key: span + 2, Value: 4}, // after it: not seen
		{Kind: hds.Remove, Key: span - 1},           // after it: not seen
		{Kind: hds.Read, Key: span + 2},
	}
	out := make([]Outcome, len(ops))
	b := h.NewBatcher(16)
	if applied, succeeded := b.Apply(ops, out); applied != len(ops) || succeeded != len(ops) {
		t.Fatalf("applied/succeeded = %d/%d, want %d/%d (outcomes %+v)", applied, succeeded, len(ops), len(ops), out)
	}
	if want := []KV{{span - 2, 1}, {span - 1, 2}, {span + 1, 3}}; !slices.Equal(b.Pairs(1), want) {
		t.Errorf("scan = %v, want %v", b.Pairs(1), want)
	}
	if out[4].Result.Value != 4 {
		t.Errorf("read after the writes = %+v, want 4", out[4])
	}
	if want := []KV{{span - 2, 1}, {span + 1, 3}, {span + 2, 4}}; !slices.Equal(h.Dump(), want) {
		t.Errorf("Dump = %v, want %v", h.Dump(), want)
	}
	// Writes to the start partition right after the scan, with no write
	// above it in between, are not seen either.
	ops = []hds.Request{
		{Kind: hds.Scan, Key: span - 2, Value: 10},
		{Kind: hds.Remove, Key: span - 2},
		{Kind: hds.Insert, Key: span - 1, Value: 5},
	}
	if applied, succeeded := b.Apply(ops, out[:len(ops)]); applied != len(ops) || succeeded != len(ops) {
		t.Fatalf("second Apply: applied/succeeded = %d/%d, want %d/%d", applied, succeeded, len(ops), len(ops))
	}
	if want := []KV{{span - 2, 1}, {span + 1, 3}, {span + 2, 4}}; !slices.Equal(b.Pairs(0), want) {
		t.Errorf("scan before writes to its own partition = %v, want %v", b.Pairs(0), want)
	}
}

// TestBatcherScanBufferBound checks that an Apply's scans share one pair
// buffer no larger than their summed limits, reused by the next Apply
// without allocating.
func TestBatcherScanBufferBound(t *testing.T) {
	h := New(Config{Partitions: 4, KeyMax: 1 << 16})
	defer h.Close()
	pairs := make([]KV, 1<<14)
	for i := range pairs {
		pairs[i] = KV{Key: uint64(i)*4 + 1, Value: uint64(i)}
	}
	h.Build(pairs)
	b := h.NewBatcher(16)
	ops := make([]hds.Request, 16)
	sum := uint64(0)
	for i := range ops {
		ops[i] = hds.Request{Kind: hds.Scan, Key: uint64(i) << 12, Value: uint64(i+1) * 16}
		sum += ops[i].Value
	}
	out := make([]Outcome, len(ops))
	b.Apply(ops, out)
	for i := range ops {
		if n := uint64(len(b.Pairs(i))); n != ops[i].Value || out[i].Result.Value != n {
			t.Fatalf("scan %d: %d pairs, outcome %+v, want %d", i, n, out[i], ops[i].Value)
		}
	}
	if got := uint64(cap(b.kv)); got > sum {
		t.Errorf("pair buffer holds %d pairs, want <= the summed limits %d", got, sum)
	}
	if allocs := testing.AllocsPerRun(100, func() { b.Apply(ops, out) }); allocs != 0 {
		t.Errorf("a window of 16 scans allocates %.2f objects/call, want 0", allocs)
	}
}

// TestScanAppendAllocs checks that a scan crossing partition ends
// allocates nothing: a ScanAppend through three partitions into a reused
// buffer, and a Batcher window whose scan continues past its start
// partition after the round.
func TestScanAppendAllocs(t *testing.T) {
	const partitions, keyMax = 4, 1 << 16
	h := New(Config{Partitions: partitions, KeyMax: keyMax})
	defer h.Close()
	pairs := make([]KV, keyMax/256)
	for i := range pairs {
		pairs[i] = KV{Key: uint64(i)*256 + 1, Value: uint64(i)}
	}
	h.Build(pairs)
	perPart := len(pairs) / partitions
	from, limit := pairs[perPart-3].Key, 3+perPart+5 // partition 0's last 3 pairs, partition 1's, 5 of partition 2's

	buf := make([]KV, 0, limit)
	buf = h.ScanAppend(buf, from, limit)
	if want := pairs[perPart-3 : perPart-3+limit]; !slices.Equal(buf, want) {
		t.Fatalf("ScanAppend from %d limit %d = %d pairs, want %d from key %d", from, limit, len(buf), len(want), want[0].Key)
	}
	if allocs := testing.AllocsPerRun(100, func() { buf = h.ScanAppend(buf[:0], from, limit) }); allocs != 0 {
		t.Errorf("ScanAppend through 3 partitions allocates %.2f objects/call, want 0", allocs)
	}

	b := h.NewBatcher(16)
	ops := []hds.Request{{Kind: hds.Read, Key: 1}, {Kind: hds.Scan, Key: from, Value: uint64(limit)}, {Kind: hds.Read, Key: keyMax - 1}}
	out := make([]Outcome, len(ops))
	b.Apply(ops, out)
	if !slices.Equal(b.Pairs(1), buf) {
		t.Fatalf("window scan = %d pairs, want the %d ScanAppend returned", len(b.Pairs(1)), len(buf))
	}
	if allocs := testing.AllocsPerRun(100, func() { b.Apply(ops, out) }); allocs != 0 {
		t.Errorf("a window whose scan continues past its start partition allocates %.2f objects/call, want 0", allocs)
	}
}

// TestCloseRacingRoundScans is TestCloseRacingRound with scans in the
// round: it is applied on partition 1 ahead of Close's barrier and takes
// partition 0 after it. The data ops on partition 0 are
// Rejected, but the scans complete OK on both partitions — the one from
// partition 0 continuing into partition 1 after Close — and partition 0's
// store sees no data operation.
func TestCloseRacingRoundScans(t *testing.T) {
	const keyMax = 1 << 20
	const gate = keyMax/2 + 7
	entered, open := make(chan struct{}), make(chan struct{})
	touched := make([]atomic.Int32, 2)
	h := New(Config{Partitions: 2, KeyMax: keyMax, NewStore: func(p int) Store {
		return gatedStore{Store: cds.NewBTree(), gate: gate, entered: entered, open: open, touched: &touched[p]}
	}})
	h.Build([]KV{{Key: 2, Value: 20}, {Key: 3, Value: 30}, {Key: gate, Value: 70}})
	touched[0].Store(0) // Build's Puts
	release := holdPartition(h, 0, func() int { return 0 })
	defer release()
	b := h.NewBatcher(16)
	ops := []hds.Request{ // partition 1 routed first
		{Kind: hds.Insert, Key: keyMax/2 + 1, Value: 2},
		{Kind: hds.Read, Key: gate},
		{Kind: hds.Insert, Key: 1, Value: 1},
		{Kind: hds.Scan, Key: 2, Value: 3},
		{Kind: hds.Scan, Key: keyMax / 2, Value: 2},
	}
	out := make([]Outcome, len(ops))
	applied := make(chan int)
	go func() {
		n, _ := b.Apply(ops, out)
		applied <- n
	}()
	<-entered
	closed := make(chan struct{})
	go func() {
		h.Close()
		close(closed)
	}()
	release()
	waitFor(t, "Close's barrier on partition 0", func() bool { return refused(h, 0) })
	close(open)
	if n := <-applied; n != 4 {
		t.Errorf("applied = %d, want 4 (partition 1's ops and both scans)", n)
	}
	<-closed
	for i, want := range []Outcome{
		{Result: hds.Result{OK: true}},
		{Result: hds.Result{Value: 70, OK: true}},
		{Rejected: true},
		{Result: hds.Result{Value: 3, OK: true}},
		{Result: hds.Result{Value: 2, OK: true}},
	} {
		if out[i] != want {
			t.Errorf("op %d (%v key %d): outcome %+v, want %+v", i, ops[i].Kind, ops[i].Key, out[i], want)
		}
	}
	for i, want := range map[int][]KV{
		3: {{2, 20}, {3, 30}, {keyMax/2 + 1, 2}},
		4: {{keyMax/2 + 1, 2}, {gate, 70}},
	} {
		if got := b.Pairs(i); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("scan %d = %v, want %v", i, got, want)
		}
	}
	if n := touched[0].Load(); n != 0 {
		t.Errorf("partition 0's store saw %d data operations, want 0", n)
	}
	// After Close a round still answers its scans, from their own keys.
	late := []hds.Request{{Kind: hds.Insert, Key: 4, Value: 4}, {Kind: hds.Scan, Key: 1, Value: 10}}
	lateOut := make([]Outcome, len(late))
	if n, _ := b.Apply(late, lateOut); n != 1 || !lateOut[0].Rejected || lateOut[1].Result.Value != 4 {
		t.Errorf("post-Close round: applied %d, outcomes %+v; want 1, the insert Rejected and 4 pairs", n, lateOut)
	}
}
