package metrics

import (
	"reflect"
	"testing"
)

func TestCounterRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x/y")
	b := r.Counter("x/y")
	if a != b {
		t.Fatal("same name returned distinct counters")
	}
	a.Inc()
	b.Add(2)
	if a.Value() != 3 {
		t.Fatalf("value = %d, want 3", a.Value())
	}
}

func TestSnapshotSubDelta(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a")
	c.Add(10)
	start := r.Snapshot()
	c.Add(5)
	d := r.Counter("late") // registered mid-phase
	d.Inc()
	delta := r.Snapshot().Sub(start)
	if delta.Get("a") != 5 {
		t.Fatalf("delta a = %d, want 5", delta.Get("a"))
	}
	if delta.Get("late") != 1 {
		t.Fatalf("delta late = %d, want 1", delta.Get("late"))
	}
	if delta.Get("missing") != 0 {
		t.Fatal("absent counter should read 0")
	}
}

func TestNamesSortedDeterministic(t *testing.T) {
	r := NewRegistry()
	for _, n := range []string{"z", "a", "m/1", "m/0"} {
		r.Counter(n)
	}
	want := []string{"a", "m/0", "m/1", "z"}
	if got := r.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
}

// TestHistogramSumCountBuckets checks that a histogram is its two registry
// counters: asking twice for one name shares the pair, and Observe lands in
// <name>/sum and <name>/count.
func TestHistogramSumCountBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	if h != r.Histogram("lat") {
		t.Fatal("histogram registration not idempotent")
	}
	if h.sum != r.Counter("lat/sum") || h.count != r.Counter("lat/count") {
		t.Fatal("histogram does not hold the lat/sum and lat/count counters")
	}
	for _, v := range []uint64{0, 1, 2, 3, 100} {
		h.Observe(v)
	}
	r.Histogram("lat").Observe(4)
	snap := r.Snapshot()
	if snap.Get("lat/sum") != 110 || snap.Get("lat/count") != 6 {
		t.Fatalf("snapshot sum/count = %d/%d, want 110/6", snap.Get("lat/sum"), snap.Get("lat/count"))
	}
	if len(snap) != 2 {
		t.Fatalf("registry holds %d counters, want 2", len(snap))
	}
}

func TestHistogramMeanEmpty(t *testing.T) {
	if m := (HistSnapshot{}).Mean(); m != 0 {
		t.Fatalf("empty mean = %v", m)
	}
	if m := (HistSnapshot{Sum: 106, Count: 5}).Mean(); m != 106.0/5 {
		t.Fatalf("mean = %v, want %v", m, 106.0/5)
	}
}

// TestLocalConcurrentLoad checks the Local cell's single-writer
// contract: one goroutine increments while another loads, and the final
// value is exact.
func TestLocalConcurrentLoad(t *testing.T) {
	var l Local
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			l.Inc()
			l.Add(2)
		}
	}()
	for l.Load() < 100 { // concurrent reads observe monotonic progress
	}
	<-done
	if got := l.Load(); got != 3000 {
		t.Fatalf("Local total = %d, want 3000", got)
	}
}

// TestBucketIndexIsBitLength checks the bucket of 0, 1, 2^k-1 and 2^k
// for every k, and of 2^64-1: a sample's bucket is its bit length.
func TestBucketIndexIsBitLength(t *testing.T) {
	type sample struct {
		v      uint64
		bucket int
	}
	cases := []sample{{0, 0}, {1, 1}, {1<<64 - 1, 64}}
	for k := 1; k < 64; k++ {
		cases = append(cases, sample{1<<k - 1, k}, sample{1 << k, k + 1})
	}
	for _, c := range cases {
		if got := BucketIndex(c.v); got != c.bucket {
			t.Errorf("BucketIndex(%#x) = %d, want %d", c.v, got, c.bucket)
		}
	}
}
