package kv

import (
	"slices"
	"testing"
	"testing/quick"
)

// TestSortedUnique: strictly ascending input comes back as the same slice;
// anything else (out of order, or a repeated key) comes back sorted and
// deduplicated, first pair of a run kept, in a fresh slice that leaves the
// input as it was.
func TestSortedUnique(t *testing.T) {
	asc := []Pair{{1, 10}, {2, 20}, {5, 50}}
	if got := SortedUnique(asc); &got[0] != &asc[0] || !slices.Equal(got, asc) {
		t.Errorf("ascending input: got %v at a new address, want the input itself", got)
	}
	if got := SortedUnique(nil); len(got) != 0 {
		t.Errorf("nil input: got %v", got)
	}
	for _, in := range [][]Pair{
		{{5, 50}, {1, 10}, {2, 20}},
		{{1, 10}, {2, 20}, {2, 21}, {5, 50}},
		{{2, 20}, {5, 50}, {1, 10}, {5, 51}},
	} {
		orig := slices.Clone(in)
		got := SortedUnique(in)
		if want := asc; !slices.Equal(got, want) {
			t.Errorf("SortedUnique(%v) = %v, want %v", orig, got, want)
		}
		if !slices.Equal(in, orig) || &got[0] == &in[0] {
			t.Errorf("SortedUnique(%v) wrote to or returned its input (now %v)", orig, in)
		}
	}
}

func TestRangePartitionerCoversKeySpace(t *testing.T) {
	for _, parts := range []int{1, 2, 3, 4, 7, 8} {
		r := RangePartitioner{KeyMax: 10000, Parts: parts}
		prev := -1
		for k := uint32(1); k < 10000; k++ {
			p := r.Part(k)
			if p < 0 || p >= parts {
				t.Fatalf("parts=%d key=%d -> %d", parts, k, p)
			}
			if p < prev {
				t.Fatalf("parts=%d: partition decreased along keys", parts)
			}
			prev = p
		}
	}
}

func TestRangePartitionerRangeConsistency(t *testing.T) {
	f := func(key uint32, parts uint8) bool {
		p := RangePartitioner{KeyMax: 1 << 20, Parts: int(parts%8) + 1}
		k := key % (1 << 20)
		part := p.Part(k)
		lo, hi := p.Range(part)
		return k >= lo && k < hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRangePartitionerRangesTile(t *testing.T) {
	p := RangePartitioner{KeyMax: 1 << 16, Parts: 8}
	prevHi := uint32(0)
	for i := 0; i < 8; i++ {
		lo, hi := p.Range(i)
		if lo != prevHi {
			t.Fatalf("partition %d starts at %d, previous ended at %d", i, lo, prevHi)
		}
		if hi <= lo && i < 7 {
			t.Fatalf("partition %d empty", i)
		}
		prevHi = hi
	}
	if prevHi != 1<<16 {
		t.Fatalf("ranges end at %d", prevHi)
	}
}

func TestRangePartitionerOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("key >= KeyMax did not panic")
		}
	}()
	RangePartitioner{KeyMax: 100, Parts: 4}.Part(100)
}
