package server

import (
	"math/bits"
	"sync"
	"unsafe"
)

// Size-classed slice pool for decoded SCAN pairs, so repeated scans
// recycle their arrays instead of allocating one per response. Classes
// are power-of-two capacities from poolMinShift up; a request beyond the
// largest class falls through to a plain allocation.
const (
	poolMinShift = 5  // smallest class: 32 elements
	poolClasses  = 16 // largest class: 32 << 15 = 1M elements
)

// slicePool is a size-classed free list of pair slices. get returns a
// zero-length slice with at least the requested capacity; put files a
// slice back under its capacity's class (non-class capacities are
// dropped, so only slices that came from get recycle). A class holds a
// pointer to each array's first pair, not a *[]Pair: boxing a slice
// header would allocate on every put, and the class already fixes the
// capacity get rebuilds the slice with.
type slicePool struct {
	classes [poolClasses]sync.Pool
}

// classFor returns the class index whose capacity (poolMinShift+i bits)
// is the smallest holding n elements, or -1 when n exceeds every class.
func classFor(n int) int {
	if n <= 0 {
		return 0
	}
	c := bits.Len(uint(n-1)) - poolMinShift
	if c < 0 {
		c = 0
	}
	if c >= poolClasses {
		return -1
	}
	return c
}

// get returns a zero-length slice with capacity >= n.
func (p *slicePool) get(n int) []Pair {
	c := classFor(n)
	if c < 0 {
		return make([]Pair, 0, n)
	}
	if v := p.classes[c].Get(); v != nil {
		return unsafe.Slice(v.(*Pair), 1<<(poolMinShift+c))[:0]
	}
	return make([]Pair, 0, 1<<(poolMinShift+c))
}

// put recycles s for a future get. Slices whose capacity is not an exact
// class size are dropped.
func (p *slicePool) put(s []Pair) {
	c := cap(s)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	i := bits.Len(uint(c)) - 1 - poolMinShift
	if i < 0 || i >= poolClasses {
		return
	}
	p.classes[i].Put(&s[:1][0])
}

// pairPool recycles the client's decoded SCAN pair slices.
var pairPool slicePool

// PutPairs returns a SCAN result slice to the decode pool. Responses
// decoded by ReadResponseBuf, and so by Client, carry pooled Pairs
// slices the caller owns; hybridsload hands each back here so the next
// scan decode reuses the array and workload E allocates nothing.
// Releasing is optional — a slice that is never returned is simply
// collected — but a released slice must not be used afterwards.
func PutPairs(p []Pair) { pairPool.put(p) }
