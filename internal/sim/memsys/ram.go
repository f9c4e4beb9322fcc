// Package memsys models the memory system of the baseline NMP architecture
// from the HybriDS paper (Table 1): simulated physical memory contents, a
// two-level host cache hierarchy with an invalidation directory, and an
// HMC-style vaulted DRAM with per-bank open-row timing.
//
// The package splits the functional plane from the timing plane. Data
// always lives in RAM and every store is applied immediately, so the
// simulated machine is trivially coherent; caches and vaults are tag/timing
// models that decide how many cycles each access costs and how many DRAM
// reads it performs. This functional/timing split is standard practice in
// architecture simulators and is what lets lock-free algorithms run
// unchanged on the simulated machine.
package memsys

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Addr is a simulated physical byte address.
type Addr uint32

// pageBits selects the sparse-RAM page size (64 KiB): large enough to keep
// page-table overhead trivial, small enough that tiny test configurations
// stay tiny in host memory.
const pageBits = 16

const pageSize = 1 << pageBits

// zeroPage backs every page no store has reached yet. It is shared by all
// RAMs and never written: a page is written only once its RAM owns it.
var zeroPage [pageSize]byte

// RAM holds simulated physical memory contents, allocated sparsely by page
// so that a 2 GiB simulated address space costs only what is stored to.
// Pages are copy-on-write: a RAM reads through pages it may share — the
// zero page, or the pages of an Image taken from or restored into it — and
// copies one the first time it stores to it.
type RAM struct {
	pages []*[pageSize]byte
	owned []bool // owned[i]: pages[i] is private to this RAM and may be written
	size  Addr
}

// NewRAM creates simulated memory covering addresses [0, size).
func NewRAM(size Addr) *RAM {
	n := (uint64(size) + pageSize - 1) / pageSize
	r := &RAM{pages: make([]*[pageSize]byte, n), owned: make([]bool, n), size: size}
	for i := range r.pages {
		r.pages[i] = &zeroPage
	}
	return r
}

// Size returns the simulated physical memory size in bytes.
func (r *RAM) Size() Addr { return r.size }

// span returns the n-byte slice at a, which must not cross a page boundary.
// A load span (write false) may alias shared memory and must not be
// written; a store span is private to r.
func (r *RAM) span(a Addr, n int, write bool) []byte {
	if uint64(a) >= uint64(r.size) {
		panic(fmt.Sprintf("memsys: address %#x out of simulated memory (size %#x)", a, r.size))
	}
	off := int(a & (pageSize - 1))
	if off+n > pageSize {
		panic(fmt.Sprintf("memsys: %d-byte access at %#x crosses page boundary", n, a))
	}
	idx := a >> pageBits
	if write && !r.owned[idx] {
		r.own(idx)
	}
	return r.pages[idx][off : off+n]
}

// own gives r a private copy of page idx ahead of its first store there.
func (r *RAM) own(idx Addr) {
	p := new([pageSize]byte)
	if shared := r.pages[idx]; shared != &zeroPage {
		*p = *shared
	}
	r.pages[idx], r.owned[idx] = p, true
}

// share gives up r's ownership of every page and returns its page table:
// the contents of r at this instant, which r itself now copies on write.
func (r *RAM) share() []*[pageSize]byte {
	clear(r.owned)
	return slices.Clone(r.pages)
}

// adopt replaces r's contents with a page table share returned, for a RAM
// of the same size.
func (r *RAM) adopt(pages []*[pageSize]byte) {
	copy(r.pages, pages)
	clear(r.owned)
}

// Load32 reads the 32-bit word at a (a must be 4-byte aligned).
func (r *RAM) Load32(a Addr) uint32 {
	checkAlign(a, 4)
	return binary.LittleEndian.Uint32(r.span(a, 4, false))
}

// Store32 writes the 32-bit word at a.
func (r *RAM) Store32(a Addr, v uint32) {
	checkAlign(a, 4)
	binary.LittleEndian.PutUint32(r.span(a, 4, true), v)
}

func checkAlign(a Addr, n Addr) {
	if a%n != 0 {
		panic(fmt.Sprintf("memsys: unaligned %d-byte access at %#x", n, a))
	}
}

// Allocator is a bump allocator over a contiguous region of simulated
// memory. Simulated data structures never free individual nodes during an
// experiment (matching the paper's setup, where structures are provisioned
// up front); freed skiplist/B+ tree nodes are recycled by the structures'
// own free lists instead.
type Allocator struct {
	name string
	base Addr
	end  Addr
	next Addr
}

// NewAllocator returns a bump allocator over [base, base+size).
func NewAllocator(name string, base, size Addr) *Allocator {
	return &Allocator{name: name, base: base, end: base + size, next: base}
}

// Alloc returns the address of a fresh n-byte block aligned to align bytes.
// It panics when the region is exhausted: experiments size regions up
// front, so exhaustion is a configuration bug, not a runtime condition.
func (al *Allocator) Alloc(n, align Addr) Addr {
	if align == 0 || align&(align-1) != 0 {
		panic(fmt.Sprintf("memsys: allocator %q: alignment %d not a power of two", al.name, align))
	}
	a := (al.next + align - 1) &^ (align - 1)
	if a+n > al.end || a+n < a {
		panic(fmt.Sprintf("memsys: allocator %q exhausted: need %d bytes at %#x, region ends %#x", al.name, n, a, al.end))
	}
	al.next = a + n
	return a
}

// Used reports how many bytes have been consumed, including alignment
// padding.
func (al *Allocator) Used() Addr { return al.next - al.base }

// Remaining reports how many bytes are still available.
func (al *Allocator) Remaining() Addr { return al.end - al.next }
