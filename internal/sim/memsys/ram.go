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

// page is one page of simulated memory as 32-bit words: every access is an
// aligned Load32 or Store32, so a word never straddles two elements.
type page [pageSize / 4]uint32

// zeroPage backs every page no store has reached yet. It is shared by all
// RAMs and never written: a page is written only once its RAM owns it.
var zeroPage page

// RAM holds simulated physical memory contents, allocated sparsely by page
// so that a 2 GiB simulated address space costs only what is stored to.
// Pages are copy-on-write: a RAM reads through pages it may share — the
// zero page, or the pages of an Image taken from or restored into it — and
// copies one the first time it stores to it.
type RAM struct {
	pages []*page
	owned []bool // owned[i]: pages[i] is private to this RAM and may be written
	size  Addr
}

// NewRAM creates simulated memory covering addresses [0, size).
func NewRAM(size Addr) *RAM {
	n := (uint64(size) + pageSize - 1) / pageSize
	r := &RAM{pages: make([]*page, n), owned: make([]bool, n), size: size}
	for i := range r.pages {
		r.pages[i] = &zeroPage
	}
	return r
}

// fault is the panic value of an unaligned or out-of-range access. It is
// formatted only when read: a Sprintf would stop Load32 and Store32 inlining.
type fault struct{ a, size Addr }

func (f fault) Error() string {
	if f.a%4 != 0 {
		return fmt.Sprintf("memsys: unaligned 4-byte access at %#x", f.a)
	}
	return fmt.Sprintf("memsys: address %#x out of simulated memory (size %#x)", f.a, f.size)
}

// Load32 reads the 32-bit word at a (a must be 4-byte aligned).
func (r *RAM) Load32(a Addr) uint32 {
	if a%4 != 0 || a >= r.size {
		panic(fault{a, r.size})
	}
	return r.pages[a>>pageBits][a%pageSize/4]
}

// Store32 writes the 32-bit word at a, copying its page first if r shares it.
func (r *RAM) Store32(a Addr, v uint32) {
	if a%4 != 0 || a >= r.size {
		panic(fault{a, r.size})
	}
	idx := a >> pageBits
	if !r.owned[idx] {
		r.own(idx)
	}
	r.pages[idx][a%pageSize/4] = v
}

// own gives r a private copy of page idx ahead of its first store there.
// Appending to a nil slice skips the clear a new page would pay first.
func (r *RAM) own(idx Addr) {
	r.pages[idx], r.owned[idx] = (*page)(append([]uint32(nil), r.pages[idx][:]...)), true
}

// share gives up r's ownership of every page and returns its page table:
// the contents of r at this instant, which r itself now copies on write.
func (r *RAM) share() []*page {
	clear(r.owned)
	return slices.Clone(r.pages)
}

// adopt replaces r's contents with a page table share returned, for a RAM
// of the same size.
func (r *RAM) adopt(pages []*page) {
	copy(r.pages, pages)
	clear(r.owned)
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
