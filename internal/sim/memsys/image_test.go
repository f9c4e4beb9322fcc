package memsys

import (
	"strings"
	"sync"
	"testing"
)

// ownedPages counts the pages r has allocated for itself.
func ownedPages(r *RAM) int {
	n := 0
	for _, o := range r.owned {
		if o {
			n++
		}
	}
	return n
}

func TestRAMLoadsNeverAllocate(t *testing.T) {
	const pages = 64
	r := NewRAM(pages * pageSize)
	for i := 0; i < pages; i++ {
		if got := r.Load32(Addr(i)*pageSize + 8); got != 0 {
			t.Fatalf("untouched page %d reads %#x", i, got)
		}
	}
	if n := ownedPages(r); n != 0 {
		t.Fatalf("reading %d untouched pages allocated %d", pages, n)
	}
	// A later store to one of them is visible, and private: neither the
	// shared zero page nor another RAM reading through it sees it.
	r.Store32(5*pageSize+8, 0xfeed)
	if got := r.Load32(5*pageSize + 8); got != 0xfeed {
		t.Fatalf("store to a previously read page reads back %#x", got)
	}
	if n := ownedPages(r); n != 1 {
		t.Fatalf("one store allocated %d pages", n)
	}
	if got := NewRAM(pages * pageSize).Load32(5*pageSize + 8); got != 0 {
		t.Fatalf("store leaked into the zero page: a fresh RAM reads %#x", got)
	}
}

func TestImageIsolatesStores(t *testing.T) {
	a := New(testConfig())
	const addr = Addr(0x10000 + 64)
	a.RAM.Store32(addr, 1)
	img := a.Snapshot()

	// A store by the snapshotted machine after Snapshot reaches neither the
	// image nor a machine restored from it.
	a.RAM.Store32(addr, 2)
	b, c := New(testConfig()), New(testConfig())
	b.Restore(img)
	if got := b.RAM.Load32(addr); got != 1 {
		t.Fatalf("restored machine reads %d, want the snapshotted 1", got)
	}
	// A store by one restorer reaches neither the image nor its sibling.
	b.RAM.Store32(addr, 3)
	b.RAM.Store32(addr+pageSize, 4) // a page the image holds as the zero page
	c.Restore(img)
	if got := c.RAM.Load32(addr); got != 1 {
		t.Fatalf("sibling reads %d after the other restorer's store, want 1", got)
	}
	if got := c.RAM.Load32(addr + pageSize); got != 0 {
		t.Fatalf("sibling reads %d from a page only the other restorer stored to", got)
	}
	if a.RAM.Load32(addr) != 2 || b.RAM.Load32(addr) != 3 {
		t.Fatalf("machines lost their own stores: a=%d b=%d", a.RAM.Load32(addr), b.RAM.Load32(addr))
	}
	if n := ownedPages(c.RAM); n != 0 {
		t.Fatalf("a restored machine that only loads owns %d pages", n)
	}
}

func TestImageAllocatorMarksRoundTrip(t *testing.T) {
	a := New(testConfig())
	a.HostAlloc.Alloc(4096, 128)
	for p, al := range a.NMPAlloc {
		al.Alloc(Addr(128*(p+1)), 128)
	}
	img := a.Snapshot()

	b := New(testConfig())
	b.Restore(img)
	if b.HostAlloc.Used() != a.HostAlloc.Used() {
		t.Fatalf("host mark %d, want %d", b.HostAlloc.Used(), a.HostAlloc.Used())
	}
	for p := range a.NMPAlloc {
		if b.NMPAlloc[p].Used() != a.NMPAlloc[p].Used() {
			t.Fatalf("partition %d mark %d, want %d", p, b.NMPAlloc[p].Used(), a.NMPAlloc[p].Used())
		}
	}
	// The next allocation continues where the image's machine stopped, on
	// both, without moving the other.
	if x, y := a.HostAlloc.Alloc(128, 128), b.HostAlloc.Alloc(128, 128); x != y {
		t.Fatalf("next host allocation %#x vs %#x", x, y)
	}
	if img.allocs[0].next == b.HostAlloc.next {
		t.Fatal("allocating on a restored machine moved the image's mark")
	}
}

func TestRestoreMismatchPanics(t *testing.T) {
	img := New(testConfig()).Snapshot()
	wantPanic := func(name, msg string, m *MemSys) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil || !strings.Contains(r.(string), msg) {
				t.Fatalf("%s: recovered %v, want a panic mentioning %q", name, r, msg)
			}
		}()
		m.Restore(img)
	}
	bigger := testConfig()
	bigger.HostMemSize *= 2
	wantPanic("memory size", "restored into a machine of", New(bigger))

	fewer := testConfig()
	fewer.NMPVaults = 4
	wantPanic("partition count", "restored into a machine of", New(fewer))

	ahead := New(testConfig())
	ahead.HostAlloc.Alloc(128, 128) // past anything the image's machine allocated
	wantPanic("allocations the image lacks", "does not extend", ahead)
}

// TestImageSharedAcrossGoroutines is the harness's Parallel > 1 shape: the
// machine that built keeps running while several others restore and run,
// all at once. Under -race it shows image pages are never written.
func TestImageSharedAcrossGoroutines(t *testing.T) {
	a := New(testConfig())
	for i := Addr(0); i < 32; i++ {
		a.RAM.Store32(i*pageSize+16, uint32(i)+1)
	}
	img := a.Snapshot()
	run := func(m *MemSys, salt uint32) {
		for i := Addr(0); i < 32; i++ {
			if got := m.RAM.Load32(i*pageSize + 16); got != uint32(i)+1 {
				t.Errorf("page %d reads %d", i, got)
			}
			m.RAM.Store32(i*pageSize+16, salt)
		}
	}
	var wg sync.WaitGroup
	for w := uint32(0); w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := a
			if w > 0 {
				m = New(testConfig())
				m.Restore(img)
			}
			run(m, 100+w)
		}()
	}
	wg.Wait()
	last := New(testConfig())
	last.Restore(img)
	run(last, 0)
}
