package memsys

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func testConfig() Config {
	cfg := DefaultConfig()
	// Shrink memory so tests stay light; geometry semantics unchanged.
	cfg.HostMemSize = 16 << 20
	cfg.NMPMemSize = 16 << 20
	cfg.L2.Size = 64 << 10
	cfg.L1.Size = 8 << 10
	cfg.TLB.Entries = 0 // exact-latency tests assume perfect translation
	return cfg
}

// count reads one mem/ counter from m's registry.
func count(m *MemSys, name string) uint64 { return m.Metrics.Snapshot().Get(name) }

func TestRAMRoundTrip(t *testing.T) {
	r := NewRAM(1 << 20)
	r.Store32(0x100, 0xdeadbeef)
	if got := r.Load32(0x100); got != 0xdeadbeef {
		t.Fatalf("Load32 = %#x", got)
	}
	// Adjacent words do not clobber each other.
	r.Store32(0x104, 7)
	if got := r.Load32(0x100); got != 0xdeadbeef {
		t.Fatalf("adjacent store clobbered: %#x", got)
	}
}

func TestRAMPropertyStoreLoad(t *testing.T) {
	r := NewRAM(1 << 20)
	f := func(addr uint32, v uint32) bool {
		a := Addr(addr%(1<<20)) &^ 3
		r.Store32(a, v)
		return r.Load32(a) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRAMFaults checks that every unaligned or out-of-range access panics
// with a message naming the address, for loads and stores alike.
func TestRAMFaults(t *testing.T) {
	const size = 2 * pageSize
	cases := []struct {
		name  string
		size  Addr // RAM size
		a     Addr
		store bool
	}{
		{"unaligned-load", size, 0x1002, false},
		{"unaligned-store", size, 0x2006, true},
		{"at-size", size, size, false},
		{"at-size-store", size, size, true},
		{"above-size", size, size + 0x40, false},
		{"above-size-store", size, size + 0x40, true},
		// The last page is only partly inside the RAM: the page table has
		// a slot for it, so only the size check can refuse the address.
		{"partial-page-beyond-size", pageSize + 0x100, pageSize + 0x200, false},
		{"partial-page-beyond-size-store", pageSize + 0x100, pageSize + 0x200, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRAM(tc.size)
			defer func() {
				rec := recover()
				if rec == nil {
					t.Fatalf("access at %#x did not panic", tc.a)
				}
				if msg, want := fmt.Sprint(rec), fmt.Sprintf("%#x", tc.a); !strings.Contains(msg, want) {
					t.Fatalf("panic %q does not name the address %s", msg, want)
				}
			}()
			if tc.store {
				r.Store32(tc.a, 1)
			} else {
				r.Load32(tc.a)
			}
		})
	}
}

func TestAllocatorAlignmentAndExhaustion(t *testing.T) {
	al := NewAllocator("t", 0x1000, 0x100)
	a := al.Alloc(10, 8)
	if a != 0x1000 {
		t.Fatalf("first alloc = %#x", a)
	}
	b := al.Alloc(8, 64)
	if b%64 != 0 || b < a+10 {
		t.Fatalf("aligned alloc = %#x", b)
	}
	if al.next != b+8 || al.end != 0x1100 {
		t.Fatalf("accounting broken: next=%#x end=%#x", al.next, al.end)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("exhaustion did not panic")
		}
	}()
	al.Alloc(0x1000, 8)
}

// contains reports residency without touching recency or dirty state.
func contains(c *Cache, block uint32) bool {
	for _, l := range c.sets[block&c.setMask] {
		if l.valid && l.tag == block {
			return true
		}
	}
	return false
}

func TestCacheHitAfterFill(t *testing.T) {
	c := NewCache("t", CacheConfig{Size: 1 << 12, Ways: 2, BlockSize: 128, Latency: 1})
	if c.Lookup(5, false) {
		t.Fatal("hit in empty cache")
	}
	c.Fill(5, false)
	if !c.Lookup(5, false) {
		t.Fatal("miss after fill")
	}
	if !contains(c, 5) {
		t.Fatal("not resident after fill")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2 ways, 4 sets: blocks with equal low 2 bits share a set.
	c := NewCache("t", CacheConfig{Size: 1 << 10, Ways: 2, BlockSize: 128, Latency: 1})
	c.Fill(0, false)
	c.Fill(4, false)
	c.Lookup(0, false) // make block 4 the LRU line
	ev, _, ok := c.Fill(8, false)
	if !ok || ev != 4 {
		t.Fatalf("evicted %d (ok=%v), want 4", ev, ok)
	}
	if !contains(c, 0) || contains(c, 4) || !contains(c, 8) {
		t.Fatal("post-eviction residency wrong")
	}
}

func TestCacheDirtyEvictionReported(t *testing.T) {
	c := NewCache("t", CacheConfig{Size: 256, Ways: 1, BlockSize: 128, Latency: 1})
	c.Fill(0, false)
	c.Lookup(0, true) // dirty it
	_, dirty, ok := c.Fill(2, false)
	if !ok || !dirty {
		t.Fatalf("dirty eviction not reported (ok=%v dirty=%v)", ok, dirty)
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := NewCache("t", CacheConfig{Size: 1 << 10, Ways: 2, BlockSize: 128, Latency: 1})
	c.Fill(3, true)
	present, dirty := c.Invalidate(3)
	if !present || !dirty {
		t.Fatalf("invalidate = (%v,%v), want (true,true)", present, dirty)
	}
	if contains(c, 3) {
		t.Fatal("block resident after invalidate")
	}
	present, _ = c.Invalidate(3)
	if present {
		t.Fatal("second invalidate reported present")
	}
}

func TestCachePropertyResidencyMatchesModel(t *testing.T) {
	// Model each set as an LRU list and check the cache agrees.
	cfg := CacheConfig{Size: 2048, Ways: 4, BlockSize: 128, Latency: 1}
	c := NewCache("t", cfg)
	nsets := uint32(cfg.Size / (cfg.BlockSize * Addr(cfg.Ways)))
	model := make(map[uint32][]uint32) // set -> blocks MRU-first
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		blk := uint32(rng.Intn(64))
		set := blk % nsets
		lst := model[set]
		pos := -1
		for j, b := range lst {
			if b == blk {
				pos = j
				break
			}
		}
		if c.Lookup(blk, false) != (pos >= 0) {
			t.Fatalf("step %d: residency of block %d disagrees with model", i, blk)
		}
		if pos >= 0 {
			lst = append(lst[:pos], lst[pos+1:]...)
		} else {
			c.Fill(blk, false)
			if len(lst) == cfg.Ways {
				lst = lst[:cfg.Ways-1] // drop LRU
			}
		}
		model[set] = append([]uint32{blk}, lst...)
	}
}

func TestVaultRowBufferTiming(t *testing.T) {
	v := NewVault(VaultConfig{Banks: 8, RowShift: 13, Timing: Table1Timing()})
	tm := Table1Timing()
	// First access to a closed bank: activate + CAS + burst.
	done := v.Access(0, 7, 0)
	if done != tm.TRCD+tm.TCL+tm.TBURST {
		t.Fatalf("closed-bank access = %d", done)
	}
	// Same row (same bank: bank bits are block bits 0..2, so +128B*8 keeps bank 0): row hit.
	start := done
	done = v.Access(1024, 7, start)
	if done-start != tm.TCL+tm.TBURST {
		t.Fatalf("row hit latency = %d, want %d", done-start, tm.TCL+tm.TBURST)
	}
	// Different row, same bank: conflict.
	start = done
	done = v.Access(1<<14, 7, start)
	if done-start != tm.TRP+tm.TRCD+tm.TCL+tm.TBURST {
		t.Fatalf("row conflict latency = %d", done-start)
	}
}

func TestVaultBankBusySerializes(t *testing.T) {
	v := NewVault(VaultConfig{Banks: 8, RowShift: 13, Timing: Table1Timing()})
	d1 := v.Access(0, 7, 0)
	// Second request to the same bank issued at time 0 must wait.
	d2 := v.Access(1024, 7, 0)
	if d2 <= d1 {
		t.Fatalf("overlapping bank accesses: d1=%d d2=%d", d1, d2)
	}
	// Requests to different banks proceed in parallel.
	v2 := NewVault(VaultConfig{Banks: 8, RowShift: 13, Timing: Table1Timing()})
	a := v2.Access(0, 7, 0)
	b := v2.Access(128, 7, 0) // next block -> next bank
	if b != a {
		t.Fatalf("different banks serialized: %d vs %d", a, b)
	}
}

func TestMemSysHostHitMissPath(t *testing.T) {
	m := New(testConfig())
	a := m.HostAlloc.Alloc(64, 64)
	lat1 := m.HostAccess(0, a, false, 0)
	if count(m, MetricHostDRAMReads) != 1 {
		t.Fatalf("cold read DRAMReads = %d", count(m, MetricHostDRAMReads))
	}
	lat2 := m.HostAccess(0, a, false, lat1)
	if lat2 != m.Cfg.L1.Latency {
		t.Fatalf("warm read latency = %d, want L1 %d", lat2, m.Cfg.L1.Latency)
	}
	if count(m, MetricL1Hits) != 1 {
		t.Fatalf("L1Hits = %d", count(m, MetricL1Hits))
	}
	if lat1 <= lat2 {
		t.Fatalf("miss (%d) not slower than hit (%d)", lat1, lat2)
	}
}

func TestMemSysL2SharedAcrossCores(t *testing.T) {
	m := New(testConfig())
	a := m.HostAlloc.Alloc(64, 64)
	m.HostAccess(0, a, false, 0)
	base := m.Metrics.Snapshot()
	m.HostAccess(1, a, false, 1000)
	d := m.Metrics.Snapshot().Sub(base)
	if d.Get(MetricHostDRAMReads) != 0 || d.Get(MetricL2Hits) != 1 {
		t.Fatalf("core 1 after core 0: dram=%d l2hits=%d, want 0/1", d.Get(MetricHostDRAMReads), d.Get(MetricL2Hits))
	}
}

func TestMemSysWriteInvalidatesRemoteL1(t *testing.T) {
	m := New(testConfig())
	a := m.HostAlloc.Alloc(64, 64)
	m.HostAccess(0, a, false, 0) // core 0 caches it
	m.HostAccess(1, a, false, 0) // core 1 caches it
	base := m.Metrics.Snapshot()
	m.HostAccess(1, a, true, 100) // core 1 writes: must invalidate core 0
	if m.Metrics.Snapshot().Sub(base).Get(MetricInvalidations) != 1 {
		t.Fatalf("invalidations = %d, want 1", m.Metrics.Snapshot().Sub(base).Get(MetricInvalidations))
	}
	base = m.Metrics.Snapshot()
	m.HostAccess(0, a, false, 200) // core 0 re-reads: L1 miss, L2 hit
	d := m.Metrics.Snapshot().Sub(base)
	if d.Get(MetricL1Hits) != 0 || d.Get(MetricL2Hits) != 1 {
		t.Fatalf("after invalidation: l1=%d l2=%d, want 0/1", d.Get(MetricL1Hits), d.Get(MetricL2Hits))
	}
}

func TestMemSysAtomicCountsAndCosts(t *testing.T) {
	m := New(testConfig())
	a := m.HostAlloc.Alloc(64, 64)
	m.HostAccess(0, a, false, 0)
	base := m.Metrics.Snapshot()
	lat := m.HostAtomic(0, a, 10)
	if m.Metrics.Snapshot().Sub(base).Get(MetricAtomics) != 1 {
		t.Fatal("atomic not counted")
	}
	if lat < m.Cfg.L1.Latency+m.Cfg.AtomicExtra {
		t.Fatalf("atomic latency %d below floor", lat)
	}
}

func TestMemSysHostCannotTouchNMP(t *testing.T) {
	m := New(testConfig())
	a := m.NMPAlloc[0].Alloc(64, 64)
	defer func() {
		if recover() == nil {
			t.Fatal("host access to NMP memory did not panic")
		}
	}()
	m.HostAccess(0, a, false, 0)
}

func TestMemSysNMPPartitionIsolation(t *testing.T) {
	m := New(testConfig())
	a := m.NMPAlloc[1].Alloc(64, 64)
	defer func() {
		if recover() == nil {
			t.Fatal("NMP cross-partition access did not panic")
		}
	}()
	m.NMPAccess(0, a, false, 0)
}

func TestMemSysNMPBufferActsAsSingleBlockCache(t *testing.T) {
	m := New(testConfig())
	a := m.NMPAlloc[0].Alloc(256, 128)
	lat1 := m.NMPAccess(0, a, false, 0)
	if count(m, MetricNMPDRAMReads) != 1 {
		t.Fatalf("cold NMP read: dram=%d", count(m, MetricNMPDRAMReads))
	}
	lat2 := m.NMPAccess(0, a+64, false, lat1) // same block
	if lat2 != m.Cfg.NMPBufLatency || count(m, MetricNMPBufHits) != 1 {
		t.Fatalf("buffered read lat=%d hits=%d", lat2, count(m, MetricNMPBufHits))
	}
	m.NMPAccess(0, a+128, false, lat1+lat2) // next block evicts buffer
	base := m.Metrics.Snapshot()
	m.NMPAccess(0, a, false, 1000)
	if m.Metrics.Snapshot().Sub(base).Get(MetricNMPDRAMReads) != 1 {
		t.Fatal("buffer retained stale block")
	}
}

func TestMemSysScratchpadMMIO(t *testing.T) {
	m := New(testConfig())
	sp := m.ScratchAddr(3)
	if lat := m.HostAccess(0, sp, true, 0); lat != m.Cfg.MMIOWriteLatency {
		t.Fatalf("MMIO write latency = %d", lat)
	}
	if lat := m.HostAccess(0, sp, false, 0); lat != m.Cfg.MMIOReadLatency {
		t.Fatalf("MMIO read latency = %d", lat)
	}
	if lat := m.NMPAccess(3, sp, false, 0); lat != m.Cfg.NMPScratchLatency {
		t.Fatalf("NMP scratch latency = %d", lat)
	}
	if count(m, MetricMMIOWrites) != 1 || count(m, MetricMMIOReads) != 1 || count(m, MetricScratchOps) != 1 {
		t.Fatalf("MMIO stats %v", m.Metrics.Snapshot())
	}
}

func TestMemSysRegionClassification(t *testing.T) {
	m := New(testConfig())
	if !m.IsHostMem(0) || m.IsHostMem(m.Cfg.HostMemSize) {
		t.Fatal("host region boundary wrong")
	}
	p, ok := m.IsNMPMem(m.Cfg.HostMemSize)
	if !ok || p != 0 {
		t.Fatalf("NMP region start: p=%d ok=%v", p, ok)
	}
	last := m.Cfg.HostMemSize + m.Cfg.NMPMemSize - 1
	p, ok = m.IsNMPMem(last)
	if !ok || p != m.Cfg.NMPVaults-1 {
		t.Fatalf("NMP region end: p=%d ok=%v", p, ok)
	}
	if _, ok := m.IsNMPMem(m.ScratchAddr(0)); ok {
		t.Fatal("scratch classified as NMP mem")
	}
	sp, ok := m.IsScratch(m.ScratchAddr(2) + 100)
	if !ok || sp != 2 {
		t.Fatalf("scratch owner = %d ok=%v", sp, ok)
	}
}

func TestMemSysLLCCapacityPressure(t *testing.T) {
	// Touch far more blocks than L2 capacity; re-touching the first ones
	// must miss again (the pollution effect the paper's design targets).
	cfg := testConfig()
	m := New(cfg)
	blocks := int(cfg.L2.Size/cfg.L2.BlockSize) * 4
	addrs := make([]Addr, blocks)
	for i := range addrs {
		addrs[i] = m.HostAlloc.Alloc(cfg.L2.BlockSize, cfg.L2.BlockSize)
	}
	now := uint64(0)
	for _, a := range addrs {
		now += m.HostAccess(0, a, false, now)
	}
	base := m.Metrics.Snapshot()
	for _, a := range addrs[:16] {
		now += m.HostAccess(0, a, false, now)
	}
	if got := m.Metrics.Snapshot().Sub(base).Get(MetricHostDRAMReads); got != 16 {
		t.Fatalf("re-touch after pollution: dram=%d, want 16", got)
	}
}

func TestNilBlockNeverAllocated(t *testing.T) {
	m := New(testConfig())
	if a := m.HostAlloc.Alloc(8, 8); a == 0 {
		t.Fatal("allocator returned simulated nil address 0")
	}
}

// TestSnapshotSubDRAMReads measures a phase the way exp.runCell does: the
// delta of two registry snapshots, DRAM reads being host plus NMP reads.
func TestSnapshotSubDRAMReads(t *testing.T) {
	m := New(testConfig())
	host := m.HostAlloc.Alloc(64, 64)
	nmp := m.NMPAlloc[0].Alloc(256, 128)
	m.HostAccess(0, host, false, 0)
	base := m.Metrics.Snapshot()
	m.HostAccess(0, host, false, 1000)                        // L1 hit
	m.HostAccess(1, host, false, 1000)                        // L2 hit
	m.NMPAccess(0, nmp, false, 1000)                          // NMP DRAM read
	m.NMPAccess(0, nmp+128, false, 2000)                      // NMP DRAM read
	m.HostAccess(0, m.HostAlloc.Alloc(128, 128), false, 3000) // host DRAM read
	d := m.Metrics.Snapshot().Sub(base)
	if got := d.Get(MetricHostDRAMReads) + d.Get(MetricNMPDRAMReads); got != 3 {
		t.Fatalf("DRAM reads over the phase = %d, want 3 (%v)", got, d)
	}
	if d.Get(MetricL1Hits) != 1 || d.Get(MetricL2Hits) != 1 {
		t.Fatalf("phase hits l1=%d l2=%d, want 1/1", d.Get(MetricL1Hits), d.Get(MetricL2Hits))
	}
}

func TestTLBMissTriggersPageWalk(t *testing.T) {
	cfg := testConfig()
	cfg.TLB = TLBConfig{Entries: 16, Ways: 4, PageBits: 12, WalkExtra: 8}
	m := New(cfg)
	m.HostAlloc.Alloc(4096, 4096) // spacer: keep the test block away from the page tables
	a := m.HostAlloc.Alloc(64, 64)
	base := m.Metrics.Snapshot()
	latCold := m.HostAccess(0, a, false, 0)
	d := m.Metrics.Snapshot().Sub(base)
	if d.Get(MetricTLBMisses) != 1 {
		t.Fatalf("TLB misses = %d, want 1", d.Get(MetricTLBMisses))
	}
	// Cold walk: 2 PTE reads from DRAM plus the data read.
	if d.Get(MetricHostDRAMReads) != 3 {
		t.Fatalf("cold translated read DRAM = %d, want 3 (2 PTE + data)", d.Get(MetricHostDRAMReads))
	}
	base = m.Metrics.Snapshot()
	latWarm := m.HostAccess(0, a, false, latCold)
	if m.Metrics.Snapshot().Sub(base).Get(MetricTLBMisses) != 0 {
		t.Fatal("second access to same page missed TLB")
	}
	if latWarm >= latCold {
		t.Fatalf("warm (%d) not faster than cold translated (%d)", latWarm, latCold)
	}
	// Touch many distinct pages to evict, then the first page misses again.
	now := latCold + latWarm
	for i := 0; i < 64; i++ {
		p := m.HostAlloc.Alloc(4096, 4096)
		now += m.HostAccess(0, p, false, now)
	}
	base = m.Metrics.Snapshot()
	m.HostAccess(0, a, false, now)
	if m.Metrics.Snapshot().Sub(base).Get(MetricTLBMisses) != 1 {
		t.Fatal("TLB capacity eviction not modelled")
	}
}

func TestTLBDisabledHasNoWalks(t *testing.T) {
	m := New(testConfig()) // Entries = 0
	a := m.HostAlloc.Alloc(64, 64)
	m.HostAccess(0, a, false, 0)
	if count(m, MetricTLBMisses) != 0 || count(m, MetricHostDRAMReads) != 1 {
		t.Fatalf("disabled TLB produced walks: %v", m.Metrics.Snapshot())
	}
}

func TestVaultPropertyBankCompletionMonotonic(t *testing.T) {
	// Per bank, completions must be non-decreasing when requests are
	// issued in non-decreasing time order.
	f := func(addrs []uint16, gaps []uint8) bool {
		v := NewVault(VaultConfig{Banks: 8, RowShift: 13, Timing: Table1Timing()})
		lastDone := map[uint32]uint64{}
		now := uint64(0)
		for i, a16 := range addrs {
			if i < len(gaps) {
				now += uint64(gaps[i])
			}
			a := Addr(a16) << 7 // block-aligned
			bank := (uint32(a) >> 7) & 7
			done := v.Access(a, 7, now)
			if done < now {
				return false
			}
			if done < lastDone[bank] {
				return false
			}
			lastDone[bank] = done
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDirectoryMultipleSharers(t *testing.T) {
	m := New(testConfig())
	a := m.HostAlloc.Alloc(64, 64)
	for core := 0; core < 4; core++ {
		m.HostAccess(core, a, false, uint64(core)*1000)
	}
	base := m.Metrics.Snapshot()
	m.HostAccess(0, a, true, 5000) // writer invalidates the other three
	if got := m.Metrics.Snapshot().Sub(base).Get(MetricInvalidations); got != 3 {
		t.Fatalf("invalidations = %d, want 3", got)
	}
}

// TestMemSysRejectsMoreCoresThanMaskBits: the directory's sharer mask is a
// uint32, so core 32's bit would shift to zero and the core would never be
// invalidated; New refuses the configuration instead.
func TestMemSysRejectsMoreCoresThanMaskBits(t *testing.T) {
	cfg := testConfig()
	cfg.HostCores = 32
	New(cfg) // the last representable count is accepted
	cfg.HostCores = 33
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted 33 host cores")
		}
	}()
	New(cfg)
}

// TestDirectoryMatchesDenseTable drives the paged directory and a dense
// slice (what it replaced) with the same random add/drop/others/clear
// sequence; they must agree on every others() answer and on the final
// masks, and a page no add touched must never be allocated.
func TestDirectoryMatchesDenseTable(t *testing.T) {
	const blocks = 4*dirPageBlocks + 17 // a partial last page
	rng := rand.New(rand.NewSource(23))
	d := newDirectory(blocks)
	dense := make([]uint32, blocks)
	// Pages 0 and 1 fill, their shared edge and the short last page are
	// hit often, page 3 only by drop and others, page 2 by nothing.
	pick := func() uint32 {
		switch rng.Intn(4) {
		case 0:
			return uint32(dirPageBlocks - 2 + rng.Intn(4))
		case 1:
			return uint32(blocks - 1 - rng.Intn(17))
		}
		return uint32(rng.Intn(2 * dirPageBlocks))
	}
	for i := 0; i < 200000; i++ {
		blk, core := pick(), rng.Intn(32)
		switch r := rng.Intn(100); {
		case i%50000 == 25000:
			clear(d.pages)
			clear(dense)
		case r < 40:
			d.add(blk, core)
			dense[blk] |= 1 << uint(core)
		case r < 60:
			d.drop(blk, core)
			dense[blk] &^= 1 << uint(core)
			d.drop(blk%dirPageBlocks+3*dirPageBlocks, core)
		default:
			if got, want := d.others(blk, core), dense[blk]&^(1<<uint(core)); got != want {
				t.Fatalf("step %d: others(%d, %d) = %#x, dense table says %#x", i, blk, core, got, want)
			}
			if got := d.others(blk%dirPageBlocks+3*dirPageBlocks, core); got != 0 {
				t.Fatalf("step %d: others on a never-added block = %#x", i, got)
			}
		}
	}
	sharers := 0
	for blk, want := range dense {
		if got := d.others(uint32(blk), 0) | d.others(uint32(blk), 1); got != want {
			t.Fatalf("block %d: final mask %#x, dense table says %#x", blk, got, want)
		}
		if want != 0 {
			sharers++
		}
	}
	if sharers < 1000 {
		t.Fatalf("only %d blocks end with sharers: the sequence exercises nothing", sharers)
	}
	for pg, want := range []bool{true, true, false, false, true} {
		if got := d.pages[pg] != nil; got != want {
			t.Errorf("page %d allocated = %v, want %v", pg, got, want)
		}
	}
}
