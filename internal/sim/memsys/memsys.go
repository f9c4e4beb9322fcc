package memsys

import (
	"fmt"

	"hybrids/internal/metrics"
	"hybrids/internal/sim/trace"
)

// Config holds the memory-system parameters some caller varies: tests
// shrink the caches and memories, experiments sweep the partition count and
// the MMIO latencies. DefaultConfig mirrors Table 1; every other parameter
// of the Table 1 machine is a constant below.
type Config struct {
	HostCores int

	// L1Size is each host core's private L1 dcache capacity and L2Size
	// the shared LLC's, in bytes (Table 1: 64 KiB and 1 MiB).
	L1Size Addr
	L2Size Addr

	// HostMemSize and NMPMemSize split DRAM into host-accessible main
	// memory and NMP-capable memory (Table 1: 1 GiB + 1 GiB).
	HostMemSize Addr
	NMPMemSize  Addr

	NMPVaults int // NMP partitions, one NMP core each (8)

	// MMIOWriteLatency / MMIOReadLatency cost one uncached host access to
	// an NMP scratchpad publication slot (posted write / round-trip
	// read). The paper's Table 2 measures the delays these induce.
	MMIOWriteLatency uint64
	MMIOReadLatency  uint64

	// TLBEntries sizes the per-core host TLB, which models address
	// translation (the evaluation platform is a full-system simulation:
	// host cores translate every access, while NMP cores access their
	// partitions physically, §2). Misses pay walkExtra cycles plus two
	// page-table reads that traverse the cache hierarchy like ordinary
	// data. 0 disables the TLB (perfect translation).
	TLBEntries int
}

// DefaultConfig returns the Table 1 machine.
func DefaultConfig() Config {
	return Config{
		HostCores:        8,
		L1Size:           64 << 10,
		L2Size:           1 << 20,
		HostMemSize:      1 << 30,
		NMPMemSize:       1 << 30,
		NMPVaults:        8,
		MMIOWriteLatency: 60,
		MMIOReadLatency:  120,
		// Cortex-A15-class translation: a 512-entry unified L2 TLB.
		TLBEntries: 512,
	}
}

// The fixed parameters of the Table 1 machine: no experiment or test
// varies them, so they are constants rather than Config fields.
const (
	// BlockSize is the block size of both cache levels and of each NMP
	// core's node buffer, in bytes (Table 1: 128 B).
	BlockSize Addr = 1 << blockShift
	// blockShift is log2(BlockSize): an address's block number is
	// a >> blockShift.
	blockShift = 7

	// L1Ways and L1Latency are the L1 dcache's associativity and hit
	// latency in cycles (Table 1: 2-way, 2 cycles).
	L1Ways           = 2
	L1Latency uint64 = 2
	// L2Ways and L2Latency are the shared LLC's associativity and hit
	// latency in cycles (Table 1: 8-way, 20 cycles).
	L2Ways           = 8
	L2Latency uint64 = 20

	// HostVaults is the number of main-memory vaults (Table 1: 8).
	// Consecutive blocks interleave across them.
	HostVaults = 8

	// HostDRAMExtra is the off-chip round trip a host LLC miss pays on
	// top of vault service time (serial link + memory-controller
	// queuing). NMP cores sit beside their vault and pay none of it —
	// this asymmetry is the architectural premise of the paper.
	HostDRAMExtra uint64 = 80

	// MMIOWordExtra is the per-additional-word serialization cost of a
	// write-combined burst to consecutive scratchpad words.
	MMIOWordExtra uint64 = 4

	// ScratchSize is per-NMP-core scratchpad capacity (Table 1: 40 KiB,
	// of which 8 KiB is host-mapped for publication lists).
	ScratchSize Addr = 40 << 10

	// atomicExtra is the additional cost of a read-modify-write (CAS,
	// atomic add) beyond a store hit.
	atomicExtra uint64 = 8
	// invalidateLatency is the stall a store pays to invalidate remote L1
	// copies of its block.
	invalidateLatency uint64 = 12

	// nmpBufLatency is an NMP-core access that hits the node-size buffer
	// register; nmpScratchLatency is an NMP-core access to its own
	// scratchpad. Both model small local SRAM.
	nmpBufLatency     uint64 = 1
	nmpScratchLatency uint64 = 2

	// tlbWays, tlbPageBits and walkExtra complete the Cortex-A15-class
	// host TLB: 4-way, 4 KiB pages, and a two-level page-table walk that
	// pays 8 cycles on top of its two page-table reads.
	tlbWays            = 4
	tlbPageBits        = 12
	walkExtra   uint64 = 8
)

// Registered metric names for every memory-system event counter. The
// counts live in the machine's unified metrics.Registry, and a phase is
// measured by the delta of two registry snapshots; DRAM reads, host plus
// NMP, are the quantity the paper reports in Figures 5b, 6b and 9.
const (
	MetricL1Hits        = "mem/l1_hits"
	MetricL2Hits        = "mem/l2_hits"
	MetricHostDRAMReads = "mem/host_dram_reads"
	MetricDRAMWrites    = "mem/dram_writes"
	MetricNMPBufHits    = "mem/nmp_buf_hits"
	MetricNMPDRAMReads  = "mem/nmp_dram_reads"
	MetricMMIOReads     = "mem/mmio_reads"
	MetricMMIOWrites    = "mem/mmio_writes"
	MetricInvalidations = "mem/invalidations"
	MetricAtomics       = "mem/atomics"
	MetricScratchOps    = "mem/scratch_ops"
	MetricTLBMisses     = "mem/tlb_misses"
)

// statCounters holds the registry counter handles on the access hot path.
type statCounters struct {
	l1Hits        *metrics.Counter
	l2Hits        *metrics.Counter
	hostDRAMReads *metrics.Counter
	dramWrites    *metrics.Counter
	nmpBufHits    *metrics.Counter
	nmpDRAMReads  *metrics.Counter
	mmioReads     *metrics.Counter
	mmioWrites    *metrics.Counter
	invalidations *metrics.Counter
	atomics       *metrics.Counter
	scratchOps    *metrics.Counter
	tlbMisses     *metrics.Counter
}

func newStatCounters(reg *metrics.Registry) statCounters {
	return statCounters{
		l1Hits:        reg.Counter(MetricL1Hits),
		l2Hits:        reg.Counter(MetricL2Hits),
		hostDRAMReads: reg.Counter(MetricHostDRAMReads),
		dramWrites:    reg.Counter(MetricDRAMWrites),
		nmpBufHits:    reg.Counter(MetricNMPBufHits),
		nmpDRAMReads:  reg.Counter(MetricNMPDRAMReads),
		mmioReads:     reg.Counter(MetricMMIOReads),
		mmioWrites:    reg.Counter(MetricMMIOWrites),
		invalidations: reg.Counter(MetricInvalidations),
		atomics:       reg.Counter(MetricAtomics),
		scratchOps:    reg.Counter(MetricScratchOps),
		tlbMisses:     reg.Counter(MetricTLBMisses),
	}
}

// nmpBuf is the node-size (one cache block) buffer register each NMP core
// holds, per the baseline architecture of §2 and prior work [16].
type nmpBuf struct {
	block uint32
	valid bool
}

// MemSys is the assembled memory system: functional RAM plus the timing
// models, address map, and region allocators.
type MemSys struct {
	Cfg Config
	RAM *RAM

	l1         []*Cache
	l2         *Cache
	dir        directory
	hostVaults [HostVaults]Vault
	nmpVaults  []Vault
	nmpBufs    []nmpBuf

	tlbs     []*Cache // per host core, tags are virtual page numbers
	ptL1Base Addr     // first-level page table (one 4 B entry per 4 MiB)
	ptL2Base Addr     // second-level page table (one 4 B entry per page)

	// HostAlloc allocates host main-memory; NMPAlloc[p] allocates within
	// NMP partition p.
	HostAlloc *Allocator
	NMPAlloc  []*Allocator

	scratchBase Addr

	// Metrics is the registry holding every memory-system event counter
	// (and, machine-wide, every other subsystem's instruments).
	Metrics *metrics.Registry
	st      statCounters

	// Optional observability state: tr records memory events onto one
	// trace track per host core and per NMP core (SetTracer); attrs holds
	// one latency-attribution accumulator per host core (EnableAttr). obs
	// caches "either is enabled" so the access hot path pays a single
	// predictable branch when both are off.
	tr        *trace.Tracer
	hostTrack []int
	nmpTrack  []int
	attrs     []*trace.CoreAttr
	obs       bool
}

// New assembles a memory system from cfg with a private metrics registry.
func New(cfg Config) *MemSys {
	return NewWithMetrics(cfg, metrics.NewRegistry())
}

// NewWithMetrics assembles a memory system from cfg, registering its event
// counters in reg.
func NewWithMetrics(cfg Config, reg *metrics.Registry) *MemSys {
	if cfg.HostCores <= 0 || cfg.NMPVaults <= 0 {
		panic("memsys: config must have positive core and vault counts")
	}
	if cfg.HostCores > 32 {
		panic("memsys: at most 32 host cores (the directory's sharer mask is 32 bits)")
	}
	total := cfg.HostMemSize + cfg.NMPMemSize + Addr(cfg.NMPVaults)*ScratchSize
	m := &MemSys{
		Cfg:         cfg,
		RAM:         NewRAM(total),
		l2:          NewCache("L2", cfg.L2Size, L2Ways, BlockSize),
		dir:         newDirectory(uint32(cfg.HostMemSize >> blockShift)),
		nmpVaults:   make([]Vault, cfg.NMPVaults),
		scratchBase: cfg.HostMemSize + cfg.NMPMemSize,
		Metrics:     reg,
		st:          newStatCounters(reg),
	}
	for i := 0; i < cfg.HostCores; i++ {
		m.l1 = append(m.l1, NewCache(fmt.Sprintf("L1.%d", i), cfg.L1Size, L1Ways, BlockSize))
	}
	partSize := cfg.NMPMemSize / Addr(cfg.NMPVaults)
	for i := 0; i < cfg.NMPVaults; i++ {
		base := cfg.HostMemSize + Addr(i)*partSize
		m.NMPAlloc = append(m.NMPAlloc, NewAllocator(fmt.Sprintf("nmp%d", i), base, partSize))
	}
	m.nmpBufs = make([]nmpBuf, cfg.NMPVaults)
	m.HostAlloc = NewAllocator("host", 0, cfg.HostMemSize)
	// Address 0 doubles as the nil simulated pointer; burn the first
	// block so no allocation ever returns it.
	m.HostAlloc.Alloc(BlockSize, BlockSize)
	if cfg.TLBEntries > 0 {
		const pageSize = Addr(1) << tlbPageBits
		for i := 0; i < cfg.HostCores; i++ {
			m.tlbs = append(m.tlbs, NewCache(fmt.Sprintf("TLB.%d", i), Addr(cfg.TLBEntries)*pageSize, tlbWays, pageSize))
		}
		// Reserve the page tables in host memory so walks occupy the
		// caches like real PTE traffic.
		pages := cfg.HostMemSize >> tlbPageBits
		m.ptL2Base = m.HostAlloc.Alloc(pages*4, BlockSize)
		m.ptL1Base = m.HostAlloc.Alloc((pages>>10+1)*4, BlockSize)
	}
	return m
}

// SetTracer attaches t as the memory system's event tracer, registering one
// "host/<core>" track per host core and one "nmp/<p>" track per partition.
// Memory events (cache hits, DRAM reads, invalidations, TLB misses, MMIO)
// record onto these tracks; the machine and offload layers reuse them via
// HostTrack/NMPTrack so each core's timeline is a single thread in the
// Chrome export. Call once, with a non-nil t.
func (m *MemSys) SetTracer(t *trace.Tracer) {
	m.tr, m.obs = t, true
	for i := 0; i < m.Cfg.HostCores; i++ {
		m.hostTrack = append(m.hostTrack, t.NewTrack(fmt.Sprintf("host/%d", i)))
	}
	for p := 0; p < m.Cfg.NMPVaults; p++ {
		m.nmpTrack = append(m.nmpTrack, t.NewTrack(fmt.Sprintf("nmp/%d", p)))
	}
}

// Tracer returns the attached event tracer (nil when tracing is off).
func (m *MemSys) Tracer() *trace.Tracer { return m.tr }

// HostTrack returns host core i's trace track, or -1 when tracing is off.
func (m *MemSys) HostTrack(core int) int {
	if m.tr == nil {
		return -1
	}
	return m.hostTrack[core]
}

// NMPTrack returns NMP core p's trace track, or -1 when tracing is off.
func (m *MemSys) NMPTrack(p int) int {
	if m.tr == nil {
		return -1
	}
	return m.nmpTrack[p]
}

// EnableAttr switches on per-host-core latency attribution: every host
// access thereafter charges its cycles to the issuing core's
// trace.CoreAttr, split into attribution buckets. Attribution is pure
// bookkeeping — it never changes access latencies.
func (m *MemSys) EnableAttr() {
	m.attrs = make([]*trace.CoreAttr, m.Cfg.HostCores)
	for i := range m.attrs {
		m.attrs[i] = new(trace.CoreAttr)
	}
	m.obs = true
}

// Attr returns host core i's attribution accumulator, or nil when
// attribution is disabled (the nil accumulator absorbs charges safely).
func (m *MemSys) Attr(core int) *trace.CoreAttr {
	if m.attrs == nil {
		return nil
	}
	return m.attrs[core]
}

func block(a Addr) uint32 { return uint32(a) >> blockShift }

// Region classification.

// IsHostMem reports whether a lies in host-accessible main memory.
func (m *MemSys) IsHostMem(a Addr) bool { return a < m.Cfg.HostMemSize }

// IsNMPMem reports whether a lies in NMP-capable memory, returning the
// owning partition.
func (m *MemSys) IsNMPMem(a Addr) (part int, ok bool) {
	if a < m.Cfg.HostMemSize || a >= m.scratchBase {
		return 0, false
	}
	partSize := m.Cfg.NMPMemSize / Addr(m.Cfg.NMPVaults)
	return int((a - m.Cfg.HostMemSize) / partSize), true
}

// ScratchAddr returns the base address of NMP core p's scratchpad.
func (m *MemSys) ScratchAddr(p int) Addr {
	return m.scratchBase + Addr(p)*ScratchSize
}

// IsScratch reports whether a lies in a scratchpad, returning the owner.
func (m *MemSys) IsScratch(a Addr) (part int, ok bool) {
	if a < m.scratchBase {
		return 0, false
	}
	p := int((a - m.scratchBase) / ScratchSize)
	if p >= m.Cfg.NMPVaults {
		return 0, false
	}
	return p, true
}

// HostAccess charges a host-core load or store at address a issued at
// virtual time now, returning its latency in cycles. Scratchpad addresses
// take the uncached MMIO path; NMP-memory addresses panic — the
// architecture gives host cores no path to NMP partitions (§2), so an
// attempt is an algorithm bug worth failing loudly on.
func (m *MemSys) HostAccess(core int, a Addr, write bool, now uint64) uint64 {
	if _, ok := m.IsScratch(a); ok {
		lat, k := m.mmio(write)
		if m.obs {
			if m.tr != nil {
				m.tr.Span(m.hostTrack[core], k, now, lat, 0)
			}
			m.Attr(core).Add(trace.BucketOffloadWait, lat)
		}
		return lat
	}
	if part, ok := m.IsNMPMem(a); ok {
		panic(fmt.Sprintf("memsys: host core %d touched NMP partition %d address %#x", core, part, a))
	}
	return m.hostCached(core, a, write, false, now)
}

// MMIOBurst charges a write-combined host access to nwords consecutive
// scratchpad words, returning its latency and trace kind. The first word
// pays the full MMIO latency; subsequent words pay only serialization.
func (m *MemSys) MMIOBurst(a Addr, nwords int, write bool) (uint64, trace.Kind) {
	if _, ok := m.IsScratch(a); !ok {
		panic(fmt.Sprintf("memsys: MMIO burst outside scratchpad at %#x", a))
	}
	if nwords <= 0 {
		panic("memsys: empty MMIO burst")
	}
	lat, k := m.mmio(write)
	return lat + uint64(nwords-1)*MMIOWordExtra, k
}

// mmio counts one uncached host access to a scratchpad and returns its
// latency and trace kind.
func (m *MemSys) mmio(write bool) (uint64, trace.Kind) {
	if write {
		m.st.mmioWrites.Inc()
		return m.Cfg.MMIOWriteLatency, trace.KindMMIOWrite
	}
	m.st.mmioReads.Inc()
	return m.Cfg.MMIOReadLatency, trace.KindMMIORead
}

// HostAtomic charges a host-core read-modify-write (CAS, fetch-add).
func (m *MemSys) HostAtomic(core int, a Addr, now uint64) uint64 {
	if !m.IsHostMem(a) {
		panic(fmt.Sprintf("memsys: host atomic outside host memory at %#x", a))
	}
	m.st.atomics.Inc()
	return m.hostCached(core, a, true, true, now)
}

// hostCached performs a translated host access: a TLB lookup, a page-table
// walk on a miss (two PTE reads through the cache hierarchy), then the data
// access itself.
func (m *MemSys) hostCached(core int, a Addr, write, atomic bool, now uint64) uint64 {
	var lat uint64
	if m.tlbs != nil {
		vpage := uint32(a) >> tlbPageBits
		tlb := m.tlbs[core]
		if !tlb.Lookup(vpage, false) {
			m.st.tlbMisses.Inc()
			lat += walkExtra
			if m.obs {
				if m.tr != nil {
					m.tr.Instant(m.hostTrack[core], trace.KindTLBMiss, now, uint32(vpage))
				}
				m.Attr(core).Add(trace.BucketHostCache, walkExtra)
			}
			l1e := m.ptL1Base + Addr(vpage>>10)*4
			l2e := m.ptL2Base + Addr(vpage)*4
			lat += m.cachedAccess(core, l1e, false, false, now+lat)
			lat += m.cachedAccess(core, l2e, false, false, now+lat)
			tlb.Fill(vpage, false)
		}
	}
	return lat + m.cachedAccess(core, a, write, atomic, now+lat)
}

func (m *MemSys) cachedAccess(core int, a Addr, write, atomic bool, now uint64) uint64 {
	blk := block(a)
	l1 := m.l1[core]
	lat := L1Latency
	if atomic {
		lat += atomicExtra
	}
	// Stores and atomics must own the block exclusively: invalidate any
	// remote L1 copies (directory protocol).
	var invLat uint64
	if write {
		if others := m.dir.others(blk, core); others != 0 {
			var nInv uint32
			for c := 0; c < m.Cfg.HostCores; c++ {
				if others&(1<<uint(c)) != 0 {
					m.l1[c].Invalidate(blk)
					m.dir.drop(blk, c)
					m.st.invalidations.Inc()
					nInv++
				}
			}
			lat += invalidateLatency
			invLat = invalidateLatency
			if m.tr != nil {
				m.tr.Instant(m.hostTrack[core], trace.KindInvalidate, now, nInv)
			}
		}
	}
	if l1.Lookup(blk, write) {
		m.st.l1Hits.Inc()
		if m.obs {
			m.finishHost(core, trace.KindL1Hit, 0, now, lat, invLat, 0)
		}
		return lat
	}
	// L1 miss: probe L2.
	lat += L2Latency
	kind, arg := trace.KindL2Hit, uint32(0)
	var dramLat uint64
	if !m.l2.Lookup(blk, false) {
		// L2 miss: fetch the block from its home vault over the
		// off-chip link.
		pre := lat
		done, outcome := m.hostVault(a).Access(a, now+lat+HostDRAMExtra/2)
		lat = done - now + HostDRAMExtra/2
		dramLat = lat - pre
		kind, arg = trace.KindDRAMRead, uint32(outcome)
		m.st.hostDRAMReads.Inc()
		if ev, dirty, ok := m.l2.Fill(blk, false); ok && dirty {
			// Dirty LLC victim writes back off the critical path;
			// it only occupies its bank.
			m.writebackToDRAM(ev, now+lat)
		}
	} else {
		m.st.l2Hits.Inc()
	}
	// Fill L1 (write-allocate).
	if ev, dirty, ok := l1.Fill(blk, write); ok {
		m.dir.drop(ev, core)
		if dirty {
			// Victim writes back into L2 without stalling the core.
			if !m.l2.Lookup(ev, true) {
				if ev2, d2, ok2 := m.l2.Fill(ev, true); ok2 && d2 {
					m.writebackToDRAM(ev2, now+lat)
				}
			}
		}
	}
	m.dir.add(blk, core)
	if m.obs {
		m.finishHost(core, kind, arg, now, lat, invLat, dramLat)
	}
	return lat
}

// finishHost records a completed host cached access as one span on core's
// trace track and charges its latency split to the core's attribution
// accumulator: the invalidation stall to coherence, the off-chip fetch to
// DRAM, and the on-chip remainder to host-cache. Callers gate on m.obs so
// the disabled case costs one branch.
func (m *MemSys) finishHost(core int, k trace.Kind, arg uint32, start, lat, invLat, dramLat uint64) {
	if m.tr != nil {
		m.tr.Span(m.hostTrack[core], k, start, lat, arg)
	}
	if at := m.Attr(core); at != nil {
		at.Add(trace.BucketCoherence, invLat)
		at.Add(trace.BucketDRAM, dramLat)
		at.Add(trace.BucketHostCache, lat-invLat-dramLat)
	}
}

func (m *MemSys) writebackToDRAM(blk uint32, now uint64) {
	a := Addr(blk) << blockShift
	if m.IsHostMem(a) {
		m.hostVault(a).Access(a, now)
		m.st.dramWrites.Inc()
	}
}

func (m *MemSys) hostVault(a Addr) *Vault {
	return &m.hostVaults[block(a)%HostVaults]
}

// NMPAccess charges NMP core p's load or store at address a. NMP cores may
// touch only their own partition and their own scratchpad; anything else
// panics, enforcing the architecture's partition isolation.
func (m *MemSys) NMPAccess(p int, a Addr, write bool, now uint64) uint64 {
	if sp, ok := m.IsScratch(a); ok {
		if sp != p {
			panic(fmt.Sprintf("memsys: NMP core %d touched scratchpad %d", p, sp))
		}
		m.st.scratchOps.Inc()
		if m.tr != nil {
			m.tr.Span(m.nmpTrack[p], trace.KindScratchOp, now, nmpScratchLatency, 0)
		}
		return nmpScratchLatency
	}
	part, ok := m.IsNMPMem(a)
	if !ok || part != p {
		panic(fmt.Sprintf("memsys: NMP core %d touched address %#x outside its partition", p, a))
	}
	blk := block(a)
	buf := &m.nmpBufs[p]
	if write {
		// Write-through to the vault; refresh the buffer if it holds
		// this block so subsequent reads stay local.
		done, outcome := m.nmpVaults[p].Access(a, now)
		m.st.dramWrites.Inc()
		lat := done - now
		if buf.valid && buf.block == blk {
			lat = nmpBufLatency
		}
		if m.tr != nil {
			m.tr.Span(m.nmpTrack[p], trace.KindDRAMWrite, now, lat, uint32(outcome))
		}
		return lat
	}
	if buf.valid && buf.block == blk {
		m.st.nmpBufHits.Inc()
		if m.tr != nil {
			m.tr.Span(m.nmpTrack[p], trace.KindNMPBufHit, now, nmpBufLatency, 0)
		}
		return nmpBufLatency
	}
	done, outcome := m.nmpVaults[p].Access(a, now)
	m.st.nmpDRAMReads.Inc()
	buf.block, buf.valid = blk, true
	if m.tr != nil {
		m.tr.Span(m.nmpTrack[p], trace.KindNMPDRAMRead, now, done-now, uint32(outcome))
	}
	return done - now
}

// Image is an immutable snapshot of a machine's functional state — RAM
// contents and the HostAlloc/NMPAlloc marks — which is everything an
// untimed bulk build leaves behind: timing state (caches, directory,
// vaults, TLBs) is untouched by one. Any number of same-shaped machines
// may Restore one image, concurrently; each shares its 64 KiB pages and
// copies a page on its first store to it.
type Image struct {
	pages  []*page
	size   Addr
	allocs []Allocator // HostAlloc then NMPAlloc[p]: region and mark
}

func (m *MemSys) allocators() []*Allocator {
	return append([]*Allocator{m.HostAlloc}, m.NMPAlloc...)
}

// Snapshot captures m's functional state. m stays usable: it now shares
// its pages with the image and copies on write like any restorer.
func (m *MemSys) Snapshot() *Image {
	img := &Image{pages: m.RAM.share(), size: m.RAM.size}
	for _, al := range m.allocators() {
		img.allocs = append(img.allocs, *al)
	}
	return img
}

// Restore replaces m's functional state with img's. m must have img's
// memory layout and must have allocated nothing the image's machine had
// not — the state of a fresh machine after the same deterministic
// constructor calls that preceded the build; anything else panics.
func (m *MemSys) Restore(img *Image) {
	als := m.allocators()
	if img.size != m.RAM.size || len(img.allocs) != len(als) {
		panic(fmt.Sprintf("memsys: image of %#x bytes and %d allocators restored into a machine of %#x bytes and %d",
			img.size, len(img.allocs), m.RAM.size, len(als)))
	}
	for i, al := range als {
		if from := img.allocs[i]; from.base != al.base || from.end != al.end || from.next < al.next {
			panic(fmt.Sprintf("memsys: image allocator %q [%#x,%#x) at %#x does not extend this machine's [%#x,%#x) at %#x",
				from.name, from.base, from.end, from.next, al.base, al.end, al.next))
		}
		*al = img.allocs[i]
	}
	m.RAM.adopt(img.pages)
}
