package memsys

import "fmt"

type line struct {
	tag   uint32 // block number (addr >> blockShift)
	valid bool
	dirty bool
	lru   uint64
}

// Cache is a set-associative, write-back, write-allocate tag store with LRU
// replacement. It tracks which blocks are resident (timing plane only —
// data lives in RAM).
type Cache struct {
	sets    [][]line
	setMask uint32
	stamp   uint64
	// mru points at the line of the most recent hit or fill: a one-entry
	// way predictor that short-circuits the set scan when consecutive
	// accesses land in the same block — the common case both for
	// field-by-field node reads and for TLB lookups, where successive
	// accesses stay on one page. The fast path performs exactly the
	// recency/dirty updates of the scanning path, so hit/miss outcomes,
	// eviction choices and therefore simulated timing are identical.
	mru *line
}

// NewCache builds a cache of size bytes in blocks of blockSize bytes with
// the given associativity. The set count must be a power of two.
func NewCache(name string, size Addr, ways int, blockSize Addr) *Cache {
	if ways <= 0 || size == 0 || size%(blockSize*Addr(ways)) != 0 {
		panic(fmt.Sprintf("memsys: %s geometry invalid: size=%d ways=%d block=%d", name, size, ways, blockSize))
	}
	nsets := uint32(size / (blockSize * Addr(ways)))
	if nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("memsys: %s set count %d not a power of two", name, nsets))
	}
	sets := make([][]line, nsets)
	backing := make([]line, int(nsets)*ways)
	for i := range sets {
		sets[i] = backing[i*ways : (i+1)*ways : (i+1)*ways]
	}
	return &Cache{sets: sets, setMask: nsets - 1}
}

// Lookup probes for block, updating recency on a hit and setting the dirty
// bit when write is true. It reports whether the block was resident.
func (c *Cache) Lookup(block uint32, write bool) bool {
	// Same-block fast path via the one-entry way predictor.
	if l := c.mru; l != nil && l.valid && l.tag == block {
		c.stamp++
		l.lru = c.stamp
		if write {
			l.dirty = true
		}
		return true
	}
	set := c.sets[block&c.setMask]
	for i := range set {
		if set[i].valid && set[i].tag == block {
			c.stamp++
			set[i].lru = c.stamp
			if write {
				set[i].dirty = true
			}
			c.mru = &set[i]
			return true
		}
	}
	return false
}

// Fill inserts block (which must not be resident) choosing an invalid way
// or evicting the LRU line. It returns the evicted block and whether it was
// dirty; ok is false when no eviction happened.
func (c *Cache) Fill(block uint32, dirty bool) (evicted uint32, evictedDirty, ok bool) {
	set := c.sets[block&c.setMask]
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	v := &set[victim]
	if v.valid {
		evicted, evictedDirty, ok = v.tag, v.dirty, true
	}
	c.stamp++
	*v = line{tag: block, valid: true, dirty: dirty, lru: c.stamp}
	c.mru = v
	return evicted, evictedDirty, ok
}

// Invalidate drops block's line if resident, dirty or not (data lives in RAM).
func (c *Cache) Invalidate(block uint32) {
	set := c.sets[block&c.setMask]
	for i := range set {
		if set[i].valid && set[i].tag == block {
			set[i] = line{}
			return
		}
	}
}

// directory tracks, per block, which host cores hold the block in their
// private L1, so stores can invalidate remote copies (MESI-style ownership
// without modelling the full protocol state machine).
//
// The sharer masks live in a table indexed by block number within the
// host-memory range (host cores can only cache host main memory, and that
// range is fixed at configuration time), held as pages of dirPageBlocks
// entries allocated on a page's first add. A flat slice would be 8 MB per
// machine at a 256 MB host range, and the runtime clears it on every
// allocation once it reuses a dead span, which an experiment grid of
// short-lived machines makes it do; paged, a machine pays for the block
// ranges its cores actually cache.
type directory struct {
	pages [][]uint32 // block/dirPageBlocks -> block%dirPageBlocks -> bitmask of core IDs
}

// dirPageBlocks is the number of blocks one directory page covers (16 KB
// of masks; 512 KB of host memory at Table 1's 128 B blocks).
const dirPageBlocks = 1 << 12

// newDirectory sizes the page table for the given number of cacheable
// host-memory blocks.
func newDirectory(blocks uint32) directory {
	return directory{pages: make([][]uint32, (blocks+dirPageBlocks-1)/dirPageBlocks)}
}

func (d *directory) add(block uint32, core int) {
	pg := d.pages[block/dirPageBlocks]
	if pg == nil {
		pg = make([]uint32, dirPageBlocks)
		d.pages[block/dirPageBlocks] = pg
	}
	pg[block%dirPageBlocks] |= 1 << uint(core)
}

func (d *directory) drop(block uint32, core int) {
	if pg := d.pages[block/dirPageBlocks]; pg != nil {
		pg[block%dirPageBlocks] &^= 1 << uint(core)
	}
}

// others returns the sharer bitmask excluding core.
func (d *directory) others(block uint32, core int) uint32 {
	pg := d.pages[block/dirPageBlocks]
	if pg == nil {
		return 0
	}
	return pg[block%dirPageBlocks] &^ (1 << uint(core))
}
