// Package cds provides the native (non-simulated) ordered maps the hybrid
// runtime in internal/core uses as partition stores, each usable
// standalone: a pointer-free arena skiplist with foresight keys, a
// pointer-free arena B+ tree and a fat-node B-skiplist. All three are
// sequential — one goroutine (in the runtime, the partition's combiner)
// owns each instance.
package cds

import "math/bits"

// Skiplist geometry. A node is a run of words in the arena:
//
//	word 0       key
//	word 1       value
//	word 2+2l    key of the level-l successor (slNoKey when there is none)
//	word 3+2l    index of the level-l successor (slNil when there is none)
//
// Word 3's high half also holds the node's height; a free-listed node
// has height 0 there and the next free node's index in the low half.
// Sizes round up to half a cache line (4 words), so a node's key, value
// and level-0 slot share a line and every two heights share a free list.
const (
	// slMaxHeight caps towers; the descent starts at the level in use, so
	// the cap costs nothing until 2^slMaxHeight keys.
	slMaxHeight = 24
	// slChunkBits sizes a chunk at 2^16 words (512 KiB).
	slChunkBits  = 16
	slChunkWords = 1 << slChunkBits
	// slNil is the "no successor" index. It is the head's own index,
	// which nothing links to.
	slNil = 0
	// slNoKey is the foresight key beside slNil: it compares above every
	// storable key, so a descent stops there without a nil test.
	slNoKey = ^uint64(0)
)

// slChunk is one fixed-size, pointer-free piece of the arena.
type slChunk [slChunkWords]uint64

// slWords returns the size in words of a node of height h; a quarter of
// it indexes the node's free list.
func slWords(h int) uint32 { return uint32(4+2*h) &^ 3 }

// SkipList is a sequential ordered map from uint64 keys to uint64 values
// built for one owner and for the cache: nodes are runs of words carved
// from fixed-size pointer-free chunks and named by a 32-bit word index
// (growth never copies, the garbage collector never scans a node), each
// node's tower is inline behind its key and value (a hop lands on one
// line), and every forward slot carries its successor's key beside the
// successor's index (the foresight key: a comparison that does not
// advance never touches the successor). Removed nodes go to per-size
// free lists and are reused by later inserts, so churn at a constant
// population does not grow the arena. What the design gives up: chunks
// are never returned to the runtime while the list lives.
//
// Keys 0 and MaxUint64 are reserved: Put panics on them and every other
// method reports them absent. Methods are not safe for concurrent use.
type SkipList struct {
	chunks []*slChunk
	used   uint32                    // words carved from the last chunk
	free   [slMaxHeight/2 + 2]uint32 // free[w/4] heads the list of removed w-word nodes
	height int                       // levels in use (>= 1): the head links nothing at or above it
	length int
	seed   uint64
}

// NewSkipList returns an empty list.
func NewSkipList() *SkipList {
	s := &SkipList{height: 1, seed: 0x9e3779b97f4a7c15}
	s.alloc(slMaxHeight) // the head: the arena's first node, at index slNil
	head := s.chunks[0]
	for l := 0; l < slMaxHeight; l++ {
		head[2+2*l] = slNoKey
	}
	return s
}

// Len returns the number of stored pairs.
func (s *SkipList) Len() int { return s.length }

// slReserved reports whether key is one of the two sentinel keys.
func slReserved(key uint64) bool { return key-1 >= slNoKey-1 }

// node returns the chunk holding node x and x's offset in it. Nodes never
// straddle chunks, so offsets up to the node's size stay inside.
func (s *SkipList) node(x uint32) (*slChunk, uint32) {
	return s.chunks[x>>slChunkBits], x & (slChunkWords - 1)
}

// alloc returns a node of height h with its words unspecified: a reused
// node of that size, else fresh words.
func (s *SkipList) alloc(h int) uint32 {
	n := slWords(h)
	if x := s.free[n/4]; x != slNil {
		c, o := s.node(x)
		s.free[n/4] = uint32(c[o+3])
		return x
	}
	if len(s.chunks) == 0 || s.used+n > slChunkWords {
		// The tail of the last chunk is too short for this node: leave it.
		if len(s.chunks) == 1<<(32-slChunkBits) {
			panic("cds: skiplist arena exhausted")
		}
		s.chunks = append(s.chunks, new(slChunk))
		s.used = 0
	}
	x := uint32(len(s.chunks)-1)<<slChunkBits | s.used
	s.used += n
	return x
}

// release puts the unlinked node x of height h on its free list.
func (s *SkipList) release(x uint32, h int) {
	c, o := s.node(x)
	c[o+3] = uint64(s.free[slWords(h)/4])
	s.free[slWords(h)/4] = x
}

func (s *SkipList) randomHeight() int {
	x := s.seed
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	s.seed = x
	// One more level per trailing one bit: P(height > h) = 2^-h.
	return min(1+bits.TrailingZeros64(^x), slMaxHeight)
}

// find descends to key, recording in preds the last node before key at
// every level in use, and returns the node holding key, or slNil.
func (s *SkipList) find(key uint64, preds *[slMaxHeight]uint32) uint32 {
	x := uint32(slNil)
	c, o := s.node(x)
	var slot uint32
	for l := s.height - 1; l >= 0; l-- {
		slot = o + 2 + 2*uint32(l)
		for c[slot] < key {
			x = uint32(c[slot+1])
			c, o = s.node(x)
			slot = o + 2 + 2*uint32(l)
		}
		preds[l] = x
	}
	if c[slot] != key {
		return slNil
	}
	return uint32(c[slot+1])
}

// seek returns the first node with a key >= key (slNil when there is
// none) and, from the slot that names it, that node's key: the caller
// learns whether key is present without touching the node. It is find
// without the predecessor record, and stops at the first level whose
// foresight key matches.
func (s *SkipList) seek(key uint64) (uint64, uint32) {
	c, o := s.node(slNil)
	var slot uint32
	for l := s.height - 1; l >= 0; l-- {
		slot = o + 2 + 2*uint32(l)
		for c[slot] < key {
			c, o = s.node(uint32(c[slot+1]))
			slot = o + 2 + 2*uint32(l)
		}
		if c[slot] == key {
			break
		}
	}
	return c[slot], uint32(c[slot+1])
}

// Get returns the value stored under key.
func (s *SkipList) Get(key uint64) (uint64, bool) {
	if k, x := s.seek(key); k == key && !slReserved(key) {
		c, o := s.node(x)
		return c[o+1], true
	}
	return 0, false
}

// Put adds key -> value; it returns false (without modifying the map)
// when the key is already present.
func (s *SkipList) Put(key, value uint64) bool {
	if slReserved(key) {
		panic("cds: keys 0 and MaxUint64 are reserved sentinels")
	}
	var preds [slMaxHeight]uint32
	if s.find(key, &preds) != slNil {
		return false
	}
	h := s.randomHeight()
	for ; s.height < h; s.height++ {
		preds[s.height] = slNil // the head precedes everything at a new level
	}
	x := s.alloc(h)
	c, o := s.node(x)
	c[o] = key
	c[o+1] = value
	for l := 0; l < h; l++ {
		pc, po := s.node(preds[l])
		pslot := po + 2 + 2*uint32(l)
		slot := o + 2 + 2*uint32(l)
		c[slot], c[slot+1] = pc[pslot], uint64(uint32(pc[pslot+1]))
		// A predecessor's height (level 0's high half) stays put.
		pc[pslot], pc[pslot+1] = key, pc[pslot+1]>>32<<32|uint64(x)
	}
	c[o+3] |= uint64(h) << 32
	s.length++
	return true
}

// Update stores value under an existing key, returning false if absent.
func (s *SkipList) Update(key, value uint64) bool {
	if k, x := s.seek(key); k == key && !slReserved(key) {
		c, o := s.node(x)
		c[o+1] = value
		return true
	}
	return false
}

// Delete removes key, returning false if absent.
func (s *SkipList) Delete(key uint64) bool {
	if slReserved(key) {
		return false
	}
	var preds [slMaxHeight]uint32
	x := s.find(key, &preds)
	if x == slNil {
		return false
	}
	c, o := s.node(x)
	h := int(c[o+3] >> 32)
	for l := 0; l < h; l++ {
		pc, po := s.node(preds[l])
		pslot := po + 2 + 2*uint32(l)
		slot := o + 2 + 2*uint32(l)
		pc[pslot], pc[pslot+1] = c[slot], pc[pslot+1]>>32<<32|uint64(uint32(c[slot+1]))
	}
	s.release(x, h)
	head := s.chunks[0]
	for s.height > 1 && head[2+2*(s.height-1)] == slNoKey {
		s.height--
	}
	s.length--
	return true
}

// Ascend calls fn for each key >= from in ascending order until fn
// returns false. fn must not modify the list.
func (s *SkipList) Ascend(from uint64, fn func(key, value uint64) bool) {
	for _, x := s.seek(from); x != slNil; {
		c, o := s.node(x)
		if !fn(c[o], c[o+1]) {
			return
		}
		x = uint32(c[o+3])
	}
}

// CheckInvariants validates the structure (for tests): at every level
// keys strictly increase, each slot's foresight key is the key of the node
// its index names and a nil index carries MaxUint64; a node linked at
// level l has height > l and is linked at level 0; no level at or above
// the height in use links anything and the top level in use does; no
// free-listed node is reachable; and level 0 holds Len nodes.
func (s *SkipList) CheckInvariants() error {
	freed := make(map[uint32]bool)
	for i := range s.free {
		for x := s.free[i]; x != slNil; {
			if freed[x] {
				return errf("skiplist: free list %d revisits node %d", i, x)
			}
			freed[x] = true
			c, o := s.node(x)
			w := c[o+3]
			if w>>32 != 0 {
				return errf("skiplist: free node %d records height %d", x, w>>32)
			}
			x = uint32(w)
		}
	}
	if s.height < 1 || s.height > slMaxHeight {
		return errf("skiplist: %d levels in use of %d", s.height, slMaxHeight)
	}
	bottom := make(map[uint32]bool)
	for l := 0; l < slMaxHeight; l++ {
		prev, n := uint64(0), 0
		c, o := s.node(slNil)
		for {
			k, x := c[o+2+2*uint32(l)], uint32(c[o+3+2*uint32(l)])
			if x == slNil {
				if k != slNoKey {
					return errf("skiplist: level %d nil link carries key %d", l, k)
				}
				break
			}
			if freed[x] {
				return errf("skiplist: level %d reaches free node %d", l, x)
			}
			c, o = s.node(x)
			if c[o] != k {
				return errf("skiplist: level %d foresight key %d names node with key %d", l, k, c[o])
			}
			if k <= prev || k == slNoKey {
				return errf("skiplist: level %d key %d after %d", l, k, prev)
			}
			if h := int(c[o+3] >> 32); h <= l || h > slMaxHeight {
				return errf("skiplist: node %d of height %d linked at level %d", k, h, l)
			}
			if l == 0 {
				bottom[x] = true
			} else if !bottom[x] {
				return errf("skiplist: level %d node %d not linked at level 0", l, k)
			}
			prev = k
			n++
		}
		if l == 0 && n != s.length {
			return errf("skiplist: length %d but %d nodes linked", s.length, n)
		}
		if l >= s.height && n != 0 {
			return errf("skiplist: level %d links %d nodes above the %d in use", l, n, s.height)
		}
		if l == s.height-1 && l > 0 && n == 0 {
			return errf("skiplist: top level %d in use is empty", l)
		}
	}
	return nil
}
