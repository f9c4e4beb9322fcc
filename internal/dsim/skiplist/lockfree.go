package skiplist

import (
	"fmt"

	"hybrids/internal/dsim/kv"
	"hybrids/internal/hds"
	"hybrids/internal/prng"
	"hybrids/internal/sim/machine"
)

func errf(format string, args ...any) error { return fmt.Errorf("skiplist: "+format, args...) }

// LockFree is the paper's non-NMP reference skiplist: the lock-free
// skiplist of Fraser / Herlihy-Lev-Shavit, living entirely in host main
// memory and operated by host threads.
type LockFree struct {
	m      *machine.Machine
	core   *lfCore
	levels int
	seed   uint64
	rngs   []*prng.Source // per host core, for node heights
}

// NewLockFree creates an empty lock-free skiplist with the given total
// level count (the paper configures log2 N levels).
func NewLockFree(m *machine.Machine, levels int, seed uint64) *LockFree {
	s := &LockFree{
		m:      m,
		core:   newLFCore(m.Mem.RAM, m.Mem.HostAlloc, levels),
		levels: levels,
		seed:   seed,
	}
	for i := 0; i < m.Cfg.Mem.HostCores; i++ {
		s.rngs = append(s.rngs, prng.New(seed^prng.Mix64(uint64(i)+1)))
	}
	return s
}

// Build populates the skiplist untimed (the load phase). Keys are
// deduplicated; heights are drawn deterministically from the load-phase
// seed, the structure's seed plus 1.
func (s *LockFree) Build(pairs []KV) {
	seed := s.seed + 1
	uniq := kv.SortedUnique(pairs)
	rng := prng.New(seed)
	heights := make([]int, len(uniq))
	for i := range heights {
		heights[i] = rng.GeometricHeight(s.levels)
	}
	linkSorted(s.m.Mem.RAM, s.m.Mem.HostAlloc, s.core.head, s.levels, uniq, heights, seed^0x55)
}

// Apply executes op as host thread: the read value (Read) and success.
func (s *LockFree) Apply(c *machine.Ctx, thread int, op kv.Op) (uint32, bool) {
	switch op.Kind {
	case hds.Read, hds.Update:
		node, _ := s.core.search(c, op.Key)
		if node == 0 {
			return 0, false
		}
		if op.Kind == hds.Read {
			return c.Read32(valueAddr(node)), true
		}
		c.Write32(valueAddr(node), op.Value)
		return 0, true
	case hds.Insert:
		h := s.rngs[c.Core()].GeometricHeight(s.levels)
		_, ok := s.core.insert(c, op.Key, op.Value, h, 0)
		return 0, ok
	case hds.Remove:
		_, ok := s.core.remove(c, op.Key)
		return 0, ok
	default:
		panic("skiplist: unknown op kind")
	}
}

// Dump returns the live key-value pairs in key order (untimed; for
// verification after the simulation).
func (s *LockFree) Dump() []KV { return s.core.dump(s.m.Mem.RAM) }

// CheckInvariants verifies the skiplist property (untimed).
func (s *LockFree) CheckInvariants() error { return s.core.checkInvariants(s.m.Mem.RAM) }
