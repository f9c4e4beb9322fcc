package bskiplist

import (
	"fmt"

	"hybrids/internal/dsim/fc"
	"hybrids/internal/dsim/kv"
	"hybrids/internal/dsim/offload"
	"hybrids/internal/sim/machine"
)

// Hybrid is the hybrid B-skiplist: per-partition NMP-managed bottom
// levels (seqBList) under a per-partition static host router holding the
// top levels, all in fat cache-block nodes. The host side of an operation
// is a read-only descent through the router — small enough to stay
// LLC-resident, the HybriDS host-portion benefit — ending in a
// begin-NMP-traversal pointer at the boundary; everything else runs
// NMP-side through the shared offload runtime. Because NMP nodes are
// never unlinked and the router is immutable after Build, operations
// never retry and inserts never cross the boundary back to the host.
type Hybrid struct {
	m         *machine.Machine
	part      kv.RangePartitioner
	lists     []*seqBList
	rt        *offload.Runtime
	hostHeads [][]uint32 // hostHeads[p][j]: router head of host level j

	nmpLevels int
}

// Config parameterizes the hybrid B-skiplist.
type Config struct {
	// Levels is the per-partition level count (leaves plus routing
	// levels) and NMPLevels how many bottom levels live NMP-side; the
	// remaining Levels-NMPLevels top levels form the host router, sized
	// to fit the LLC.
	Levels    int
	NMPLevels int
	// KeyMax bounds the key space for range partitioning.
	KeyMax uint32
	// Window is the number of in-flight NMP calls per host thread used
	// by ApplyBatch (1 = blocking behaviour).
	Window int
}

// NewHybrid creates the structure; Build must run before Start.
func NewHybrid(m *machine.Machine, cfg Config) *Hybrid {
	if cfg.NMPLevels < 1 || cfg.NMPLevels >= cfg.Levels {
		panic("bskiplist: split must partition the structure")
	}
	t := &Hybrid{
		m:         m,
		part:      kv.RangePartitioner{KeyMax: cfg.KeyMax, Parts: m.Cfg.Mem.NMPVaults},
		rt:        offload.New(m, cfg.Window),
		nmpLevels: cfg.NMPLevels,
	}
	// Each partition's empty NMP levels, then its host router heads: one
	// single-entry fat node per host level, chained down to the NMP
	// portion's top-level head.
	ram := m.Mem.RAM
	for p := 0; p < m.Cfg.Mem.NMPVaults; p++ {
		l := newSeqBList(ram, m.Mem.NMPAlloc[p], cfg.NMPLevels)
		t.lists = append(t.lists, l)
		heads := make([]uint32, cfg.Levels-cfg.NMPLevels)
		below := l.heads[cfg.NMPLevels-1]
		for j := range heads {
			h := buildFat(ram, m.Mem.HostAlloc, 0, 1)
			ram.Store32(keyAddr(h, 0), 0)
			ram.Store32(payAddr(h, 0), below)
			heads[j] = h
			below = h
		}
		t.hostHeads = append(t.hostHeads, heads)
	}
	return t
}

// Build bulk-loads pairs (untimed): each partition's NMP levels are
// packed buildFill entries per node, then the host router levels are packed
// over the NMP portion's top-level nodes.
func (t *Hybrid) Build(pairs []KV) {
	uniq := kv.SortedUnique(pairs)
	ram := t.m.Mem.RAM
	start := 0
	for p := range t.lists {
		end := start
		for end < len(uniq) && t.part.Part(uniq[end].Key) == p {
			end++
		}
		level := t.lists[p].buildSorted(ram, uniq[start:end])
		for _, head := range t.hostHeads[p] {
			level = packLevel(ram, t.m.Mem.HostAlloc, head, level)
		}
		start = end
	}
}

// Start spawns the NMP combiner daemons. Call once before Machine.Run.
func (t *Hybrid) Start() {
	for p := range t.lists {
		t.rt.Start(p, t.lists[p].handler())
	}
}

// route performs the host-side traversal (timed): a read-only descent
// through the key's partition router yielding the begin-NMP-traversal
// node on the NMP portion's top level.
func (t *Hybrid) route(c *machine.Ctx, key uint32) (part int, begin uint32) {
	p := t.part.Part(key)
	heads := t.hostHeads[p]
	curr := heads[len(heads)-1]
	for j := len(heads) - 1; j >= 0; j-- {
		curr = walkLevel(c, curr, key)
		curr = c.Read32(payAddr(curr, entryIdx(c, curr, key)))
	}
	return p, curr
}

// bsAdapter plugs the hybrid B-skiplist into the shared offload runtime.
// Operations carry no cross-attempt state: the router descent is
// read-only and the NMP side never asks for a retry or follow-up.
type bsAdapter struct{ t *Hybrid }

func (ad bsAdapter) Begin(c *machine.Ctx, op kv.Op) struct{} { return struct{}{} }

func (ad bsAdapter) Prepare(c *machine.Ctx, op kv.Op, st *struct{}, attempt int) (fc.Request, int, offload.PrepareCtl, bool) {
	part, begin := ad.t.route(c, op.Key)
	req := fc.Request{Op: fc.OpFor(op.Kind), Key: op.Key, Value: op.Value, NMPPtr: begin}
	return req, part, offload.PrepareOffload, false
}

func (ad bsAdapter) Finish(c *machine.Ctx, op kv.Op, st *struct{}, resp fc.Response) offload.Verdict {
	return offload.Verdict{Kind: offload.OpDone, OK: resp.Success, Value: uint64(resp.Value)}
}

// Apply executes op with one blocking NMP call (§3.2).
func (t *Hybrid) Apply(c *machine.Ctx, thread int, op kv.Op) (uint32, bool) {
	return offload.Apply(t.rt, bsAdapter{t}, c, thread, op)
}

// ApplyBatch executes ops with non-blocking NMP calls (§3.5).
func (t *Hybrid) ApplyBatch(c *machine.Ctx, thread int, ops []kv.Op) int {
	return offload.ApplyBatch(t.rt, bsAdapter{t}, c, thread, ops)
}

// Dump returns live pairs across all partitions — the authoritative
// leaves — in key order (untimed): the partitions hold disjoint, ascending
// key ranges, so their concatenation is already sorted.
func (t *Hybrid) Dump() []KV {
	var out []KV
	for _, l := range t.lists {
		out = append(out, l.dump(t.m.Mem.RAM)...)
	}
	return out
}

// CheckInvariants validates every partition's NMP levels, the partition
// key ranges, and the host router: sorted fat-node chains whose boundary
// entries reference live NMP top-level nodes (untimed).
func (t *Hybrid) CheckInvariants() error {
	ram := t.m.Mem.RAM
	for p, l := range t.lists {
		if err := l.checkInvariants(ram); err != nil {
			return fmt.Errorf("partition %d: %w", p, err)
		}
		lo, hi := t.part.Range(p)
		for _, pair := range l.dump(ram) {
			if pair.Key < lo || pair.Key >= hi {
				return errf("partition %d holds out-of-range key %d", p, pair.Key)
			}
		}
		below, err := checkLevel(ram, l.heads[t.nmpLevels-1], t.nmpLevels-1, false)
		if err != nil {
			return fmt.Errorf("partition %d: %w", p, err)
		}
		for j, head := range t.hostHeads[p] {
			members := make(map[uint32]bool, len(below))
			for _, n := range below {
				members[n.addr] = true
			}
			nodes, err := checkLevel(ram, head, t.nmpLevels+j, true)
			if err != nil {
				return fmt.Errorf("partition %d router: %w", p, err)
			}
			if err := checkRouting(ram, nodes, t.nmpLevels+j, members); err != nil {
				return fmt.Errorf("partition %d router: %w", p, err)
			}
			below = nodes
		}
	}
	return nil
}

func errf(format string, args ...any) error {
	return fmt.Errorf("bskiplist: "+format, args...)
}
