package skiplist

import (
	"sort"

	"hybrids/internal/dsim/fc"
	"hybrids/internal/dsim/kv"
	"hybrids/internal/dsim/offload"
	"hybrids/internal/prng"
	"hybrids/internal/sim/machine"
)

// NMPFC is the NMP-based flat-combining skiplist of prior work [16, 44]:
// the entire structure lives in NMP-capable memory, range-partitioned, and
// host threads offload whole operations to the per-partition NMP cores.
// Every traversal starts at the partition's sentinel head.
type NMPFC struct {
	m      *machine.Machine
	part   kv.RangePartitioner
	lists  []*seqList
	rt     *offload.Runtime
	levels int
	rngs   []*prng.Source
}

// NMPFCConfig parameterizes the NMP-based skiplist.
type NMPFCConfig struct {
	// Levels is the total skiplist level count (log2 N).
	Levels int
	// KeyMax bounds the key space for range partitioning.
	KeyMax uint32
	Seed   uint64
}

// NewNMPFC creates the structure and spawns one combiner per partition.
func NewNMPFC(m *machine.Machine, cfg NMPFCConfig) *NMPFC {
	parts := m.Cfg.Mem.NMPVaults
	s := &NMPFC{
		m:      m,
		part:   kv.RangePartitioner{KeyMax: cfg.KeyMax, Parts: parts},
		rt:     offload.New(m, 1),
		levels: cfg.Levels,
	}
	for p := 0; p < parts; p++ {
		s.lists = append(s.lists, newSeqList(m.Mem.RAM, m.Mem.NMPAlloc[p], cfg.Levels))
	}
	for i := 0; i < m.Cfg.Mem.HostCores; i++ {
		s.rngs = append(s.rngs, prng.New(cfg.Seed^prng.Mix64(uint64(i)+101)))
	}
	return s
}

// Start spawns the NMP combiner daemons. Call once before Machine.Run.
func (s *NMPFC) Start() {
	for p := range s.lists {
		s.rt.Start(p, s.lists[p].handler())
	}
}

// Build populates the structure untimed.
func (s *NMPFC) Build(pairs []KV, seed uint64) {
	buildPartitioned(s.m, s.part, s.lists, s.levels, pairs, seed, nil)
}

// nmpfcAdapter plugs whole-operation offload into the shared runtime:
// no host-side pre- or post-work, and combiner responses are final (every
// traversal starts at the partition sentinel, so RETRY never occurs).
type nmpfcAdapter struct{ s *NMPFC }

func (ad nmpfcAdapter) Begin(c *machine.Ctx, op kv.Op) struct{} { return struct{}{} }

func (ad nmpfcAdapter) Prepare(c *machine.Ctx, op kv.Op, st *struct{}, attempt int, batch bool) (fc.Request, int, offload.PrepareCtl, bool) {
	s := ad.s
	req := fc.Request{Op: fc.OpFor(op.Kind), Key: op.Key, Value: op.Value}
	if op.Kind == kv.Insert {
		req.Aux = uint32(s.rngs[c.Core()].GeometricHeight(s.levels))
	}
	return req, s.part.Part(op.Key), offload.PrepareOffload, false
}

func (ad nmpfcAdapter) Finish(c *machine.Ctx, op kv.Op, st *struct{}, resp fc.Response) offload.Verdict {
	return offload.Verdict{Kind: offload.OpDone, OK: resp.Success, Value: uint64(resp.Value)}
}

// Apply implements kv.Store: the whole operation is offloaded.
func (s *NMPFC) Apply(c *machine.Ctx, thread int, op kv.Op) (uint32, bool) {
	return offload.Apply(s.rt, nmpfcAdapter{s}, c, thread, op)
}

// Dump returns live pairs across all partitions in key order (untimed).
func (s *NMPFC) Dump() []KV {
	var out []KV
	for _, l := range s.lists {
		out = append(out, l.dump(s.m.Mem.RAM)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// CheckInvariants validates every partition's skiplist property and that
// partition contents respect the key ranges (untimed).
func (s *NMPFC) CheckInvariants() error {
	for p, l := range s.lists {
		if err := l.checkInvariants(s.m.Mem.RAM); err != nil {
			return err
		}
		lo, hi := s.part.Range(p)
		for _, pair := range l.dump(s.m.Mem.RAM) {
			if pair.Key < lo || pair.Key >= hi {
				return errf("partition %d holds out-of-range key %d", p, pair.Key)
			}
		}
	}
	return nil
}

// buildPartitioned splits pairs by partition, bulk-loads each partition's
// list, and optionally reports each created node through onNode (used by
// the hybrid build to wire host shortcuts). Heights are drawn from seed
// deterministically per key.
func buildPartitioned(m *machine.Machine, part kv.RangePartitioner, lists []*seqList, levels int,
	pairs []KV, seed uint64, onNode func(p int, pair KV, height int, node uint32)) {
	uniq := kv.SortedUnique(pairs)
	rng := prng.New(seed)
	heights := make([]int, len(uniq))
	for i := range heights {
		heights[i] = rng.GeometricHeight(levels)
	}
	// Sorted keys make each partition's share one contiguous run.
	start := 0
	for p, list := range lists {
		end := start
		for end < len(uniq) && part.Part(uniq[end].Key) == p {
			end++
		}
		nodes := list.buildSorted(m.Mem.RAM, uniq[start:end], heights[start:end])
		if onNode != nil {
			for i, n := range nodes {
				onNode(p, uniq[start+i], heights[start+i], n)
			}
		}
		start = end
	}
}

var _ kv.Store = (*NMPFC)(nil)
