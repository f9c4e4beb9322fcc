package skiplist

import (
	"hybrids/internal/dsim/fc"
	"hybrids/internal/dsim/kv"
	"hybrids/internal/dsim/offload"
	"hybrids/internal/hds"
	"hybrids/internal/prng"
	"hybrids/internal/sim/machine"
)

// Hybrid is the paper's hybrid skiplist (§3.3): nodes taller than the
// host-NMP split keep their top levels in a host-managed lock-free
// skiplist whose bottom-level nodes hold shortcuts (begin-NMP-traversal
// pointers) into per-partition NMP-managed skiplists holding the bottom
// levels of every key.
//
// Insertions are applied NMP-side first and host-side second; removals
// host-side first and NMP-side second, preserving the skiplist property
// across the boundary. The NMP combiner detects begin-traversal nodes that
// were logically deleted by operations it served earlier and asks the host
// to retry (§3.2).
//
// With NMPLevels == Levels every level is NMP-side and the host portion
// is empty: that far end of the split is the NMP-based flat-combining
// skiplist of prior work [16, 44], whose host threads offload whole
// operations that start at the partition sentinel.
//
// One deliberate deviation from Listings 1-2: host-managed nodes carry no
// authoritative value, so reads and updates always complete NMP-side. The
// paper lets reads complete host-side and patches host copies on update
// via the returned host_ptr; that protocol admits a stale-host-copy window
// around racing insert/remove pairs, and offloading reads is the
// conservative choice with identical memory-traffic shape.
type Hybrid struct {
	m     *machine.Machine
	host  *lfCore
	part  kv.RangePartitioner
	lists []*seqList
	rt    *offload.Runtime

	levels    int // full skiplist height
	nmpLevels int // bottom levels NMP-side
	seed      uint64
	rngs      []*prng.Source
}

// HybridConfig parameterizes the hybrid skiplist.
type HybridConfig struct {
	// Levels is the full skiplist height (log2 N) and NMPLevels how many
	// bottom levels live NMP-side; the remaining Levels-NMPLevels top
	// levels form the host-managed portion, sized so that it fits the
	// LLC (§3.3).
	Levels    int
	NMPLevels int
	// KeyMax bounds the key space for range partitioning.
	KeyMax uint32
	// Window is the number of in-flight NMP calls per host thread used
	// by ApplyBatch (1 = blocking behaviour). Publication lists are
	// sized as hostCores*Window slots.
	Window int
	// Seed feeds the insert heights; Build draws its heights from Seed+1.
	Seed uint64
}

// NewHybrid creates the structure; call Start to spawn the NMP combiners.
func NewHybrid(m *machine.Machine, cfg HybridConfig) *Hybrid {
	if cfg.NMPLevels < 1 || cfg.NMPLevels > cfg.Levels {
		panic("skiplist: split needs 1..Levels NMP levels")
	}
	s := &Hybrid{
		m:         m,
		part:      kv.RangePartitioner{KeyMax: cfg.KeyMax, Parts: m.Cfg.Mem.NMPVaults},
		rt:        offload.New(m, cfg.Window),
		levels:    cfg.Levels,
		nmpLevels: cfg.NMPLevels,
		seed:      cfg.Seed,
	}
	s.host = newLFCore(m.Mem.RAM, m.Mem.HostAlloc, cfg.Levels-cfg.NMPLevels)
	for p := 0; p < m.Cfg.Mem.NMPVaults; p++ {
		s.lists = append(s.lists, newSeqList(m.Mem.RAM, m.Mem.NMPAlloc[p], cfg.NMPLevels))
	}
	offset := uint64(211)
	if cfg.NMPLevels == cfg.Levels {
		offset = 101 // the NMP-based baseline's insert-height streams
	}
	for i := 0; i < m.Cfg.Mem.HostCores; i++ {
		s.rngs = append(s.rngs, prng.New(cfg.Seed^prng.Mix64(uint64(i)+offset)))
	}
	return s
}

// Start spawns the NMP combiner daemons. Call once before Machine.Run.
func (s *Hybrid) Start() {
	for p := range s.lists {
		s.rt.Start(p, s.lists[p].handler())
	}
}

// Build populates the structure untimed: NMP portions are bulk-loaded per
// partition; keys whose height crosses the split get a host node holding
// the excess levels and a shortcut to the NMP counterpart. Heights come
// from the load-phase seed, the structure's seed plus 1.
func (s *Hybrid) Build(pairs []KV) {
	ram := s.m.Mem.RAM
	seed := s.seed + 1
	// Collect the tall keys in key order first (partitions are visited in
	// ascending key-range order), then allocate their host nodes in
	// shuffled order and link them.
	type tall struct {
		pair    KV
		hh      int
		nmpNode uint32
	}
	var talls []tall
	buildPartitioned(s.m, s.part, s.lists, s.levels, pairs, seed,
		func(p int, pair KV, height int, nmpNode uint32) {
			if height <= s.nmpLevels {
				return
			}
			talls = append(talls, tall{pair: pair, hh: height - s.nmpLevels, nmpNode: nmpNode})
		})
	heights := make([]int, len(talls))
	for i, t := range talls {
		heights[i] = t.hh
	}
	addrs := shuffledNodeAlloc(s.m.Mem.HostAlloc, heights, seed^0x405)
	tails := make([]uint32, s.levels-s.nmpLevels)
	for l := range tails {
		tails[l] = s.host.head
	}
	for i, t := range talls {
		hostNode := addrs[i]
		initNode(ram, hostNode, t.pair.Key, t.pair.Value, t.hh, t.nmpNode)
		ram.Store32(auxAddr(t.nmpNode), hostNode)
		for l := 0; l < t.hh; l++ {
			ram.Store32(nextAddr(hostNode, l), ram.Load32(nextAddr(tails[l], l)))
			ram.Store32(nextAddr(tails[l], l), hostNode)
			tails[l] = hostNode
		}
	}
}

// buildPartitioned splits pairs by partition, bulk-loads each partition's
// list, and reports each created node through onNode (the hybrid build
// wires host shortcuts there). Heights are drawn from seed
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
		for i, n := range nodes {
			onNode(p, uniq[start+i], heights[start+i], n)
		}
		start = end
	}
}

// shortcut performs the host-side traversal and derives the operation's
// begin-NMP-traversal pointer (Listing 1 lines 7, 14-15): the host-level
// bottom predecessor's NMP counterpart, provided the predecessor falls in
// the target partition.
func (s *Hybrid) shortcut(c *machine.Ctx, key uint32, p int) (hostNode, pred, begin uint32) {
	if s.nmpLevels == s.levels {
		return 0, s.host.head, 0 // no host levels: searching would read address 0
	}
	hostNode, pred = s.host.search(c, key)
	if pred != s.host.head && s.part.Part(c.Read32(keyAddr(pred))) == p {
		begin = c.Read32(auxAddr(pred))
	}
	return hostNode, pred, begin
}

// request builds the NMP request for op, performing the host-side
// pre-work: traversal, shortcut derivation, host-side removal ordering,
// and host-node pre-allocation for inserts. It may complete the operation
// host-side (done=true) when a remove loses its host-side race.
func (s *Hybrid) request(c *machine.Ctx, op kv.Op, hostNode uint32, height int) (req fc.Request, pred uint32, done, ok bool) {
	p := s.part.Part(op.Key)
	found, pred, begin := s.shortcut(c, op.Key, p)
	req = fc.Request{Op: fc.OpFor(op.Kind), Key: op.Key, Value: op.Value, NMPPtr: begin}
	switch op.Kind {
	case hds.Insert:
		req.Aux = uint32(height)
		req.HostPtr = hostNode
	case hds.Remove:
		if found != 0 {
			// §3.3: removals apply host-side first, NMP-side second.
			if !s.host.removeNode(c, found, op.Key) {
				// A concurrent remover won the host-side race and
				// owns the NMP-side removal.
				return req, pred, true, false
			}
		}
	}
	return req, pred, false, false
}

// finish performs the host-side post-work for a completed NMP response
// (the caller has already routed RETRY responses back through Prepare).
func (s *Hybrid) finish(c *machine.Ctx, op kv.Op, hostNode uint32, resp fc.Response) (value uint32, ok bool) {
	switch op.Kind {
	case hds.Read:
		return resp.Value, resp.Success
	case hds.Update, hds.Remove:
		return 0, resp.Success
	case hds.Insert:
		if !resp.Success {
			return 0, false // key already present
		}
		if hostNode != 0 {
			// §3.3: link the host levels after the NMP link (the
			// linearization point) succeeded.
			c.Write32(auxAddr(hostNode), resp.Ptr)
			hh := int(c.Read32(heightAddr(hostNode)))
			s.host.linkNode(c, hostNode, op.Key, hh)
		}
		return 0, true
	default:
		panic("skiplist: unknown op kind")
	}
}

// cleanupStaleShortcut unlinks a host node whose NMP counterpart the
// combiner reported as logically deleted, so retries cannot loop on the
// same dead begin-traversal pointer.
func (s *Hybrid) cleanupStaleShortcut(c *machine.Ctx, pred uint32) {
	if pred == 0 || pred == s.host.head {
		return
	}
	s.host.removeNode(c, pred, c.Read32(keyAddr(pred)))
}

// prepareInsert draws the height and pre-allocates the host-side node when
// the height crosses the split (Listing 1 lines 10-13).
func (s *Hybrid) prepareInsert(c *machine.Ctx, op kv.Op) (hostNode uint32, height int) {
	height = s.rngs[c.Core()].GeometricHeight(s.levels)
	if height > s.nmpLevels {
		hostNode = newNode(c, s.m.Mem.HostAlloc, op.Key, op.Value, height-s.nmpLevels, 0)
	}
	return hostNode, height
}

// slState carries one operation's host-side state across the offload
// runtime's retry loop: the pre-allocated host node for tall inserts and
// the predecessor whose shortcut a RETRY response proves stale.
type slState struct {
	hostNode uint32
	height   int
	pred     uint32
}

// slAdapter plugs the hybrid skiplist protocol (§3.3) into the shared
// offload runtime.
type slAdapter struct{ s *Hybrid }

func (ad slAdapter) Begin(c *machine.Ctx, op kv.Op) slState {
	var st slState
	if op.Kind == hds.Insert {
		st.hostNode, st.height = ad.s.prepareInsert(c, op)
	}
	return st
}

func (ad slAdapter) Prepare(c *machine.Ctx, op kv.Op, st *slState, attempt int) (fc.Request, int, offload.PrepareCtl, bool) {
	req, pred, done, ok := ad.s.request(c, op, st.hostNode, st.height)
	st.pred = pred
	if done {
		return fc.Request{}, 0, offload.PrepareLocal, ok
	}
	return req, ad.s.part.Part(op.Key), offload.PrepareOffload, false
}

func (ad slAdapter) Finish(c *machine.Ctx, op kv.Op, st *slState, resp fc.Response) offload.Verdict {
	if resp.Retry {
		ad.s.cleanupStaleShortcut(c, st.pred)
		return offload.Verdict{Kind: offload.OpRetry}
	}
	value, ok := ad.s.finish(c, op, st.hostNode, resp)
	return offload.Verdict{Kind: offload.OpDone, OK: ok, Value: uint64(value)}
}

// Apply executes op with one blocking NMP call (§3.2).
func (s *Hybrid) Apply(c *machine.Ctx, thread int, op kv.Op) (uint32, bool) {
	return offload.Apply(s.rt, slAdapter{s}, c, thread, op)
}

// ApplyBatch executes ops with non-blocking NMP calls (§3.5), up to the
// configured window of operations in flight per thread.
func (s *Hybrid) ApplyBatch(c *machine.Ctx, thread int, ops []kv.Op) int {
	return offload.ApplyBatch(s.rt, slAdapter{s}, c, thread, ops)
}

// Dump returns live pairs across all NMP partitions — the authoritative
// bottom level — in key order (untimed): the partitions hold disjoint,
// ascending key ranges, so their concatenation is already sorted.
func (s *Hybrid) Dump() []KV {
	var out []KV
	for _, l := range s.lists {
		out = append(out, l.dump(s.m.Mem.RAM)...)
	}
	return out
}

// CheckInvariants validates the host portion's skiplist property, each
// partition's skiplist property and key ranges, and the cross-boundary
// consistency: every live (unmarked) host node's shortcut must reference
// an NMP node with the same key. A host node whose NMP counterpart is
// logically deleted is a stale shortcut; those are permitted only when
// marked host-side or not yet cleaned — they are counted, not failed,
// as long as the authoritative NMP level does not contain the key. At the
// all-NMP end only the partitions are checked.
func (s *Hybrid) CheckInvariants() error {
	ram := s.m.Mem.RAM
	for p, l := range s.lists {
		if err := l.checkInvariants(ram); err != nil {
			return err
		}
		lo, hi := s.part.Range(p)
		for _, pair := range l.dump(ram) {
			if pair.Key < lo || pair.Key >= hi {
				return errf("partition %d holds out-of-range key %d", p, pair.Key)
			}
		}
	}
	if s.nmpLevels == s.levels {
		return nil // a height-0 head has no next[0]: a walk would never reach the tail
	}
	if err := s.host.checkInvariants(ram); err != nil {
		return err
	}
	// Cross-boundary: walk live host nodes.
	n := ref(ram.Load32(nextAddr(s.host.head, 0)))
	for n != s.host.tail {
		if !marked(ram.Load32(nextAddr(n, 0))) {
			key := ram.Load32(keyAddr(n))
			nmp := ram.Load32(auxAddr(n))
			if nmp == 0 {
				return errf("live host node key=%d has no NMP shortcut", key)
			}
			if got := ram.Load32(keyAddr(nmp)); got != key {
				return errf("host node key=%d shortcut points at NMP key=%d", key, got)
			}
		}
		n = ref(ram.Load32(nextAddr(n, 0)))
	}
	return nil
}
