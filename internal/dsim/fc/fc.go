// Package fc implements the NMP-managed portion's coordination fabric from
// §3.2 of the HybriDS paper: per-partition publication lists in NMP
// scratchpad memory, memory-mapped into the host address space.
//
// A host thread offloads an operation by burst-writing a request into its
// assigned slot and setting the slot's valid flag; the partition's NMP
// core — the flat-combining combiner for that partition — scans slots,
// executes requests one at a time against its partition, writes the
// response fields, and clears the valid flag. Host threads watch and poll
// the flags of a window of in-flight slots (non-blocking calls, §3.5; a
// blocking call is the window of one) and read each completed response.
package fc

import (
	"fmt"
	"strings"

	"hybrids/internal/hds"
	"hybrids/internal/metrics"
	"hybrids/internal/sim/engine"
	"hybrids/internal/sim/machine"
	"hybrids/internal/sim/memsys"
	"hybrids/internal/sim/trace"
)

// OpType encodes the operation field of a publication slot (§3.2 item 4).
type OpType uint32

// Operation codes. OpUnlockPath and OpResumeInsert are the hybrid B+
// tree's path-locking protocol messages (§3.4).
const (
	OpNone OpType = iota
	OpRead
	OpUpdate
	OpInsert
	OpRemove
	OpUnlockPath
	OpResumeInsert
)

// String returns the operation's short name for logs and test failures.
func (o OpType) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpUpdate:
		return "update"
	case OpInsert:
		return "insert"
	case OpRemove:
		return "remove"
	case OpUnlockPath:
		return "unlock-path"
	case OpResumeInsert:
		return "resume-insert"
	default:
		return fmt.Sprintf("op(%d)", uint32(o))
	}
}

// OpFor maps a data operation kind to its publication-slot code. The
// simulated structures serve no Scan, so any other kind panics here, on
// the calling thread, before anything is posted.
func OpFor(k hds.Kind) OpType {
	switch k {
	case hds.Read:
		return OpRead
	case hds.Update:
		return OpUpdate
	case hds.Insert:
		return OpInsert
	case hds.Remove:
		return OpRemove
	}
	panic(fmt.Sprintf("fc: no publication-slot op for kind %v", k))
}

// Request is the host-to-NMP half of a publication slot.
type Request struct {
	Op    OpType
	Key   uint32
	Value uint32
	// NMPPtr is the begin-NMP-traversal node (0: start at the partition
	// sentinel/root).
	NMPPtr uint32
	// HostPtr passes the host-side counterpart node (hybrid skiplist
	// update propagation, §3.3).
	HostPtr uint32
	// Aux carries structure-specific extra state: the new node's height
	// for skiplist inserts, the offloaded parent sequence number for the
	// hybrid B+ tree (§3.4).
	Aux uint32
}

// Response is the NMP-to-host half of a publication slot.
type Response struct {
	// Success reports the operation's return value (§3.2 result item 2).
	Success bool
	// Retry asks the host to restart the whole operation because the
	// begin-NMP-traversal node was invalidated by an earlier concurrent
	// operation (§3.2 result item 1).
	Retry bool
	// LockPath asks the host to lock its portion of the path and send
	// OpResumeInsert (hybrid B+ tree inserts whose splits reach the
	// host-NMP boundary, §3.4).
	LockPath bool
	// Value returns the read value (§3.2 result item 3).
	Value uint32
	// Ptr returns the NMP-side node created by an insert (§3.2 result
	// item 4), or auxiliary pointers for update propagation.
	Ptr uint32
}

// Slot word layout (4-byte words from the slot base).
const (
	wFlags = iota // bit0: valid
	wOp
	wKey
	wValue
	wNMPPtr
	wHostPtr
	wAux
	wRespFlags // bit0 success, bit1 retry, bit2 lockpath
	wRespValue
	wRespPtr
	slotWords
)

// SlotBytes is the scratchpad footprint of one publication slot.
const SlotBytes = 64

const validBit = 1

// Delays accumulates the offload latency decomposition reported in
// Table 2, in summed virtual cycles.
type Delays struct {
	// PostToScan: request became valid -> combiner picked it up.
	PostToScan uint64
	// Service: combiner picked it up -> response written.
	Service uint64
	// Count is the number of served requests (denominator for PostToScan
	// and Service).
	Count uint64
	// CompleteToObserve: response written -> host observed completion,
	// over ObserveCount observed completions.
	CompleteToObserve uint64
	ObserveCount      uint64
}

// DelaysFrom assembles the Table 2 delay view from a registry snapshot (or
// snapshot delta), summing the per-partition offload histograms. The sums
// are integers, so the map's order does not matter.
func DelaysFrom(s metrics.Snapshot) Delays {
	var d Delays
	for name, v := range s {
		if !strings.HasPrefix(name, "offload/p") {
			continue
		}
		switch {
		case strings.HasSuffix(name, "/post_to_scan/sum"):
			d.PostToScan += v
		case strings.HasSuffix(name, "/service/sum"):
			d.Service += v
		case strings.HasSuffix(name, "/service/count"):
			d.Count += v
		case strings.HasSuffix(name, "/observe/sum"):
			d.CompleteToObserve += v
		case strings.HasSuffix(name, "/observe/count"):
			d.ObserveCount += v
		}
	}
	return d
}

// PubList is one partition's publication list.
type PubList struct {
	m     *machine.Machine
	base  memsys.Addr
	slots int

	postedAt    []uint64
	scannedAt   []uint64
	completedAt []uint64

	// pendingCount and combiner implement the doorbell wake-up: the
	// combiner blocks when no requests are pending and a post unblocks
	// it after the doorbell signal latency.
	pendingCount int
	combiner     *engine.Actor
	// waiters[slot] is the host actor blocked on slot's completion; the
	// combiner wakes it when it writes the response (the host then pays
	// its completion poll as usual).
	waiters []*engine.Actor

	// Table 2 instrumentation: per-partition delay histograms registered
	// in the machine's metrics registry (virtual-cycle samples).
	hPostToScan metrics.Histogram
	hService    metrics.Histogram
	hObserve    metrics.Histogram
}

// NewPubList lays out a publication list with the given slot count in
// partition part's host-mapped scratchpad region. A doorbell word after
// the slots lets the combiner detect pending work with a single read
// instead of sweeping every slot; posts set their slot's doorbell bit as a
// hardware side effect of the publishing burst.
func NewPubList(m *machine.Machine, part, slots int) *PubList {
	if slots > 32 {
		panic("fc: at most 32 slots per publication list (doorbell word width)")
	}
	if need := memsys.Addr(slots*SlotBytes) + 4; need > memsys.ScratchSize {
		panic(fmt.Sprintf("fc: %d slots (%d B) exceed scratchpad (%d B)", slots, need, memsys.ScratchSize))
	}
	return &PubList{
		m:           m,
		base:        m.Mem.ScratchAddr(part),
		slots:       slots,
		postedAt:    make([]uint64, slots),
		scannedAt:   make([]uint64, slots),
		completedAt: make([]uint64, slots),
		waiters:     make([]*engine.Actor, slots),
		hPostToScan: m.Metrics.Histogram(fmt.Sprintf("offload/p%d/post_to_scan", part)),
		hService:    m.Metrics.Histogram(fmt.Sprintf("offload/p%d/service", part)),
		hObserve:    m.Metrics.Histogram(fmt.Sprintf("offload/p%d/observe", part)),
	}
}

// Slots returns the number of publication slots.
func (p *PubList) Slots() int { return p.slots }

func (p *PubList) slotAddr(slot int) memsys.Addr {
	if slot < 0 || slot >= p.slots {
		panic(fmt.Sprintf("fc: slot %d out of range [0,%d)", slot, p.slots))
	}
	return p.base + memsys.Addr(slot*SlotBytes)
}

func (p *PubList) doorbellAddr() memsys.Addr {
	return p.base + memsys.Addr(p.slots*SlotBytes)
}

// Post publishes req into slot (host side): one write-combined burst that
// makes the request fields and the valid flag visible atomically.
func (p *PubList) Post(c *machine.Ctx, slot int, req Request) {
	words := [slotWords]uint32{
		wFlags:   validBit,
		wOp:      uint32(req.Op),
		wKey:     req.Key,
		wValue:   req.Value,
		wNMPPtr:  req.NMPPtr,
		wHostPtr: req.HostPtr,
		wAux:     req.Aux,
	}
	c.MMIOWriteBurst(p.slotAddr(slot), words[:wRespFlags])
	// The doorbell bit is raised by the same posted burst (a hardware
	// side effect, so no additional latency and an atomic data effect).
	ram := p.m.Mem.RAM
	ram.Store32(p.doorbellAddr(), ram.Load32(p.doorbellAddr())|1<<uint(slot))
	p.postedAt[slot] = c.Now()
	p.pendingCount++
	c.TraceSpan(trace.KindOffloadPost, c.Now(), 0, uint32(slot)) // zero length: an instant
	if p.combiner != nil {
		c.A.Unblock(p.combiner, doorbellWake)
	}
}

// doorbellWake is the doorbell signal latency that wakes an idle NMP core.
const doorbellWake = 4

// Done polls slot's valid flag once (host side) and reports whether the
// combiner has completed the request. The first poll that observes a
// completion also closes the observability books for the round trip: it
// records the host-side offload span (post to observe) on the caller's
// trace track and reclassifies the request's publication-queue delay
// (post to combiner pickup) from the offload-wait attribution bucket into
// NMP-serialization.
func (p *PubList) Done(c *machine.Ctx, slot int) bool {
	var flags [1]uint32
	c.MMIOReadBurst(p.slotAddr(slot), flags[:])
	done := flags[0]&validBit == 0
	if done && p.completedAt[slot] != 0 {
		p.hObserve.Observe(c.Now() - p.completedAt[slot])
		p.completedAt[slot] = 0
		c.TraceSpan(trace.KindOffloadCall, p.postedAt[slot], c.Now()-p.postedAt[slot], uint32(slot))
		c.AttrMove(trace.BucketOffloadWait, trace.BucketNMPSerial, p.scannedAt[slot]-p.postedAt[slot])
	}
	return done
}

// ReadResponse fetches the response fields of a completed slot (host side).
func (p *PubList) ReadResponse(c *machine.Ctx, slot int) Response {
	var ws [3]uint32
	c.MMIOReadBurst(p.slotAddr(slot)+memsys.Addr(wRespFlags*4), ws[:])
	return Response{
		Success:  ws[0]&1 != 0,
		Retry:    ws[0]&2 != 0,
		LockPath: ws[0]&4 != 0,
		Value:    ws[1],
		Ptr:      ws[2],
	}
}

// serve executes slot's request, if the slot holds one (NMP side), and
// reports whether it did: read the request, run handle, write the response
// fields, clear the valid flag last and wake the slot's watcher. Once the
// flag reads set, the slot and the partition are the combiner's alone until
// it clears the flag: no host writes a valid slot or reads its response
// first, and no other core reaches the partition (memsys.NMPAccess panics).
// So everything between the two flag accesses runs in a run-ahead section
// (engine.BeginRunAhead, DESIGN §5.1), the one section this repository opens.
func (p *PubList) serve(c *machine.Ctx, slot int, handle Handler) bool {
	a := p.slotAddr(slot)
	if c.Read32(a)&validBit == 0 {
		return false
	}
	c.A.BeginRunAhead()
	p.scannedAt[slot] = c.Now()
	p.hPostToScan.Observe(c.Now() - p.postedAt[slot])
	resp := handle(c, slot, Request{
		Op:      OpType(c.Read32(a + wOp*4)),
		Key:     c.Read32(a + wKey*4),
		Value:   c.Read32(a + wValue*4),
		NMPPtr:  c.Read32(a + wNMPPtr*4),
		HostPtr: c.Read32(a + wHostPtr*4),
		Aux:     c.Read32(a + wAux*4),
	})
	var flags uint32
	if resp.Success {
		flags |= 1
	}
	if resp.Retry {
		flags |= 2
	}
	if resp.LockPath {
		flags |= 4
	}
	c.Write32(a+wRespFlags*4, flags)
	c.Write32(a+wRespValue*4, resp.Value)
	c.Write32(a+wRespPtr*4, resp.Ptr)
	c.A.EndRunAhead()
	c.Write32(a, 0)
	p.pendingCount--
	p.completedAt[slot] = c.Now()
	p.hService.Observe(c.Now() - p.scannedAt[slot])
	c.TraceSpan(trace.KindOffloadServe, p.scannedAt[slot], c.Now()-p.scannedAt[slot], uint32(slot))
	if w := p.waiters[slot]; w != nil {
		p.waiters[slot] = nil
		c.A.Unblock(w, 0)
	}
	return true
}

// Watch registers the calling host actor to be woken when slot completes.
// Registration is Go-side bookkeeping (the hardware analogue is the host
// thread's monitor/mwait on the slot's flag word).
//
// Watch is idempotent, as offload's in-flight window requires: waiters
// holds at most one actor per slot, so the re-registration the window's
// harvest performs on every in-flight slot before each park round
// overwrites the same entry instead of accumulating waiter state. Wake
// permits cannot accumulate either — a completion observed while the
// watcher is awake records a single engine wake permit (a flag, not a
// count), consumed by the watcher's next Block, whose surrounding poll
// loop tolerates the early return.
func (p *PubList) Watch(c *machine.Ctx, slot int) {
	p.waiters[slot] = c.A
}

// Handler executes one offloaded request against the NMP-managed portion
// of a data structure and produces its response. It runs on the partition's
// NMP core context.
type Handler func(c *machine.Ctx, slot int, req Request) Response

// Serve runs the flat-combining combiner loop on an NMP core context:
// poll the doorbell, execute pending requests one at a time in slot order,
// and park briefly when nothing is pending. Returns when the simulation is
// stopping.
func Serve(c *machine.Ctx, p *PubList, handle Handler) {
	ram := p.m.Mem.RAM
	p.combiner = c.A
	for !c.A.Stopping() {
		if p.pendingCount == 0 {
			// Nothing pending anywhere: wait on the doorbell
			// (monitor/mwait), woken by the next post.
			c.A.Block()
			continue
		}
		bits := c.Read32(p.doorbellAddr())
		if bits == 0 {
			c.Step(8) // signalled but burst not yet visible; re-poll
			continue
		}
		winStart := c.Now()
		var served uint32
		for slot := 0; slot < p.slots; slot++ {
			if bits&(1<<uint(slot)) == 0 {
				continue
			}
			// Acknowledge the doorbell before serving so a re-post
			// after completion re-raises it.
			c.Step(2)
			ram.Store32(p.doorbellAddr(), ram.Load32(p.doorbellAddr())&^(1<<uint(slot)))
			if p.serve(c, slot, handle) {
				served++
			}
		}
		if served > 0 {
			c.TraceSpan(trace.KindCombine, winStart, c.Now()-winStart, served)
		}
	}
}
