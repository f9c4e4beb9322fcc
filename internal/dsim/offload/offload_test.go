package offload

import (
	"slices"
	"strings"
	"testing"

	"hybrids/internal/dsim/fc"
	"hybrids/internal/dsim/kv"
	"hybrids/internal/hds"
	"hybrids/internal/sim/machine"
	"hybrids/internal/sim/memsys"
)

func testMachine() *machine.Machine {
	cfg := machine.Default()
	cfg.Mem.HostMemSize = 16 << 20
	cfg.Mem.NMPMemSize = 16 << 20
	cfg.Mem.L2Size = 64 << 10
	cfg.Mem.L1Size = 8 << 10
	cfg.Mem.TLBEntries = 0 // exact-latency tests assume perfect translation
	return machine.New(cfg)
}

// echoHandler returns key+value as the response value.
func echoHandler(c *machine.Ctx, slot int, req fc.Request) fc.Response {
	c.Step(20) // pretend to do some work
	return fc.Response{Success: true, Value: req.Key + req.Value, Ptr: req.NMPPtr}
}

// --- Window ---------------------------------------------------------------

// tagged is a window operation for partition part whose state is a test
// tag, so a harvested operation names itself.
func tagged(part, tag int) *inflight[int] { return &inflight[int]{part: part, st: tag} }

// servedLists lays out parts publication lists of slots slots each and
// starts a combiner running handle on every one.
func servedLists(m *machine.Machine, parts, slots int, handle fc.Handler) []*fc.PubList {
	lists := make([]*fc.PubList, parts)
	for i := range lists {
		pl := fc.NewPubList(m, i, slots)
		m.SpawnNMP(i, func(c *machine.Ctx) { fc.Serve(c, pl, handle) })
		lists[i] = pl
	}
	return lists
}

// expectPanic runs fn and reports the panic value, failing if there is
// none.
func expectPanic(t *testing.T, name string, fn func()) (r any) {
	t.Helper()
	defer func() {
		if r = recover(); r == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	fn()
	return
}

func TestWindowNonBlockingCompletesAll(t *testing.T) {
	m := testMachine()
	const parts = 4
	lists := servedLists(m, parts, 8, echoHandler)
	const total = 40
	var done int
	sum := uint32(0)
	m.SpawnHost(0, "h", func(c *machine.Ctx) {
		w := openWindow[int](lists, 0, 4)
		issued := 0
		for done < total {
			if issued < total && !w.full() {
				w.post(c, tagged(issued%parts, issued), fc.Request{Op: fc.OpRead, Key: uint32(issued)})
				issued++
				continue
			}
			_, resp, _ := w.harvest(c)
			sum += resp.Value
			done++
		}
	})
	m.Run()
	if done != total {
		t.Fatalf("completed %d/%d", done, total)
	}
	want := uint32(total * (total - 1) / 2)
	if sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
}

func TestWindowTagsMatchResponses(t *testing.T) {
	m := testMachine()
	lists := servedLists(m, 1, 8, echoHandler)
	m.SpawnHost(0, "h", func(c *machine.Ctx) {
		w := openWindow[int](lists, 0, 2)
		w.post(c, tagged(0, 100), fc.Request{Op: fc.OpRead, Key: 100})
		w.post(c, tagged(0, 200), fc.Request{Op: fc.OpRead, Key: 200})
		for !w.empty() {
			a, resp, _ := w.harvest(c)
			if resp.Value != uint32(a.st) {
				t.Errorf("operation tagged %d harvested value %d", a.st, resp.Value)
			}
		}
	})
	m.Run()
}

// TestWindowPostHarvestRoundTrip follows one operation through a fresh
// window: it takes the first position and its slot, and harvest returns
// the same operation, its response and its position, emptying the window.
func TestWindowPostHarvestRoundTrip(t *testing.T) {
	m := testMachine()
	lists := servedLists(m, 1, 8, echoHandler)
	m.SpawnHost(0, "h", func(c *machine.Ctx) {
		w := openWindow[int](lists, 1, 4)
		if !w.empty() || w.full() {
			t.Errorf("fresh window: empty=%v full=%v", w.empty(), w.full())
		}
		op := tagged(0, 7)
		w.post(c, op, fc.Request{Op: fc.OpRead, Key: 7, Value: 1000})
		if w.ops[0] != op || w.count != 1 {
			t.Errorf("first post: ops[0]=%v count=%d, want the operation at position 0", w.ops[0], w.count)
		}
		a, resp, pos := w.harvest(c)
		if a != op || resp.Value != 1007 || pos != 0 {
			t.Errorf("harvest = (%v, %d, %d), want (%v, 1007, 0)", a, resp.Value, pos, op)
		}
		if !w.empty() {
			t.Error("window not empty after harvest")
		}
	})
	m.Run()
}

func TestWindowPostFullPanics(t *testing.T) {
	m := testMachine()
	lists := servedLists(m, 1, 8, func(c *machine.Ctx, slot int, req fc.Request) fc.Response {
		c.Step(1_000)
		return fc.Response{}
	})
	m.SpawnHost(0, "h", func(c *machine.Ctx) {
		w := openWindow[int](lists, 0, 1)
		w.post(c, tagged(0, 0), fc.Request{Op: fc.OpRead})
		expectPanic(t, "post on full window", func() { w.post(c, tagged(0, 1), fc.Request{Op: fc.OpRead}) })
	})
	m.Run()
}

// TestWindowPanics covers the window's other misuse panics against real
// publication lists: a thread whose window overflows the lists' slots,
// harvest on an empty window, and postAt on an occupied position.
func TestWindowPanics(t *testing.T) {
	m := testMachine()
	lists := servedLists(m, 1, 4, echoHandler)
	expectPanic(t, "slot overflow", func() { openWindow[int](lists, 1, 4) })
	m.SpawnHost(0, "h", func(c *machine.Ctx) {
		w := openWindow[int](lists, 0, 2)
		expectPanic(t, "harvest on empty", func() { w.harvest(c) })
		w.post(c, tagged(0, 0), fc.Request{Op: fc.OpRead})
		expectPanic(t, "postAt occupied", func() { w.postAt(c, 0, tagged(0, 1), fc.Request{Op: fc.OpRead}) })
		w.harvest(c)
	})
	m.Run()
}

// TestWindowPostDesyncDiagnostic corrupts the count/ops invariant the way
// a hypothetical bookkeeping bug would and checks that post fails with
// the explicit desync diagnostic instead of an opaque index-out-of-range
// from postAt.
func TestWindowPostDesyncDiagnostic(t *testing.T) {
	m := testMachine()
	lists := servedLists(m, 1, 4, func(c *machine.Ctx, slot int, req fc.Request) fc.Response {
		c.Step(1_000)
		return fc.Response{}
	})
	m.SpawnHost(0, "h", func(c *machine.Ctx) {
		w := openWindow[int](lists, 0, 2)
		w.post(c, tagged(0, 1), fc.Request{Op: fc.OpRead})
		w.post(c, tagged(0, 2), fc.Request{Op: fc.OpRead})
		// Desync: every position is occupied but count claims one is free.
		w.count--
		r := expectPanic(t, "post on desynced window", func() { w.post(c, tagged(0, 3), fc.Request{Op: fc.OpRead}) })
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "window accounting desync") {
			t.Errorf("panic = %v, want the desync diagnostic", r)
		}
	})
	m.Run()
}

// TestWindowHarvestOrderingRoundRobin fills the window against one
// combiner: the combiner serves slots in scan order, and the harvest
// cursor advances round-robin, so completions must come back in posting
// order.
func TestWindowHarvestOrderingRoundRobin(t *testing.T) {
	m := testMachine()
	lists := servedLists(m, 1, 8, echoHandler)
	var order []int
	m.SpawnHost(0, "h", func(c *machine.Ctx) {
		w := openWindow[int](lists, 0, 4)
		for i := 0; i < 4; i++ {
			w.post(c, tagged(0, i), fc.Request{Op: fc.OpRead, Key: uint32(i)})
		}
		if !w.full() {
			t.Error("window not full after 4 posts")
		}
		for !w.empty() {
			a, _, _ := w.harvest(c)
			order = append(order, a.st)
		}
	})
	m.Run()
	for i, got := range order {
		if got != i {
			t.Fatalf("harvest order = %v, want 0..3 in order", order)
		}
	}
}

// TestWindowRoundRobinCursor checks that harvest polls from the cursor,
// not from the lowest position: after position 0 is harvested and
// refilled, and every operation has completed, the harvest order is
// 1, 2, 3 and then the refilled position 0.
func TestWindowRoundRobinCursor(t *testing.T) {
	m := testMachine()
	lists := servedLists(m, 1, 8, echoHandler)
	var order []int
	m.SpawnHost(0, "h", func(c *machine.Ctx) {
		w := openWindow[int](lists, 0, 4)
		for i := 0; i < 4; i++ {
			w.post(c, tagged(0, i), fc.Request{Op: fc.OpRead, Key: uint32(i)})
		}
		c.Step(100_000) // every operation completes before the first poll
		if a, _, pos := w.harvest(c); a.st != 0 || pos != 0 {
			t.Errorf("first harvest = tag %d at %d, want tag 0 at 0", a.st, pos)
		}
		w.post(c, tagged(0, 4), fc.Request{Op: fc.OpRead, Key: 4})
		c.Step(100_000)
		for !w.empty() {
			a, _, _ := w.harvest(c)
			order = append(order, a.st)
		}
	})
	m.Run()
	if want := []int{1, 2, 3, 4}; !slices.Equal(order, want) {
		t.Fatalf("harvest order = %v, want %v", order, want)
	}
}

// TestWindowPostAtKeepsSlot harvests an operation from partition 0 and
// posts its follow-up at the same window position to partition 1: the
// follow-up must land on the same publication slot, thread*k+pos.
func TestWindowPostAtKeepsSlot(t *testing.T) {
	m := testMachine()
	slots := map[int][]int{}
	lists := servedLists(m, 2, 8, func(c *machine.Ctx, slot int, req fc.Request) fc.Response {
		slots[int(req.Key)] = append(slots[int(req.Key)], slot)
		return fc.Response{Success: true}
	})
	m.SpawnHost(0, "h", func(c *machine.Ctx) {
		w := openWindow[int](lists, 1, 2)
		op := tagged(0, 0)
		w.post(c, op, fc.Request{Op: fc.OpRead, Key: 0})
		_, _, pos := w.harvest(c)
		op.part = 1
		w.postAt(c, pos, op, fc.Request{Op: fc.OpRead, Key: 1})
		if a, _, hpos := w.harvest(c); a != op || hpos != pos {
			t.Errorf("follow-up harvested at %d, want %d", hpos, pos)
		}
	})
	m.Run()
	if want := 1*2 + 0; len(slots[0]) != 1 || slots[0][0] != want || len(slots[1]) != 1 || slots[1][0] != want {
		t.Fatalf("slots served per partition = %v, want slot %d on both", slots, want)
	}
}

// TestWindowHarvestParksUntilCompletion pins that harvest registers
// watchers before it parks: against a combiner far slower than a poll,
// the thread parks after one poll round and only a watched completion can
// wake it, so the harvest returns after the service time having made a
// handful of MMIO polls rather than one per poll latency.
func TestWindowHarvestParksUntilCompletion(t *testing.T) {
	const service = 50_000
	m := testMachine()
	lists := servedLists(m, 1, 8, func(c *machine.Ctx, slot int, req fc.Request) fc.Response {
		c.Step(service)
		return fc.Response{Success: true, Value: req.Key}
	})
	var got []int
	var elapsed, polls uint64
	m.SpawnHost(0, "h", func(c *machine.Ctx) {
		w := openWindow[int](lists, 0, 2)
		w.post(c, tagged(0, 10), fc.Request{Op: fc.OpRead, Key: 10})
		w.post(c, tagged(0, 11), fc.Request{Op: fc.OpRead, Key: 11})
		mmio, _ := m.Metrics.LookupCounter(memsys.MetricMMIOReads)
		start, reads := c.Now(), mmio.Value()
		for !w.empty() {
			a, _, _ := w.harvest(c)
			got = append(got, a.st)
		}
		elapsed, polls = c.Now()-start, mmio.Value()-reads
	})
	m.Run()
	if !slices.Equal(got, []int{10, 11}) {
		t.Fatalf("harvested %v, want [10 11]", got)
	}
	if elapsed < 2*service {
		t.Errorf("harvests took %d cycles, want at least two services (%d)", elapsed, 2*service)
	}
	if polls > 10 {
		t.Errorf("harvests made %d MMIO reads over %d cycles, want a few: the thread should park, not poll", polls, elapsed)
	}
}

// TestWatchReRegistrationAcrossParkRounds pins the fc.PubList.Watch
// idempotency the window relies on: every park round re-calls Watch on
// all in-flight slots, so repeated registrations by the same host actor
// must not accumulate waiter entries or wake permits. The slow combiner
// forces each of the two completions into its own park round (two full
// register-poll-park cycles over the same slots), and the trailing
// blocking call (one operation in the window) proves that any wake permit
// left by completions observed while the host was awake cannot corrupt a
// later monitored wait.
func TestWatchReRegistrationAcrossParkRounds(t *testing.T) {
	m := testMachine()
	p := fc.NewPubList(m, 0, 8)
	m.SpawnNMP(0, func(c *machine.Ctx) {
		fc.Serve(c, p, func(c *machine.Ctx, slot int, req fc.Request) fc.Response {
			c.Step(5000) // slow service: one completion per park round
			return fc.Response{Success: true, Value: req.Key + 1}
		})
	})
	var harvested []uint32
	var tail fc.Response
	m.SpawnHost(0, "h", func(c *machine.Ctx) {
		w := openWindow[int]([]*fc.PubList{p}, 0, 2)
		w.post(c, tagged(0, 0), fc.Request{Op: fc.OpRead, Key: 10})
		w.post(c, tagged(0, 0), fc.Request{Op: fc.OpRead, Key: 20})
		for !w.empty() {
			_, resp, _ := w.harvest(c)
			harvested = append(harvested, resp.Value)
		}
		// Busy-completion scenario: both ops complete while the host is
		// stepping, so their Unblocks land as (collapsed) wake permits
		// rather than real wakes.
		w.post(c, tagged(0, 0), fc.Request{Op: fc.OpRead, Key: 30})
		w.post(c, tagged(0, 0), fc.Request{Op: fc.OpRead, Key: 40})
		c.Step(40_000)
		for !w.empty() {
			_, resp, _ := w.harvest(c)
			harvested = append(harvested, resp.Value)
		}
		// A stale permit at most makes the blocking call's first Block
		// return early; its poll loop must still park and complete
		// exactly once.
		w.post(c, tagged(0, 0), fc.Request{Op: fc.OpRead, Key: 50})
		_, tail, _ = w.harvest(c)
	})
	m.Run()
	if want := []uint32{11, 21, 31, 41}; !slices.Equal(harvested, want) {
		t.Fatalf("harvested = %v, want %v", harvested, want)
	}
	if !tail.Success || tail.Value != 51 {
		t.Fatalf("trailing blocking call = %+v, want Success value 51", tail)
	}
	if got := fc.DelaysFrom(m.Metrics.Snapshot()).Count; got != 5 {
		t.Fatalf("served count = %d, want 5 (no request served twice)", got)
	}
}

// --- Runtime --------------------------------------------------------------

// testAdapter offloads every operation unchanged and treats responses as
// final unless the combiner asked for a retry.
type testAdapter struct{ parts int }

func (testAdapter) Begin(c *machine.Ctx, op kv.Op) int { return 0 }

func (a testAdapter) Prepare(c *machine.Ctx, op kv.Op, st *int, attempt int) (fc.Request, int, PrepareCtl, bool) {
	return fc.Request{Op: fc.OpRead, Key: op.Key, Value: op.Value}, int(op.Key) % a.parts, PrepareOffload, false
}

func (a testAdapter) Finish(c *machine.Ctx, op kv.Op, st *int, resp fc.Response) Verdict {
	if resp.Retry {
		return Verdict{Kind: OpRetry}
	}
	return Verdict{Kind: OpDone, OK: resp.Success, Value: uint64(resp.Value)}
}

// retryOnceRuntime starts combiners that answer RETRY to the first request
// for each key and succeed afterwards with value key+1.
func retryOnceRuntime(m *machine.Machine, window int) *Runtime {
	rt := New(m, window)
	for p := 0; p < len(rt.pubs); p++ {
		seen := map[uint32]bool{}
		rt.Start(p, func(c *machine.Ctx, slot int, req fc.Request) fc.Response {
			c.Step(10)
			if !seen[req.Key] {
				seen[req.Key] = true
				return fc.Response{Retry: true}
			}
			return fc.Response{Success: true, Value: req.Key + 1}
		})
	}
	return rt
}

func TestRuntimeApplyRetriesUntilSuccess(t *testing.T) {
	m := testMachine()
	rt := retryOnceRuntime(m, 1)
	ad := testAdapter{parts: len(rt.pubs)}
	const n = 12
	m.SpawnHost(0, "h", func(c *machine.Ctx) {
		for i := 0; i < n; i++ {
			key := uint32(i * 37)
			v, ok := Apply(rt, ad, c, 0, kv.Op{Kind: hds.Read, Key: key})
			if !ok || v != key+1 {
				t.Errorf("key %d: got (%d,%v), want (%d,true)", key, v, ok, key+1)
			}
		}
	})
	m.Run()
	if got := rt.cRetries.Value(); got != n {
		t.Errorf("retries = %d, want %d", got, n)
	}
	if got := rt.cPosted.Value(); got != 2*n {
		t.Errorf("posted = %d, want %d", got, 2*n)
	}
}

func TestRuntimeApplyBatchRetriesCompleteAll(t *testing.T) {
	m := testMachine()
	rt := retryOnceRuntime(m, 4)
	ad := testAdapter{parts: len(rt.pubs)}
	const n = 40
	ops := make([]kv.Op, n)
	for i := range ops {
		ops[i] = kv.Op{Kind: hds.Read, Key: uint32(i * 13)}
	}
	var succeeded int
	m.SpawnHost(0, "h", func(c *machine.Ctx) {
		succeeded = ApplyBatch(rt, ad, c, 0, ops)
	})
	m.Run()
	if succeeded != n {
		t.Fatalf("succeeded = %d, want %d", succeeded, n)
	}
	if got := rt.cRetries.Value(); got != n {
		t.Errorf("retries = %d, want %d", got, n)
	}
	if got := rt.cPosted.Value(); got != 2*n {
		t.Errorf("posted = %d, want %d", got, 2*n)
	}
}

// depthAdapter records the deepest in-flight count ApplyBatch reaches.
type depthAdapter struct {
	testAdapter
	inflight *int
	max      *int
}

func (a depthAdapter) Prepare(c *machine.Ctx, op kv.Op, st *int, attempt int) (fc.Request, int, PrepareCtl, bool) {
	*a.inflight++
	if *a.inflight > *a.max {
		*a.max = *a.inflight
	}
	return a.testAdapter.Prepare(c, op, st, attempt)
}

func (a depthAdapter) Finish(c *machine.Ctx, op kv.Op, st *int, resp fc.Response) Verdict {
	*a.inflight--
	return a.testAdapter.Finish(c, op, st, resp)
}

// TestRuntimeApplyBatchExhaustsWindow checks that with a slow combiner the
// non-blocking path actually fills its window (issue until Full, then
// harvest) and never exceeds it.
func TestRuntimeApplyBatchExhaustsWindow(t *testing.T) {
	m := testMachine()
	const window = 3
	rt := New(m, window)
	for p := 0; p < len(rt.pubs); p++ {
		rt.Start(p, func(c *machine.Ctx, slot int, req fc.Request) fc.Response {
			c.Step(200) // slow service so the issue side runs ahead
			return fc.Response{Success: true, Value: req.Key}
		})
	}
	inflight, maxDepth := 0, 0
	ad := depthAdapter{testAdapter: testAdapter{parts: len(rt.pubs)}, inflight: &inflight, max: &maxDepth}
	ops := make([]kv.Op, 30)
	for i := range ops {
		ops[i] = kv.Op{Kind: hds.Read, Key: uint32(i)}
	}
	var succeeded int
	m.SpawnHost(0, "h", func(c *machine.Ctx) {
		succeeded = ApplyBatch(rt, ad, c, 0, ops)
	})
	m.Run()
	if succeeded != len(ops) {
		t.Fatalf("succeeded = %d, want %d", succeeded, len(ops))
	}
	if maxDepth != window {
		t.Errorf("max in-flight depth = %d, want %d (window exhaustion)", maxDepth, window)
	}
}

// followUpAdapter asks for one follow-up exchange per operation before
// accepting the response.
type followUpAdapter struct {
	testAdapter
	followed map[uint32]bool
}

func (a followUpAdapter) Finish(c *machine.Ctx, op kv.Op, st *int, resp fc.Response) Verdict {
	if !a.followed[op.Key] {
		a.followed[op.Key] = true
		return Verdict{Kind: OpFollowUp, Next: fc.Request{Op: fc.OpUpdate, Key: op.Key, Value: 1}}
	}
	return Verdict{Kind: OpDone, OK: resp.Success, Value: uint64(resp.Value)}
}

func TestRuntimeFollowUpStaysOnSlot(t *testing.T) {
	m := testMachine()
	rt := New(m, 2)
	slotsByKey := map[uint32][]int{}
	for p := 0; p < len(rt.pubs); p++ {
		rt.Start(p, func(c *machine.Ctx, slot int, req fc.Request) fc.Response {
			c.Step(10)
			slotsByKey[req.Key] = append(slotsByKey[req.Key], slot)
			return fc.Response{Success: true, Value: req.Key + req.Value}
		})
	}
	ad := followUpAdapter{testAdapter: testAdapter{parts: len(rt.pubs)}, followed: map[uint32]bool{}}
	const n = 10
	ops := make([]kv.Op, n)
	for i := range ops {
		ops[i] = kv.Op{Kind: hds.Read, Key: uint32(i * 11)}
	}
	var succeeded int
	m.SpawnHost(0, "h", func(c *machine.Ctx) {
		succeeded = ApplyBatch(rt, ad, c, 0, ops)
	})
	m.Run()
	if succeeded != n {
		t.Fatalf("succeeded = %d, want %d", succeeded, n)
	}
	if got := rt.cFollowUps.Value(); got != n {
		t.Errorf("followups = %d, want %d", got, n)
	}
	// A multi-phase exchange must stay on one publication slot: the
	// combiner keys pending state by slot.
	for key, slots := range slotsByKey {
		if len(slots) != 2 {
			t.Fatalf("key %d served %d times, want 2", key, len(slots))
		}
		if slots[0] != slots[1] {
			t.Errorf("key %d follow-up moved slot %d -> %d", key, slots[0], slots[1])
		}
	}
}

// localAdapter completes odd keys host-side without an NMP call.
type localAdapter struct{ testAdapter }

func (a localAdapter) Prepare(c *machine.Ctx, op kv.Op, st *int, attempt int) (fc.Request, int, PrepareCtl, bool) {
	if op.Key%2 == 1 {
		return fc.Request{}, 0, PrepareLocal, true
	}
	return a.testAdapter.Prepare(c, op, st, attempt)
}

func TestRuntimeLocalCompletionSkipsOffload(t *testing.T) {
	m := testMachine()
	rt := New(m, 2)
	for p := 0; p < len(rt.pubs); p++ {
		rt.Start(p, echoHandler)
	}
	ad := localAdapter{testAdapter{parts: len(rt.pubs)}}
	const n = 20
	ops := make([]kv.Op, n)
	for i := range ops {
		ops[i] = kv.Op{Kind: hds.Read, Key: uint32(i)}
	}
	var succeeded int
	m.SpawnHost(0, "h", func(c *machine.Ctx) {
		succeeded = ApplyBatch(rt, ad, c, 0, ops)
	})
	m.Run()
	if succeeded != n {
		t.Fatalf("succeeded = %d, want %d", succeeded, n)
	}
	if got := rt.cLocal.Value(); got != n/2 {
		t.Errorf("local completions = %d, want %d", got, n/2)
	}
	if got := rt.cPosted.Value(); got != n/2 {
		t.Errorf("posted = %d, want %d", got, n/2)
	}
}
