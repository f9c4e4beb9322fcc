package core

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybrids/internal/hds"
	"hybrids/internal/prng"
)

// The per-key history checker. Point operations on different keys never
// interact, so a recorded history partitions by key and each key is
// checked as an independent linearizable register: there must be an order
// of its applied operations, consistent with real time and with each
// caller's program order, in which every operation returns what a
// sequential map would. Rejected operations are left out of the history,
// so one that did reach a store shows as a later read nothing explains.

// histEvent is one completed point operation.
type histEvent struct {
	// caller and seq give program order: of two events of one caller, the
	// one with the smaller seq was issued first (operations of one batch
	// share their stamps but must still apply in index order).
	caller, seq int
	// inv and resp are logical stamps drawn from one atomic clock before
	// the call and after its return: a.resp < b.inv means a really
	// finished before b began.
	inv, resp int64
	req       hds.Request
	res       hds.Result
}

func (e histEvent) String() string {
	return fmt.Sprintf("c%d#%d [%d,%d] %s(%d,%d) -> (%d,%v)",
		e.caller, e.seq, e.inv, e.resp, e.req.Kind, e.req.Key, e.req.Value, e.res.Value, e.res.OK)
}

// regState is one key's register: absent, or present with a value.
type regState struct {
	present bool
	value   uint64
}

// step is the sequential specification of one key.
func (s regState) step(req hds.Request) (regState, hds.Result) {
	switch req.Kind {
	case hds.Read:
		return s, hds.Result{Value: s.value, OK: s.present}
	case hds.Insert:
		if s.present {
			return s, hds.Result{}
		}
		return regState{present: true, value: req.Value}, hds.Result{OK: true}
	case hds.Update:
		if !s.present {
			return s, hds.Result{}
		}
		return regState{present: true, value: req.Value}, hds.Result{OK: true}
	case hds.Remove:
		if !s.present {
			return s, hds.Result{}
		}
		return regState{}, hds.Result{OK: true}
	}
	panic("history: not a point operation: " + req.Kind.String())
}

// linearizable reports whether one key's events can be explained from
// init. It is the Wing-Gong search: repeatedly pick an event that nothing
// still pending finished before (and that no earlier event of its own
// caller is still pending behind), apply it to the register, and require
// the recorded result; dead (pending-set, state) pairs are memoized. evs
// must be sorted by inv, then seq (checkHistory sorts them), so an event's
// caller's earlier events lie before it, and the scans stop at the first
// event invoked after the earliest pending response: no event past it is
// a candidate, and none has an earlier response.
func linearizable(evs []histEvent, init regState) bool {
	done := make([]bool, len(evs))
	dead := make(map[string]bool)
	var search func(s regState, left int) bool
	search = func(s regState, left int) bool {
		if left == 0 {
			return true
		}
		var sb strings.Builder
		for _, d := range done {
			if d {
				sb.WriteByte('1')
			} else {
				sb.WriteByte('0')
			}
		}
		fmt.Fprintf(&sb, "%v/%d", s.present, s.value)
		memo := sb.String()
		if dead[memo] {
			return false
		}
		lo := 0 // every event before lo is done
		for done[lo] {
			lo++
		}
		minResp := int64(math.MaxInt64)
		for i := lo; i < len(evs) && evs[i].inv <= minResp; i++ {
			if !done[i] && evs[i].resp < minResp {
				minResp = evs[i].resp
			}
		}
	candidates:
		for i := lo; i < len(evs) && evs[i].inv <= minResp; i++ {
			e := &evs[i]
			if done[i] {
				continue
			}
			for j := lo; j < i; j++ {
				if f := &evs[j]; !done[j] && f.caller == e.caller && f.seq < e.seq {
					continue candidates
				}
			}
			next, want := s.step(e.req)
			if want != e.res {
				continue
			}
			done[i] = true
			if search(next, left-1) {
				return true
			}
			done[i] = false
		}
		dead[memo] = true
		return false
	}
	return search(init, len(evs))
}

// checkHistory groups events by key and checks every key's register,
// reporting the first few keys that cannot be explained.
func checkHistory(evs []histEvent, init map[uint64]regState) []string {
	byKey := make(map[uint64][]histEvent)
	for _, e := range evs {
		byKey[e.req.Key] = append(byKey[e.req.Key], e)
	}
	keys := make([]uint64, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var bad []string
	for _, k := range keys {
		h := byKey[k]
		sort.SliceStable(h, func(i, j int) bool {
			return h[i].inv < h[j].inv || h[i].inv == h[j].inv && h[i].seq < h[j].seq
		})
		if linearizable(h, init[k]) {
			continue
		}
		lines := make([]string, len(h))
		for i, e := range h {
			lines[i] = "  " + e.String()
		}
		bad = append(bad, fmt.Sprintf("key %d from %+v is not linearizable:\n%s", k, init[k], strings.Join(lines, "\n")))
		if len(bad) == 3 {
			break
		}
	}
	return bad
}

// dumpReads turns one Dump into a read of every key in keys, all stamped
// with the Dump's invocation and response clocks: a key the Dump holds
// reads its value, an absent key reads a miss. Dump snapshots partitions
// one after another between those stamps, which is exactly what a read
// spanning [inv, resp] may see — so per-partition snapshot visibility is
// checked by the same search as every other read.
func dumpReads(caller int, inv, resp int64, keys []uint64, dump []KV) []histEvent {
	held := make(map[uint64]uint64, len(dump))
	for _, kv := range dump {
		held[kv.Key] = kv.Value
	}
	evs := make([]histEvent, len(keys))
	for i, k := range keys {
		v, ok := held[k]
		evs[i] = histEvent{caller: caller, seq: i, inv: inv, resp: resp,
			req: hds.Request{Kind: hds.Read, Key: k}, res: hds.Result{Value: v, OK: ok}}
	}
	return evs
}

// TestHistoryCheckerAcceptsAndRejects is the checker's self-test: it
// accepts a real sequential history and legal concurrent ones, and fails
// on a swapped outcome, a stale read, a stale Dump and a rejected
// operation that was applied after all.
func TestHistoryCheckerAcceptsAndRejects(t *testing.T) {
	// A real history: one Batcher, one key, every kind, stamped per op.
	h := newTest(2)
	defer h.Close()
	b := h.NewBatcher(1)
	var evs []histEvent
	out := make([]Outcome, 1)
	for i, req := range []hds.Request{
		{Kind: hds.Insert, Key: 5, Value: 1},
		{Kind: hds.Read, Key: 5},
		{Kind: hds.Update, Key: 5, Value: 2},
		{Kind: hds.Read, Key: 5},
		{Kind: hds.Remove, Key: 5},
		{Kind: hds.Read, Key: 5},
	} {
		b.Apply([]hds.Request{req}, out)
		evs = append(evs, histEvent{seq: i, inv: int64(2 * i), resp: int64(2*i + 1), req: req, res: out[0].Result})
	}
	if bad := checkHistory(evs, nil); bad != nil {
		t.Fatalf("sequential history rejected:\n%s", strings.Join(bad, "\n"))
	}
	// The mutation: the two reads swap outcomes (1 and 2 change places).
	swapped := append([]histEvent(nil), evs...)
	swapped[1].res, swapped[3].res = swapped[3].res, swapped[1].res
	if checkHistory(swapped, nil) == nil {
		t.Fatal("checker accepted a history with two read outcomes swapped")
	}

	ok := hds.Result{OK: true}
	for _, tc := range []struct {
		name string
		evs  []histEvent
		init regState
		want bool
	}{
		{"concurrent inserts, one wins", []histEvent{
			{caller: 0, inv: 0, resp: 3, req: hds.Request{Kind: hds.Insert, Key: 1, Value: 7}, res: ok},
			{caller: 1, inv: 1, resp: 2, req: hds.Request{Kind: hds.Insert, Key: 1, Value: 8}},
			{caller: 2, inv: 4, resp: 5, req: hds.Request{Kind: hds.Read, Key: 1}, res: hds.Result{Value: 7, OK: true}},
		}, regState{}, true},
		{"concurrent inserts, both win", []histEvent{
			{caller: 0, inv: 0, resp: 3, req: hds.Request{Kind: hds.Insert, Key: 1, Value: 7}, res: ok},
			{caller: 1, inv: 1, resp: 2, req: hds.Request{Kind: hds.Insert, Key: 1, Value: 8}, res: ok},
		}, regState{}, false},
		{"read overlapping an update may see either value", []histEvent{
			{caller: 0, inv: 0, resp: 3, req: hds.Request{Kind: hds.Update, Key: 1, Value: 9}, res: ok},
			{caller: 1, inv: 1, resp: 2, req: hds.Request{Kind: hds.Read, Key: 1}, res: hds.Result{Value: 4, OK: true}},
		}, regState{present: true, value: 4}, true},
		{"stale read after the update returned", []histEvent{
			{caller: 0, inv: 0, resp: 1, req: hds.Request{Kind: hds.Update, Key: 1, Value: 9}, res: ok},
			{caller: 1, inv: 2, resp: 3, req: hds.Request{Kind: hds.Read, Key: 1}, res: hds.Result{Value: 4, OK: true}},
		}, regState{present: true, value: 4}, false},
		{"one batch applies out of index order", []histEvent{
			{caller: 0, seq: 0, inv: 0, resp: 1, req: hds.Request{Kind: hds.Read, Key: 1}, res: hds.Result{Value: 3, OK: true}},
			{caller: 0, seq: 1, inv: 0, resp: 1, req: hds.Request{Kind: hds.Insert, Key: 1, Value: 3}, res: ok},
		}, regState{}, false},
		{"a Dump that misses an insert that returned before it began", append([]histEvent{
			{caller: 0, inv: 0, resp: 1, req: hds.Request{Kind: hds.Insert, Key: 1, Value: 5}, res: ok},
		}, dumpReads(1, 2, 3, []uint64{1}, nil)...), regState{}, false},
		{"a rejected insert (left out) that a later read sees", []histEvent{
			{caller: 1, inv: 2, resp: 3, req: hds.Request{Kind: hds.Read, Key: 1}, res: hds.Result{Value: 6, OK: true}},
		}, regState{}, false},
	} {
		if got := checkHistory(tc.evs, map[uint64]regState{1: tc.init}) == nil; got != tc.want {
			t.Errorf("%s: linearizable = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// histRecorder stamps and collects one caller's events.
type histRecorder struct {
	caller int
	evs    []histEvent
	// rejected collects the stamps of operations refused by Close.
	rejected []histEvent
}

func (r *histRecorder) record(inv, resp int64, req hds.Request, res hds.Result, rejected bool) {
	e := histEvent{caller: r.caller, seq: len(r.evs) + len(r.rejected), inv: inv, resp: resp, req: req, res: res}
	if rejected {
		r.rejected = append(r.rejected, e)
	} else {
		r.evs = append(r.evs, e)
	}
}

// TestHistoryLinearizable records what concurrent Batcher.Apply callers
// and blocking Apply callers observe on a small set of shared keys while
// a Dump and then a Close land mid-stream, and checks every key's
// history, the Dump's pairs included as reads. On top of linearizability
// it pins the close contract: nothing that returned before Close began is
// refused, everything issued after Close returned is, and the drained
// stores hold exactly what the applied operations explain. Twice as many
// blocking callers as Batchers share 24 keys, so most calls meet a held
// partition and wait for its lock. The subtest names the first Batcher's
// round depth: at 1 each of its rounds holds one partition, at 64 each
// of its calls is one round across the partitions, so a round can
// straddle Close.
func TestHistoryLinearizable(t *testing.T) {
	for _, depth := range []int{1, 64} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) { historyLinearizable(t, depth) })
	}
}

// closedHistory pins the close contract on every caller's events —
// nothing that returned before Close began is refused, everything issued
// after Close returned is — and returns the events that belong in the
// history and the counts applied and refused. Callers from firstBlocking
// on issue blocking calls, which report a refusal as a plain ok=false.
func closedHistory(t *testing.T, recs []*histRecorder, firstBlocking int, closeInv, closeResp int64) (evs []histEvent, applied, refused int) {
	t.Helper()
	for _, rec := range recs {
		for _, e := range rec.evs {
			blocking := e.caller >= firstBlocking
			switch {
			case e.inv > closeResp && (e.res.OK || !blocking):
				t.Errorf("issued after Close returned but not refused: %v", e)
			case e.resp > closeInv && !e.res.OK && blocking:
				// A blocking call that failed at or after Close may
				// have been refused rather than applied. Either way it
				// changed nothing, so it leaves the history.
				refused++
				continue
			}
			evs = append(evs, e)
			applied++
		}
		for _, e := range rec.rejected {
			refused++
			if e.resp < closeInv {
				t.Errorf("rejected before Close began: %v", e)
			}
			if e.res != (hds.Result{}) {
				t.Errorf("rejected operation carries a result: %v", e)
			}
		}
	}
	if applied == 0 || refused == 0 {
		t.Fatalf("applied = %d, refused = %d: Close did not land mid-stream", applied, refused)
	}
	return evs, applied, refused
}

// historyLinearizable is one run of the test with the first Batcher's
// window at depth.
func historyLinearizable(t *testing.T, depth int) {
	const (
		partitions = 4
		keyMax     = 1 << 10
		nKeys      = 24
		blocking   = 6
		dumpAt     = 3300  // operations issued before the mid-stream Dump starts
		closeAt    = 10000 // operations issued before Close may start
		tail       = 16    // operations a caller still issues after seeing the map closed
	)
	h := New(Config{Partitions: partitions, KeyMax: keyMax})
	keys := make([]uint64, nKeys)
	init := make(map[uint64]regState)
	var load []KV
	for i := range keys {
		keys[i] = 1 + uint64(i)*(keyMax-2)/nKeys
		if i%2 == 0 {
			init[keys[i]] = regState{present: true, value: uint64(i)}
			load = append(load, KV{Key: keys[i], Value: uint64(i)})
		}
	}
	h.Build(load)

	var clock, issued atomic.Int64
	var closed atomic.Bool // set once Close has returned
	startDump, startClose := make(chan struct{}), make(chan struct{})
	var onceDump, onceClose sync.Once
	// tripped counts the mid-stream events that are due and have not
	// returned. Dump walks the partitions one barrier after another, each
	// spinning for its partition beside callers that apply their own
	// operations and rarely park; while it walks, the callers keep
	// issuing, and the checker's cost grows with the history. So while an
	// event is due, every caller yields after each operation, which bounds
	// the history the walk lets in.
	var tripped atomic.Int32
	yield := func() {
		if tripped.Load() > 0 {
			runtime.Gosched()
		}
	}
	// count trips the mid-stream events off the number of operations
	// issued, so they land inside the run whatever the scheduling.
	count := func(n int) {
		total := issued.Add(int64(n))
		if total >= dumpAt {
			onceDump.Do(func() { tripped.Add(1); close(startDump) })
		}
		if total >= closeAt {
			onceClose.Do(func() { tripped.Add(1); close(startClose) })
		}
	}
	// draw makes caller c's i-th operation; written values are unique, so
	// a read names the write it saw.
	draw := func(rng *prng.Source, c, i int) hds.Request {
		req := hds.Request{Key: keys[rng.Intn(nKeys)]}
		switch r := rng.Intn(8); {
		case r < 3:
			req.Kind = hds.Read
		case r < 5:
			req.Kind = hds.Insert
		case r < 6:
			req.Kind = hds.Update
		default:
			req.Kind = hds.Remove
		}
		if req.Kind == hds.Insert || req.Kind == hds.Update {
			req.Value = uint64(c+1)<<32 | uint64(i)
		}
		return req
	}

	windows := []int{depth, 4, 16}
	recs := make([]*histRecorder, len(windows)+blocking)
	var wg sync.WaitGroup
	for c := range recs {
		rec := &histRecorder{caller: c}
		recs[c] = rec
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := prng.New(uint64(c) + 11)
			if c >= len(windows) { // blocking callers
				for i, after := 0, 0; after < tail; i++ {
					if closed.Load() {
						after++
					}
					req := draw(rng, c, i)
					count(1)
					inv := clock.Add(1)
					res := h.Apply(req)
					// Blocking Apply reports a refused call as a
					// plain ok=false; which failures those may be is
					// decided below, against the close stamps.
					rec.record(inv, clock.Add(1), req, res, false)
					yield()
				}
				return
			}
			b := h.NewBatcher(windows[c])
			ops := make([]hds.Request, 0, 24)
			out := make([]Outcome, 24)
			for i, after := 0, 0; after < tail; i += len(ops) {
				ops = ops[:1+rng.Intn(24)]
				for j := range ops {
					ops[j] = draw(rng, c, i+j)
				}
				count(len(ops))
				inv := clock.Add(1)
				b.Apply(ops, out[:len(ops)])
				resp := clock.Add(1)
				for j, req := range ops {
					rec.record(inv, resp, req, out[j].Result, out[j].Rejected)
					if out[j].Rejected {
						after++
					}
				}
				yield()
			}
		}()
	}
	var dumpEvs []histEvent
	var closeInv, closeResp int64
	dumped := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(dumped)
		<-startDump
		inv := clock.Add(1)
		dump := h.Dump()
		dumpEvs = dumpReads(len(recs), inv, clock.Add(1), keys, dump)
		tripped.Add(-1)
	}()
	go func() {
		defer wg.Done()
		// The callers run until they see the map closed, so the Dump and
		// then the Close both land mid-stream however late they are
		// scheduled.
		<-dumped
		<-startClose
		closeInv = clock.Add(1)
		h.Close()
		closeResp = clock.Add(1)
		closed.Store(true)
		tripped.Add(-1)
	}()
	wg.Wait()

	evs, applied, refused := closedHistory(t, recs, len(windows), closeInv, closeResp)
	evs = append(evs, dumpEvs...)
	// The drained stores are every key's last read.
	final := h.Dump()
	evs = append(evs, dumpReads(-1, math.MaxInt64-1, math.MaxInt64, keys, final)...)
	if len(final) > nKeys {
		t.Errorf("Dump holds %d keys, more than the %d ever written", len(final), nKeys)
	}
	for _, msg := range checkHistory(evs, init) {
		t.Error(msg)
	}
	t.Logf("%d applied, %d refused, %d keys", applied, refused, nKeys)
}

// TestHistoryHostPortion records Batcher readers racing writers on a hot
// set of 16 keys, where most reads are host-portion hits, and checks
// every key's history. The readers' rounds are mostly reads with a write
// now and then, so a round often reads a key after writing it or after a
// read of it that missed; the writer Batcher's rounds write as often as
// they read, and a blocking caller only writes. A barrier loop closes
// the partitions' windows as a holder does, with each outcome in turn —
// grown, made base again, switched off, and on again — so tables are
// replaced and retired under the readers, and Close lands mid-stream. On
// top of linearizability it pins the close contract (closedHistory).
func TestHistoryHostPortion(t *testing.T) {
	const (
		partitions = 4
		keyMax     = 1 << 12
		nKeys      = 16
		closeAt    = 12000 // operations issued before Close starts
		tail       = 16    // refusals a caller sees before it stops
	)
	h := New(Config{Partitions: partitions, KeyMax: keyMax})
	keys := make([]uint64, nKeys)
	init := make(map[uint64]regState)
	hot := make(map[uint64]bool)
	var load []KV
	for i := range keys {
		keys[i] = 2 + uint64(i)*(keyMax-4)/nKeys
		hot[keys[i]] = true
		if i%4 != 3 {
			init[keys[i]] = regState{present: true, value: uint64(i)}
			load = append(load, KV{Key: keys[i], Value: uint64(i)})
		}
	}
	// Cold keys, never touched, size every partition's table at 4 buckets.
	for k := uint64(1); k < keyMax; k += 4 {
		if !hot[k] {
			load = append(load, KV{Key: k, Value: k})
		}
	}
	h.Build(load)

	var clock, issued atomic.Int64
	var closed atomic.Bool // set once Close has returned
	startClose := make(chan struct{})
	var onceClose sync.Once
	count := func(n int) {
		if issued.Add(int64(n)) >= closeAt {
			onceClose.Do(func() { close(startClose) })
		}
	}
	// draw makes caller c's i-th operation, a write one time in every
	// writes; written values are unique, so a read names the write it saw.
	draw := func(rng *prng.Source, c, i, writes int) hds.Request {
		req := hds.Request{Kind: hds.Read, Key: keys[rng.Intn(nKeys)]}
		if rng.Intn(writes) == 0 {
			req.Kind = [...]hds.Kind{hds.Insert, hds.Update, hds.Remove}[rng.Intn(3)]
			if req.Kind != hds.Remove {
				req.Value = uint64(c+1)<<32 | uint64(i)
			}
		}
		return req
	}

	windows := []int{16, 16, 4, 8} // readers, then the writer Batcher
	recs := make([]*histRecorder, len(windows)+1)
	var wg sync.WaitGroup
	for c := range recs {
		rec := &histRecorder{caller: c}
		recs[c] = rec
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := prng.New(uint64(c) + 101)
			if c == len(windows) { // the blocking writer
				for i, after := 0, 0; after < tail; i++ {
					if closed.Load() {
						after++
					}
					req := draw(rng, c, i, 1)
					count(1)
					inv := clock.Add(1)
					res := h.Apply(req)
					rec.record(inv, clock.Add(1), req, res, false)
				}
				return
			}
			writes := 8
			if c == len(windows)-1 {
				writes = 2
			}
			b := h.NewBatcher(windows[c])
			ops := make([]hds.Request, 0, 24)
			out := make([]Outcome, 24)
			for i, refused := 0, 0; refused < tail; i += len(ops) {
				ops = ops[:1+rng.Intn(24)]
				for j := range ops {
					ops[j] = draw(rng, c, i+j, writes)
				}
				count(len(ops))
				inv := clock.Add(1)
				b.Apply(ops, out[:len(ops)])
				resp := clock.Add(1)
				for j, req := range ops {
					rec.record(inv, resp, req, out[j].Result, out[j].Rejected)
					if out[j].Rejected {
						refused++
					}
				}
			}
		}()
	}
	var closeInv, closeResp int64
	wg.Add(2)
	go func() { // window outcomes under the readers, until Close returns
		defer wg.Done()
		for step := 0; !closed.Load(); step++ {
			for _, part := range h.parts {
				h.barrier(part.id, func(Store) {
					switch step % 4 {
					case 0, 1: // grown from base, then made base again, empty
						part.hits = [...]int32{hotWindow, hotWindow / 4}[step%4]
						part.judge()
					case 2:
						part.hits = 0
						part.judge() // off
					default:
						part.idle = 0 // on: the next miss makes a table
					}
				})
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()
	go func() {
		defer wg.Done()
		<-startClose
		closeInv = clock.Add(1)
		h.Close()
		closeResp = clock.Add(1)
		closed.Store(true)
	}()
	wg.Wait()

	evs, applied, refused := closedHistory(t, recs, len(windows), closeInv, closeResp)
	var hits uint64
	for p := range h.parts {
		hits += h.hitsOn(p)
	}
	if hits == 0 {
		t.Fatal("no read was a host-portion hit")
	}
	evs = append(evs, dumpReads(-1, math.MaxInt64-1, math.MaxInt64, keys, h.Dump())...)
	for _, msg := range checkHistory(evs, init) {
		t.Error(msg)
	}
	t.Logf("%d applied, %d of them hits, %d refused, %d keys", applied, hits, refused, nKeys)
}
