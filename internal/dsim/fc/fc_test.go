package fc

import (
	"testing"

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
func echoHandler(c *machine.Ctx, slot int, req Request) Response {
	c.Step(20) // pretend to do some work
	return Response{Success: true, Value: req.Key + req.Value, Ptr: req.NMPPtr}
}

// call is a blocking NMP call on slot: post, watch, poll the flag
// (parking until the combiner's completion signal between polls) and
// read the response.
func call(c *machine.Ctx, p *PubList, slot int, req Request) Response {
	p.Post(c, slot, req)
	p.Watch(c, slot)
	for !p.Done(c, slot) {
		c.A.Block()
	}
	return p.ReadResponse(c, slot)
}

func TestBlockingCallRoundTrip(t *testing.T) {
	m := testMachine()
	p := NewPubList(m, 0, 8)
	m.SpawnNMP(0, func(c *machine.Ctx) { Serve(c, p, echoHandler) })
	var got Response
	m.SpawnHost(0, "h", func(c *machine.Ctx) {
		got = call(c, p, 0, Request{Op: OpRead, Key: 40, Value: 2, NMPPtr: 99})
	})
	m.Run()
	if !got.Success || got.Value != 42 || got.Ptr != 99 {
		t.Fatalf("response = %+v", got)
	}
}

func TestConcurrentBlockingCallsAllServed(t *testing.T) {
	m := testMachine()
	p := NewPubList(m, 0, 8)
	m.SpawnNMP(0, func(c *machine.Ctx) { Serve(c, p, echoHandler) })
	const perThread = 10
	results := make([][]uint32, 4)
	for th := 0; th < 4; th++ {
		th := th
		m.SpawnHost(th, "h", func(c *machine.Ctx) {
			for i := 0; i < perThread; i++ {
				r := call(c, p, th, Request{Op: OpRead, Key: uint32(th * 100), Value: uint32(i)})
				results[th] = append(results[th], r.Value)
			}
		})
	}
	m.Run()
	for th := range results {
		if len(results[th]) != perThread {
			t.Fatalf("thread %d got %d results", th, len(results[th]))
		}
		for i, v := range results[th] {
			if v != uint32(th*100+i) {
				t.Fatalf("thread %d result %d = %d", th, i, v)
			}
		}
	}
	if d := DelaysFrom(m.Metrics.Snapshot()); d.Count != 4*perThread {
		t.Fatalf("served count = %d", d.Count)
	}
}

func TestResponseFlagBitsRoundTrip(t *testing.T) {
	m := testMachine()
	p := NewPubList(m, 0, 2)
	m.SpawnNMP(0, func(c *machine.Ctx) {
		Serve(c, p, func(c *machine.Ctx, slot int, req Request) Response {
			switch req.Op {
			case OpInsert:
				return Response{Success: true, LockPath: true}
			case OpRemove:
				return Response{Retry: true}
			default:
				return Response{}
			}
		})
	})
	var r1, r2 Response
	m.SpawnHost(0, "h", func(c *machine.Ctx) {
		r1 = call(c, p, 0, Request{Op: OpInsert})
		r2 = call(c, p, 0, Request{Op: OpRemove})
	})
	m.Run()
	if !r1.Success || !r1.LockPath || r1.Retry {
		t.Fatalf("r1 = %+v", r1)
	}
	if r2.Success || r2.LockPath || !r2.Retry {
		t.Fatalf("r2 = %+v", r2)
	}
}

func TestRequestFieldsReachHandler(t *testing.T) {
	m := testMachine()
	p := NewPubList(m, 0, 2)
	var seen Request
	m.SpawnNMP(0, func(c *machine.Ctx) {
		Serve(c, p, func(c *machine.Ctx, slot int, req Request) Response {
			seen = req
			return Response{Success: true}
		})
	})
	want := Request{Op: OpUpdate, Key: 1, Value: 2, NMPPtr: 3, HostPtr: 4, Aux: 5}
	m.SpawnHost(0, "h", func(c *machine.Ctx) { call(c, p, 0, want) })
	m.Run()
	if seen != want {
		t.Fatalf("handler saw %+v, want %+v", seen, want)
	}
}

func TestDelaysInstrumentation(t *testing.T) {
	m := testMachine()
	p := NewPubList(m, 0, 2)
	m.SpawnNMP(0, func(c *machine.Ctx) { Serve(c, p, echoHandler) })
	m.SpawnHost(0, "h", func(c *machine.Ctx) {
		for i := 0; i < 5; i++ {
			call(c, p, 0, Request{Op: OpRead, Key: uint32(i)})
		}
	})
	m.Run()
	d := DelaysFrom(m.Metrics.Snapshot())
	if d.Count != 5 || d.ObserveCount != 5 {
		t.Fatalf("counts = %d/%d", d.Count, d.ObserveCount)
	}
	if d.Service/d.Count < 20 {
		t.Fatalf("mean service %d below handler cost", d.Service/d.Count)
	}
	if d.CompleteToObserve == 0 || d.PostToScan == 0 {
		t.Fatalf("delay sums zero: %+v", d)
	}
}

func TestPubListTooLargePanics(t *testing.T) {
	m := testMachine()
	defer func() {
		if recover() == nil {
			t.Fatal("oversized publist did not panic")
		}
	}()
	NewPubList(m, 0, int(memsys.ScratchSize)/SlotBytes+1)
}

func TestOpTypeStrings(t *testing.T) {
	ops := map[OpType]string{
		OpRead: "read", OpUpdate: "update", OpInsert: "insert",
		OpRemove: "remove", OpUnlockPath: "unlock-path", OpResumeInsert: "resume-insert",
	}
	for op, want := range ops {
		if op.String() != want {
			t.Errorf("%d.String() = %q, want %q", op, op.String(), want)
		}
	}
	if OpType(99).String() == "" {
		t.Error("unknown op type produced empty string")
	}
}

// TestOpFor checks the kind-to-slot-code mapping every adapter encodes
// with, and that an unsupported kind panics instead of posting OpNone.
func TestOpFor(t *testing.T) {
	want := map[hds.Kind]OpType{hds.Read: OpRead, hds.Update: OpUpdate, hds.Insert: OpInsert, hds.Remove: OpRemove}
	for k, op := range want {
		if got := OpFor(k); got != op {
			t.Errorf("OpFor(%v) = %v, want %v", k, got, op)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("OpFor(Scan) did not panic")
		}
	}()
	OpFor(hds.Scan)
}

// TestPollsDoNotAllocate: a host's completion poll and response read burst
// into arrays on the caller's stack, so polling a pending slot, polling a
// completed one and reading its response allocate nothing.
func TestPollsDoNotAllocate(t *testing.T) {
	m := testMachine()
	p := NewPubList(m, 0, 2)
	m.SpawnNMP(0, func(c *machine.Ctx) { Serve(c, p, echoHandler) })
	m.SpawnHost(0, "h", func(c *machine.Ctx) {
		call(c, p, 0, Request{Op: OpRead, Key: 1})
		if n := testing.AllocsPerRun(100, func() {
			if !p.Done(c, 0) || p.ReadResponse(c, 0).Value != 1 {
				t.Error("completed slot reads as pending or lost its response")
			}
		}); n != 0 {
			t.Errorf("polling a completed slot and reading its response: %v allocations per run, want 0", n)
		}
	})
	m.Run()

	m = testMachine()
	p = NewPubList(m, 0, 2) // no combiner: the post stays pending
	m.SpawnHost(0, "h", func(c *machine.Ctx) {
		p.Post(c, 1, Request{Op: OpRead})
		if n := testing.AllocsPerRun(100, func() {
			if p.Done(c, 1) {
				t.Error("pending slot reads as done")
			}
		}); n != 0 {
			t.Errorf("polling a pending slot: %v allocations per run, want 0", n)
		}
	})
	m.Run()
}
