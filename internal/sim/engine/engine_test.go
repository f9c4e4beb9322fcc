package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"hybrids/internal/sim/trace"
)

func TestSingleActorAdvances(t *testing.T) {
	e := New()
	var trace []uint64
	e.Spawn("a", false, func(a *Actor) {
		for i := 0; i < 5; i++ {
			a.Advance(10)
			trace = append(trace, a.Now())
		}
	})
	e.Run()
	want := []uint64{10, 20, 30, 40, 50}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
	if e.Now() != 50 {
		t.Fatalf("engine Now = %d, want 50", e.Now())
	}
}

func TestActorsInterleaveInVirtualTimeOrder(t *testing.T) {
	e := New()
	var order []string
	e.Spawn("slow", false, func(a *Actor) {
		for i := 0; i < 3; i++ {
			a.Advance(100)
			order = append(order, "slow")
		}
	})
	e.Spawn("fast", false, func(a *Actor) {
		for i := 0; i < 3; i++ {
			a.Advance(30)
			order = append(order, "fast")
		}
	})
	e.Run()
	want := []string{"fast", "fast", "fast", "slow", "slow", "slow"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSameCycleFIFOTieBreak(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		e.Spawn("a", false, func(a *Actor) {
			a.Advance(7)
			order = append(order, i)
		})
	}
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-cycle order = %v, want spawn order", order)
		}
	}
}

func TestYieldRotatesSameCycleActors(t *testing.T) {
	e := New()
	var order []string
	e.Spawn("x", false, func(a *Actor) {
		order = append(order, "x1")
		a.Advance(0)
		order = append(order, "x2")
	})
	e.Spawn("y", false, func(a *Actor) {
		order = append(order, "y1")
		a.Advance(0)
		order = append(order, "y2")
	})
	e.Run()
	want := []string{"x1", "y1", "x2", "y2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestDaemonStopsAfterNonDaemons(t *testing.T) {
	e := New()
	daemonTicks := 0
	e.Spawn("daemon", true, func(a *Actor) {
		for !a.Stopping() {
			daemonTicks++
			a.Advance(1)
		}
	})
	e.Spawn("worker", false, func(a *Actor) {
		a.Advance(25)
	})
	e.Run()
	if daemonTicks < 25 {
		t.Fatalf("daemon ran %d ticks, want >= 25", daemonTicks)
	}
	if daemonTicks > 30 {
		t.Fatalf("daemon ran %d ticks after stop, want prompt exit", daemonTicks)
	}
}

func TestSpawnDuringRunInheritsTime(t *testing.T) {
	e := New()
	var childStart uint64
	e.Spawn("parent", false, func(a *Actor) {
		a.Advance(100)
		e.Spawn("child", false, func(c *Actor) {
			childStart = c.Now()
			c.Advance(1)
		})
		a.Advance(1)
	})
	e.Run()
	if childStart != 100 {
		t.Fatalf("child started at %d, want 100", childStart)
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func(seed int64) []int {
		e := New()
		var order []int
		for i := 0; i < 6; i++ {
			i := i
			rng := rand.New(rand.NewSource(seed + int64(i)))
			e.Spawn("a", false, func(a *Actor) {
				for j := 0; j < 50; j++ {
					a.Advance(uint64(rng.Intn(17) + 1))
					order = append(order, i)
				}
			})
		}
		e.Run()
		return order
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("interleaving not deterministic at step %d", i)
		}
	}
}

func TestRunTwicePanics(t *testing.T) {
	e := New()
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("second Run did not panic")
		}
	}()
	e.Run()
}

// TestEngineTimeMonotonic property: with arbitrary positive advance
// sequences across several actors, the dispatch order observed by a probe
// is monotone in virtual time.
func TestEngineTimeMonotonic(t *testing.T) {
	f := func(steps [][]uint16) bool {
		if len(steps) == 0 {
			return true
		}
		if len(steps) > 8 {
			steps = steps[:8]
		}
		e := New()
		var stamps []uint64
		for _, seq := range steps {
			seq := seq
			e.Spawn("p", false, func(a *Actor) {
				for _, s := range seq {
					a.Advance(uint64(s%997) + 1)
					stamps = append(stamps, a.Now())
				}
			})
		}
		e.Run()
		for i := 1; i < len(stamps); i++ {
			if stamps[i] < stamps[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestHeapOrdering(t *testing.T) {
	var h eventHeap
	rng := rand.New(rand.NewSource(1))
	seq := uint64(0)
	for i := 0; i < 1000; i++ {
		seq++
		h.push(event{at: uint64(rng.Intn(100)), seq: seq})
	}
	prevAt, prevSeq := uint64(0), uint64(0)
	for i := 0; i < 1000; i++ {
		ev := h.pop()
		if ev.at < prevAt || (ev.at == prevAt && ev.seq < prevSeq) {
			t.Fatalf("heap order violated at pop %d: (%d,%d) after (%d,%d)", i, ev.at, ev.seq, prevAt, prevSeq)
		}
		prevAt, prevSeq = ev.at, ev.seq
	}
	if len(h) != 0 {
		t.Fatalf("heap not drained: %d left", len(h))
	}
}

func TestBlockUnblockRoundTrip(t *testing.T) {
	e := New()
	var order []string
	var waiter *Actor
	waiter = e.Spawn("waiter", false, func(a *Actor) {
		order = append(order, "block")
		a.Block()
		order = append(order, fmt.Sprintf("woke@%d", a.Now()))
	})
	e.Spawn("waker", false, func(a *Actor) {
		a.Advance(100)
		a.Unblock(waiter, 5)
		order = append(order, "unblocked")
	})
	e.Run()
	want := []string{"block", "unblocked", "woke@105"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestUnblockPermitPreventsLostWakeup(t *testing.T) {
	// The waker signals while the waiter is still running; the waiter's
	// subsequent Block must consume the permit and return immediately.
	e := New()
	var wokeAt uint64
	var waiter *Actor
	waiter = e.Spawn("waiter", false, func(a *Actor) {
		a.Advance(50) // signal arrives during this window
		a.Block()     // must not hang
		wokeAt = a.Now()
	})
	e.Spawn("waker", false, func(a *Actor) {
		a.Advance(10)
		a.Unblock(waiter, 0)
	})
	e.Run()
	if wokeAt != 50 {
		t.Fatalf("woke at %d, want 50 (permit consumed without parking)", wokeAt)
	}
}

func TestBlockedDaemonWakesAtStopping(t *testing.T) {
	e := New()
	served := false
	e.Spawn("daemon", true, func(a *Actor) {
		for !a.Stopping() {
			a.Block()
		}
		served = true
	})
	e.Spawn("worker", false, func(a *Actor) { a.Advance(30) })
	e.Run()
	if !served {
		t.Fatal("blocked daemon never released at stopping")
	}
}

func TestUnblockClampsToTargetClock(t *testing.T) {
	// A waker behind the blocked actor's clock must not move it backwards.
	e := New()
	var wokeAt uint64
	var waiter *Actor
	waiter = e.Spawn("waiter", false, func(a *Actor) {
		a.Advance(1000)
		a.Block()
		wokeAt = a.Now()
	})
	e.Spawn("waker", false, func(a *Actor) {
		a.Advance(10)
		for !waiterBlocked(waiter) {
			a.Advance(10)
		}
		a.Unblock(waiter, 1)
	})
	e.Run()
	if wokeAt < 1000 {
		t.Fatalf("woke at %d: clock moved backwards", wokeAt)
	}
}

func waiterBlocked(a *Actor) bool { return a.blocked }

// runPanic runs e and returns what Run panicked with (nil: it returned).
func runPanic(e *Engine) (r any) {
	defer func() { r = recover() }()
	e.Run()
	return nil
}

func TestDeadlockPanicsFromRun(t *testing.T) {
	e := New()
	unwound := 0
	for _, name := range []string{"zed", "amy"} {
		e.Spawn(name, false, func(a *Actor) {
			defer func() { unwound++ }()
			a.Advance(5)
			a.Block() // nobody ever unblocks
			t.Errorf("%s ran past a Block nobody released", a.Name)
		})
	}
	e.Spawn("done", false, func(a *Actor) { a.Advance(1) })
	msg, _ := runPanic(e).(string)
	if !strings.Contains(msg, "deadlock") || !strings.Contains(msg, "[amy zed]") {
		t.Fatalf("Run panicked with %q, want the deadlock naming [amy zed]", msg)
	}
	if unwound != 2 {
		t.Fatalf("%d blocked bodies ran their deferred calls, want 2", unwound)
	}
}

func TestActorPanicReachesRunCaller(t *testing.T) {
	e := New()
	released := false
	e.Spawn("bystander", false, func(a *Actor) {
		defer func() { released = true }()
		for {
			a.Advance(10)
		}
	})
	e.Spawn("faulty", false, func(a *Actor) {
		a.Advance(25)
		e.Spawn("never-started", false, func(*Actor) { t.Error("ran after the panic") })
		var m map[int]int
		m[0] = 1
	})
	msg, _ := runPanic(e).(string)
	for _, want := range []string{`actor "faulty"`, "cycle 25", "assignment to entry in nil map", "engine_test.go"} {
		if !strings.Contains(msg, want) {
			t.Errorf("panic message lacks %q:\n%s", want, msg)
		}
	}
	if !released {
		t.Error("the parked bystander was not unwound")
	}
}

// TestNoGoroutineOutlivesRun: whichever way Run ends, every coroutine it
// created is gone when it does.
func TestNoGoroutineOutlivesRun(t *testing.T) {
	cases := map[string]func(e *Engine){
		"normal end": func(e *Engine) {
			for i := 0; i < 4; i++ {
				e.Spawn("w", false, func(a *Actor) { a.Advance(7); a.Advance(0) })
			}
		},
		"deadlock": func(e *Engine) {
			for i := 0; i < 4; i++ {
				e.Spawn("w", false, func(a *Actor) { a.Advance(3); a.Block() })
			}
		},
		"body panic": func(e *Engine) {
			for i := 0; i < 4; i++ {
				e.Spawn("w", false, func(a *Actor) {
					for {
						a.Advance(3)
					}
				})
			}
			e.Spawn("faulty", false, func(a *Actor) { a.Advance(10); panic("boom") })
		},
		"daemon blocked at stop": func(e *Engine) {
			for i := 0; i < 4; i++ {
				e.Spawn("d", true, func(a *Actor) {
					for !a.Stopping() {
						a.Block()
					}
				})
			}
			e.Spawn("w", false, func(a *Actor) { a.Advance(30) })
		},
	}
	for name, spawn := range cases {
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			e := New()
			spawn(e)
			r := runPanic(e)
			if after := runtime.NumGoroutine(); after != before {
				t.Fatalf("%d goroutines before Run, %d after (Run ended with %v)", before, after, r)
			}
		})
	}
	// An engine that is populated and never run owns no goroutine either:
	// coroutines are created by Run, at an actor's first dispatch.
	before := runtime.NumGoroutine()
	New().Spawn("idle", false, func(a *Actor) { a.Block() })
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("Spawn alone took the goroutine count from %d to %d", before, after)
	}
}

// TestUnwoundBodyCannotContinue: a body released while parked that
// swallows the unwind and tries to carry on is unwound again at its next
// park, and an engine call that does not park does not revive it.
func TestUnwoundBodyCannotContinue(t *testing.T) {
	e := New()
	parks := 0
	e.Spawn("stubborn", false, func(a *Actor) {
		for i := 0; i < 3; i++ {
			func() {
				defer func() { recover() }()
				parks++
				a.Block()
				t.Error("Block returned in a released actor")
			}()
		}
	})
	if r := runPanic(e); r == nil {
		t.Fatal("Run returned, want the deadlock panic")
	}
	if parks != 3 {
		t.Fatalf("body reached Block %d times, want 3 (each one unwinding)", parks)
	}
}

func TestSpawnFromRunningActor(t *testing.T) {
	e := New()
	var log []string
	var grandchildren int
	e.Spawn("parent", false, func(a *Actor) {
		a.Advance(100)
		for i := 0; i < 3; i++ {
			i := i
			e.Spawn(fmt.Sprintf("child%d", i), false, func(c *Actor) {
				log = append(log, fmt.Sprintf("%s@%d", c.Name, c.Now()))
				c.Advance(uint64(10 * (3 - i)))
				e.Spawn("grandchild", i == 0, func(g *Actor) {
					grandchildren++
					log = append(log, fmt.Sprintf("%s@%d", g.Name, g.Now()))
				})
			})
		}
		// The children queue behind the parent's own continuation only if
		// it parks at their cycle: Advance(0) lets them start first.
		a.Advance(0)
		log = append(log, fmt.Sprintf("parent@%d", a.Now()))
	})
	e.Run()
	want := []string{
		"child0@100", "child1@100", "child2@100", "parent@100",
		"grandchild@110", "grandchild@120", "grandchild@130",
	}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("log = %v\nwant  %v", log, want)
	}
	if got := e.stSpawns.Value(); got != 7 {
		t.Fatalf("spawns = %d, want 7", got)
	}
	if e.liveAll != 0 || e.live != 0 {
		t.Fatalf("live = %d, liveAll = %d after Run, want 0", e.live, e.liveAll)
	}
}

// spawnChain spawns n actors that each Block as their first step, so each
// one's park dispatches the next: actor i runs resumed by actor i-1, and
// the last runs at the top of a chain of n-1 resumers. The last checks the
// chain and then runs end; unwound counts the bodies whose deferred calls
// ran.
func spawnChain(t *testing.T, e *Engine, n int, end func(last *Actor, rest []*Actor), unwound *int) {
	var rest []*Actor
	for i := 0; i < n-1; i++ {
		rest = append(rest, e.Spawn(fmt.Sprintf("link%d", i), false, func(a *Actor) {
			defer func() { *unwound++ }()
			a.Block()
		}))
	}
	e.Spawn("top", false, func(a *Actor) {
		defer func() { *unwound++ }()
		for _, r := range rest {
			if !r.resumer {
				t.Errorf("%s is not on the chain under %s", r.Name, a.Name)
			}
		}
		end(a, rest)
	})
}

// TestPanicAtTopOfChainReachesRunCaller: a body panic three actors up a
// chain of resumers surfaces on Run's caller with the actor named, and
// every actor on the chain is unwound.
func TestPanicAtTopOfChainReachesRunCaller(t *testing.T) {
	e := New()
	unwound := 0
	spawnChain(t, e, 3, func(*Actor, []*Actor) { panic("boom") }, &unwound)
	msg, _ := runPanic(e).(string)
	for _, want := range []string{`engine: actor "top" panicked at cycle 0: boom`, "engine_test.go"} {
		if !strings.Contains(msg, want) {
			t.Errorf("panic message lacks %q:\n%s", want, msg)
		}
	}
	if unwound != 3 {
		t.Fatalf("%d bodies ran their deferred calls, want 3", unwound)
	}
}

// TestRecoveringResumerCannotSwallowFailure: a resumer's body that
// recovers every panic sees neither the panic of the actor it resumed nor
// the deadlock found above it; both reach Run's caller. The only panic it
// may recover is the unwind that ends it.
func TestRecoveringResumerCannotSwallowFailure(t *testing.T) {
	for _, c := range []struct {
		name, want string
		top        func(*Actor)
	}{
		{"body panic", `engine: actor "top" panicked`, func(*Actor) { panic("boom") }},
		{"deadlock", "engine: deadlock", func(a *Actor) { a.Block() }},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := New()
			var swallowed []any
			greedy := e.Spawn("greedy", false, func(a *Actor) {
				for i := 0; i < 3; i++ {
					func() {
						defer func() {
							if r := recover(); r != nil {
								if _, ok := r.(unwind); !ok {
									swallowed = append(swallowed, r)
								}
							}
						}()
						a.Block()
					}()
				}
			})
			e.Spawn("middle", false, func(a *Actor) { a.Block() })
			e.Spawn("top", false, func(a *Actor) {
				if !greedy.resumer {
					t.Error("greedy is not on the chain")
				}
				c.top(a)
			})
			if msg, _ := runPanic(e).(string); !strings.HasPrefix(msg, c.want) {
				t.Errorf("Run panicked with %q, want %q", msg, c.want)
			}
			if len(swallowed) != 0 {
				t.Errorf("the recovering body swallowed %v", swallowed)
			}
		})
	}
}

// TestNoGoroutineOutlivesChain: with three actors on one chain, Run leaves
// the goroutine count as it found it on a normal end, a body panic and a
// deadlock.
func TestNoGoroutineOutlivesChain(t *testing.T) {
	for name, end := range map[string]func(*Actor, []*Actor){
		"normal end": func(a *Actor, rest []*Actor) {
			for _, r := range rest {
				a.Unblock(r, 1)
			}
		},
		"body panic": func(*Actor, []*Actor) { panic("boom") },
		"deadlock":   func(a *Actor, _ []*Actor) { a.Block() },
		"body panic in a run-ahead section": func(a *Actor, rest []*Actor) {
			for _, r := range rest {
				a.Unblock(r, 5)
			}
			a.BeginRunAhead()
			a.Advance(10) // past the wake-ups: recorded, not parked
			a.Advance(1)
			panic("boom")
		},
	} {
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			e := New()
			unwound := 0
			spawnChain(t, e, 3, end, &unwound)
			r := runPanic(e)
			if after := runtime.NumGoroutine(); after != before {
				t.Fatalf("%d goroutines before Run, %d after (Run ended with %v)", before, after, r)
			}
			if msg, _ := r.(string); strings.Contains(name, "section") && !strings.HasPrefix(msg, `engine: actor "top" panicked at cycle 11: boom`) {
				t.Fatalf("Run ended with %v, want the top's panic at cycle 11", r)
			}
			if unwound != 3 {
				t.Fatalf("%d bodies ran their deferred calls, want 3", unwound)
			}
		})
	}
}

// TestPingPongOneSwitchPerDispatch: a Block/Unblock ping-pong between two
// actors is a direct handoff each way, at most one coroutine switch per
// dispatch (resuming from Run and then yielding back would be two).
func TestPingPongOneSwitchPerDispatch(t *testing.T) {
	const rounds = 1000
	e := New()
	client := e.Spawn("client", false, func(a *Actor) {
		for i := 0; i < rounds; i++ {
			a.Block()
		}
	})
	e.Spawn("server", false, func(a *Actor) {
		for i := 0; i < rounds; i++ {
			a.Advance(1)
			a.Unblock(client, 1)
		}
	})
	e.Run()
	d := e.stDispatches.Value()
	if d < 2*rounds {
		t.Fatalf("%d dispatches for %d round trips, want at least %d", d, rounds, 2*rounds)
	}
	if e.switches > d {
		t.Fatalf("%d coroutine switches for %d dispatches, want at most one each", e.switches, d)
	}
}

// TestRunAheadMisusePanics: an engine call whose effect a replay could not
// reproduce, or a body returning, fails inside a run-ahead section, on
// Run's caller, naming the actor and the call.
func TestRunAheadMisusePanics(t *testing.T) {
	for call, do := range map[string]func(e *Engine, a, peer *Actor){
		"Block":         func(_ *Engine, a, _ *Actor) { a.Block() },
		"Unblock":       func(_ *Engine, a, peer *Actor) { a.Unblock(peer, 1) },
		"Spawn":         func(e *Engine, _, _ *Actor) { e.Spawn("child", false, func(*Actor) {}) },
		"Stopping":      func(_ *Engine, a, _ *Actor) { a.Stopping() },
		"BeginRunAhead": func(_ *Engine, a, _ *Actor) { a.BeginRunAhead() },
		"return":        func(*Engine, *Actor, *Actor) {},
	} {
		t.Run(call, func(t *testing.T) {
			e := New()
			peer := e.Spawn("peer", false, func(a *Actor) { a.Advance(100) })
			e.Spawn("core", false, func(a *Actor) {
				a.Advance(3)
				a.BeginRunAhead()
				if do(e, a, peer); call != "return" {
					t.Errorf("%s returned inside a run-ahead section", call)
				}
			})
			msg, _ := runPanic(e).(string)
			if want := `engine: actor "core" panicked at cycle 3: ` + call + " inside a run-ahead section"; !strings.HasPrefix(msg, want) {
				t.Fatalf("Run panicked with %q, want %q", msg, want)
			}
		})
	}
}

// TestRunAheadOffUnderTracer: with a tracer attached a section is not
// opened, so every park is taken and recorded as a run span.
func TestRunAheadOffUnderTracer(t *testing.T) {
	e := New()
	e.SetTracer(trace.New(64))
	e.Spawn("peer", false, func(a *Actor) { a.Advance(1); a.Advance(1) })
	e.Spawn("core", false, func(a *Actor) {
		a.BeginRunAhead()
		a.Advance(5)
		a.Advance(5)
		a.Stopping() // allowed: no section is open
		a.EndRunAhead()
	})
	e.Run()
	if e.replays != 0 {
		t.Fatalf("%d parks replayed under a tracer, want 0", e.replays)
	}
}
