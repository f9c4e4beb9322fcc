package engine

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
)

// The dispatch-order golden. orderProgram runs a seeded random program of
// Advance, Block, Unblock and spawn-during-run over 16 workers and two
// doorbell daemons, and hashes every step's (actor, time, dispatched?)
// record in the order the steps executed, which pins the interleaving and
// which steps parked. The expected values below were recorded with the
// goroutine-and-channel engine this one replaced (commit b00d3c1), so the
// test asserts that the execution model changed and the schedule did not.
const (
	orderSeed       = 20261003
	orderHash       = uint64(0x57e0273e471c1d16)
	orderSteps      = 3898
	orderDispatches = 2626
	orderBlocks     = 529
	orderUnblocks   = 925
	orderEnd        = 5758
)

type orderResult struct {
	hash                                 uint64
	steps                                int
	dispatches, blocks, unblocks, endNow uint64
}

func orderProgram(seed int64) orderResult {
	e := New()
	h := fnv.New64a()
	steps := 0
	var lastDispatch uint64
	// note records one executed step; dispatched says the engine
	// dispatched an event (this actor's) since the previous step.
	note := func(a *Actor) {
		d := e.stDispatches.Value()
		var rec [17]byte
		for i := 0; i < 8; i++ {
			rec[i] = byte(uint64(a.ID) >> (8 * i))
			rec[8+i] = byte(a.Now() >> (8 * i))
		}
		if d != lastDispatch {
			rec[16] = 1
		}
		lastDispatch = d
		h.Write(rec[:])
		steps++
	}

	var all, waiting []*Actor
	running := 0 // workers with an event pending or executing
	spawned := 0
	var daemons []*Actor

	var worker func(rng *rand.Rand, ops int) func(*Actor)
	worker = func(rng *rand.Rand, ops int) func(*Actor) {
		return func(a *Actor) {
			note(a)
			for i := 0; i < ops; i++ {
				switch r := rng.Intn(100); {
				case r < 55:
					a.Advance(uint64(rng.Intn(40))) // 0 is a pure yield
				case r < 70:
					// Block only while another worker can still run: the
					// last runnable worker finishes and wakes the rest.
					if running > 1 {
						running--
						waiting = append(waiting, a)
						a.Block()
						running++
						for j, w := range waiting {
							if w == a {
								waiting = append(waiting[:j], waiting[j+1:]...)
								break
							}
						}
					}
				case r < 82:
					if len(waiting) > 0 {
						a.Unblock(waiting[rng.Intn(len(waiting))], uint64(rng.Intn(20)))
					}
				case r < 90:
					// Any actor: running or parked in Advance (a pending
					// permit), blocked (a wake-up), finished (ignored).
					a.Unblock(all[rng.Intn(len(all))], uint64(rng.Intn(20)))
				case r < 95:
					a.Unblock(daemons[rng.Intn(len(daemons))], uint64(rng.Intn(8)))
				default:
					if spawned < 12 {
						spawned++
						running++
						child := rand.New(rand.NewSource(rng.Int63()))
						all = append(all, e.Spawn(fmt.Sprintf("child%d", spawned), false, worker(child, 40)))
					}
				}
				note(a)
			}
			running--
			for _, w := range waiting {
				a.Unblock(w, uint64(rng.Intn(20)))
			}
			note(a)
		}
	}

	for i := 0; i < 2; i++ {
		daemons = append(daemons, e.Spawn(fmt.Sprintf("bell%d", i), true, func(a *Actor) {
			for !a.Stopping() {
				a.Block()
				note(a)
				a.Advance(3)
			}
		}))
	}
	for i := 0; i < 16; i++ {
		running++
		rng := rand.New(rand.NewSource(seed + int64(i)))
		all = append(all, e.Spawn(fmt.Sprintf("w%d", i), false, worker(rng, 200)))
	}
	e.Run()
	return orderResult{
		hash:       h.Sum64(),
		steps:      steps,
		dispatches: e.stDispatches.Value(),
		blocks:     e.stBlocks.Value(),
		unblocks:   e.stUnblocks.Value(),
		endNow:     e.Now(),
	}
}

func TestDispatchOrderGolden(t *testing.T) {
	got := orderProgram(orderSeed)
	want := orderResult{orderHash, orderSteps, orderDispatches, orderBlocks, orderUnblocks, orderEnd}
	if got != want {
		t.Fatalf("dispatch order moved:\n got %+v\nwant %+v", got, want)
	}
	if again := orderProgram(orderSeed); again != got {
		t.Fatalf("dispatch order not repeatable:\n 1st %+v\n 2nd %+v", got, again)
	}
	if other := orderProgram(orderSeed + 1); other.hash == got.hash {
		t.Fatalf("hash does not depend on the program: seed %d and %d both give %#x", orderSeed, orderSeed+1, got.hash)
	}
}
