package engine

import (
	"encoding/binary"
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

// orderSeeds widens the golden to more programs. Each row was recorded on
// the engine whose Run resumed every dispatched actor itself (commit
// 2f3f113), before parking actors dispatched the next event, so a change to
// who dispatches must leave every row as it is.
var orderSeeds = []struct {
	seed int64
	want orderResult
}{
	{1, orderResult{0x666107a01c78e251, 3901, 2625, 474, 972, 3471}},
	{2, orderResult{0xfa3eb510a98a40c5, 3906, 2649, 486, 961, 4096}},
	{3, orderResult{0x51e977b330373c57, 3913, 2684, 488, 946, 3038}},
	{77, orderResult{0x7c41b79a751f8330, 3908, 2577, 446, 972, 2985}},
	{1000, orderResult{0x890928c2a105b73e, 3907, 2593, 493, 939, 4896}},
	{4096, orderResult{0xfde1cdbf6b01519e, 3911, 2593, 431, 966, 3039}},
	{31337, orderResult{0x12af11a03642133c, 3910, 2609, 475, 943, 3169}},
	{8675309, orderResult{0xd5dfb7245dc318ae, 3907, 2636, 466, 927, 3810}},
}

type orderResult struct {
	hash                                 uint64
	steps                                int
	dispatches, blocks, unblocks, endNow uint64
}

func orderProgram(seed int64) orderResult {
	r, _, _ := runOrder(seed, plainProgram)
	return r
}

// Program modes of runOrder.
const (
	// plainProgram is the golden's program.
	plainProgram = iota
	// privateSegments adds, before a third of a worker's steps, a segment
	// of one to eight Advances whose clock readings only the worker sees.
	privateSegments
	// runAheadSegments runs each of those segments in a run-ahead section.
	runAheadSegments
)

// runOrder runs orderProgram's program in the given mode and also returns
// a hash of every worker's readings inside its segments, in worker order,
// and the engine, for its switch and replay counts.
func runOrder(seed int64, mode int) (orderResult, uint64, *Engine) {
	e := New()
	seen := map[*Actor][]uint64{}
	segment := func(a *Actor, rng *rand.Rand) {
		if mode == runAheadSegments {
			a.BeginRunAhead()
			defer a.EndRunAhead()
		}
		for n := 1 + rng.Intn(8); n > 0; n-- {
			a.Advance(uint64(rng.Intn(30)))
			seen[a] = append(seen[a], a.Now())
		}
	}
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
				if mode != plainProgram && rng.Intn(3) == 0 {
					segment(a, rng)
					note(a)
				}
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
	private := fnv.New64a()
	for _, a := range all {
		for _, t := range seen[a] {
			private.Write(binary.LittleEndian.AppendUint64(nil, t))
		}
	}
	return orderResult{
		hash:       h.Sum64(),
		steps:      steps,
		dispatches: e.stDispatches.Value(),
		blocks:     e.stBlocks.Value(),
		unblocks:   e.stUnblocks.Value(),
		endNow:     e.Now(),
	}, private.Sum64(), e
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
	for _, row := range orderSeeds {
		if got := orderProgram(row.seed); got != row.want {
			t.Errorf("seed %d: dispatch order moved:\n got %+v\nwant %+v", row.seed, got, row.want)
		}
	}
}

// TestRunAheadMatchesParking: the program with private segments gives the
// same observable steps, dispatch count, end clock and in-segment clock
// readings whether each segment parks as it goes or runs ahead in a
// section that dispatch replays, over many seeds; and the sections do
// replay parks and save switches.
func TestRunAheadMatchesParking(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		want, wantSeen, parked := runOrder(seed, privateSegments)
		got, gotSeen, ahead := runOrder(seed, runAheadSegments)
		if got != want || gotSeen != wantSeen {
			t.Fatalf("seed %d: run-ahead sections moved the program:\n got %+v segments %#x\nwant %+v segments %#x", seed, got, gotSeen, want, wantSeen)
		}
		if parked.replays != 0 || ahead.replays == 0 || ahead.switches >= parked.switches {
			t.Fatalf("seed %d: %d replays and %d switches with sections, %d and %d without", seed, ahead.replays, ahead.switches, parked.replays, parked.switches)
		}
	}
}
