package exp

import (
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"hybrids/internal/dsim/kv"
	"hybrids/internal/sim/machine"
	"hybrids/internal/sim/memsys"
	"hybrids/internal/ycsb"
)

// cellJob declares one grid point before anything runs: the scale and
// variant to build, plus the exact preloaded keys and per-thread operation
// streams the cell's machine will see. Experiments declare their whole
// grid as a job list up front, which is what lets the harness execute
// cells in any order — or concurrently — and still assemble rows in a
// fixed deterministic order afterwards.
type cellJob struct {
	sc      Scale
	v       *variant
	load    []ycsb.Pair
	streams [][]kv.Op
	// progress is the cell's progress line (without indentation/ellipsis).
	progress string
	// label is assigned to the measured Cell.Label (experiments with a
	// per-cell axis beyond variant and thread count).
	label string
}

// imageGroup is two or more cells of one grid whose builds read the same
// inputs — one build key, equal load sets, one machine configuration — and
// therefore leave byte-identical built machines. The member that gets there
// first bulk-builds and snapshots its machine; the others restore the
// image instead of building.
type imageGroup struct {
	once   sync.Once
	img    *memsys.Image
	failed string       // why img is nil after once: the building cell and its panic
	left   atomic.Int32 // members yet to load; the last one drops the image
}

// builds counts bulk builds run, so tests can pin how many a grid takes.
var builds atomic.Int64

// load gives m's freshly opened structure its loaded state, by build or by
// restoring the group's image; cell names the loading cell. A nil group is
// a group of one: it builds, and takes no snapshot nobody would restore.
// When the group's build panics, the members that were to restore it panic
// too, naming the building cell.
func (g *imageGroup) load(m *machine.Machine, cell string, build func()) {
	if g == nil {
		builds.Add(1)
		build()
		return
	}
	built := false
	g.once.Do(func() {
		defer func() {
			if r := recover(); r != nil {
				g.failed = fmt.Sprintf("image group build failed in cell %q: %v", cell, r)
				panic(r)
			}
		}()
		builds.Add(1)
		build()
		g.img = m.Mem.Snapshot()
		built = true
	})
	if !built {
		if g.img == nil {
			panic(g.failed)
		}
		m.Mem.Restore(g.img)
	}
	if g.left.Add(-1) == 0 {
		g.img = nil // the built pages now live only as long as the machines sharing them
	}
}

// soloGroups makes every cell a group of one. Only tests set it, to check
// that restoring an image is indistinguishable from building.
var soloGroups bool

// runCells measures every declared grid cell and returns the cells in
// declaration order. Jobs whose variants declare one build key, over equal
// load sets (by content, not slice identity, though loadSets hands equal
// ones out as one slice) on one machine configuration, form an imageGroup
// and build once between them. Execution is group by
// group (variant-major, where grids declare thread-count-major), so a
// group's image is dropped before the next group's is built and at most
// one image per worker is live. With sc.Parallel > 1, cells run
// concurrently on a worker pool, a group's members sharing its image
// read-only. The first cell to panic stops the pool from starting more, and
// its panic is re-raised here, on the caller.
//
// Determinism: each cell simulates on a private machine (its own engine,
// memory system and metrics registry) inside runCell, and jobs share only
// inputs that no cell mutates (the load set, the operation streams and
// image pages, which a machine copies before storing to). A cell's
// measurement therefore cannot depend on which worker runs it, on what
// runs beside it, or on whether it built or restored, so output is
// bit-identical at any worker count; only the interleaving of progress
// lines varies.
func runCells(sc Scale, progress io.Writer, jobs []cellJob) []Cell {
	out := make([]Cell, len(jobs))
	// A TraceSpec captures exactly one cell: the first declared job of the
	// first grid to claim it, which is deterministic regardless of worker
	// count or scheduling.
	traced := -1
	if len(jobs) > 0 && sc.Trace.claim() {
		traced = 0
	}

	type groupKey struct {
		build buildKey
		v     *variant // only for the zero build key
		load  int      // index of the equal load set in loads
		mach  machine.Config
		solo  int
	}
	var loads [][]ycsb.Pair // distinct load sets: one slice, or equal contents
	members := map[groupKey][]int{}
	var keys []groupKey // first-appearance order
	for i, j := range jobs {
		k := groupKey{build: j.v.build, mach: j.sc.Machine}
		if k.build == (buildKey{}) {
			k.v = j.v
		}
		if k.load = slices.IndexFunc(loads, func(l []ycsb.Pair) bool {
			return len(l) == len(j.load) && (len(l) == 0 || &l[0] == &j.load[0] || slices.Equal(l, j.load))
		}); k.load < 0 {
			k.load, loads = len(loads), append(loads, j.load)
		}
		if soloGroups {
			k.solo = i + 1
		}
		if members[k] == nil {
			keys = append(keys, k)
		}
		members[k] = append(members[k], i)
	}
	order := make([]int, 0, len(jobs))
	groups := make([]*imageGroup, len(jobs))
	for _, k := range keys {
		order = append(order, members[k]...)
		if n := len(members[k]); n > 1 {
			g := new(imageGroup)
			g.left.Store(int32(n))
			for _, i := range members[k] {
				groups[i] = g
			}
		}
	}

	var (
		next    atomic.Int64
		mu      sync.Mutex // serializes progress lines and guards failure
		failure any        // the first cell panic
	)
	work := func() {
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				if failure == nil {
					failure = r
				}
				mu.Unlock()
				next.Store(int64(len(order))) // start no further cell
			}
		}()
		for {
			n := int(next.Add(1)) - 1
			if n >= len(order) {
				return
			}
			i, j := order[n], jobs[order[n]]
			mu.Lock()
			progressf(progress, "  %s...\n", j.progress)
			mu.Unlock()
			var ts *TraceSpec
			if i == traced {
				ts = sc.Trace
			}
			out[i] = runCell(j, ts, groups[i])
			out[i].Label = j.label
		}
	}
	var wg sync.WaitGroup
	for range max(min(sc.Parallel, len(jobs)), 1) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
	if failure != nil {
		panic(failure)
	}
	return out
}
