package exp

import (
	"io"
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

// imageGroup is two or more cells of one grid that put the same variant on
// the same load set, and therefore on byte-identical built machines. The
// member that gets there first bulk-builds and snapshots its machine; the
// others restore the image instead of building.
type imageGroup struct {
	once sync.Once
	img  *memsys.Image
	left atomic.Int32 // members yet to load; the last one drops the image
}

// load gives m's freshly opened structure its loaded state, by build or by
// restoring the group's image. A nil group is a group of one: it builds,
// and takes no snapshot nobody would restore.
func (g *imageGroup) load(m *machine.Machine, build func()) {
	if g == nil {
		build()
		return
	}
	built := false
	g.once.Do(func() {
		build()
		g.img = m.Mem.Snapshot()
		built = true
	})
	if !built {
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
// declaration order. Jobs that share one *variant, one load slice and one
// machine configuration form an imageGroup and build once between them.
// Execution is group by group (variant-major, where grids declare
// thread-count-major), so a group's image is dropped before the next
// group's is built and at most one image per worker is live. With
// sc.Parallel > 1, cells run concurrently on a worker pool, a group's
// members sharing its image read-only.
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
		v    *variant
		load *ycsb.Pair
		mach machine.Config
		solo int
	}
	members := map[groupKey][]int{}
	var keys []groupKey // first-appearance order
	for i, j := range jobs {
		k := groupKey{v: j.v, mach: j.sc.Machine}
		if len(j.load) > 0 {
			k.load = &j.load[0]
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
		next atomic.Int64
		mu   sync.Mutex // serializes progress lines
	)
	work := func() {
		for {
			n := int(next.Add(1)) - 1
			if n >= len(order) {
				return
			}
			i, j := order[n], jobs[order[n]]
			if progress != nil {
				mu.Lock()
				progressf(progress, "  %s...\n", j.progress)
				mu.Unlock()
			}
			var ts *TraceSpec
			if i == traced {
				ts = sc.Trace
			}
			out[i] = runCell(j, ts, groups[i])
			out[i].Label = j.label
		}
	}
	workers := min(sc.Parallel, len(jobs))
	if workers <= 1 {
		work()
		return out
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
	return out
}
