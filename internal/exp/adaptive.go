package exp

import (
	"fmt"
	"io"

	"hybrids/internal/ycsb"
)

// Thresholds of the adaptive boundary rule. Shares are fractions of a
// window's measured cycles (the attr/* buckets).
const (
	adaptAlpha    = 0.5  // EWMA weight of a new window
	adaptDRAMHigh = 0.30 // smoothed DRAM share above which the host portion shrinks
	adaptDRAMLow  = 0.10 // smoothed DRAM share below which the host portion may grow
	adaptWaitHigh = 0.45 // smoothed offload share above which the host portion grows
	adaptCooldown = 1    // windows held after a move, letting caches re-settle
	adaptMinOps   = 64   // smallest window the rule acts on
)

// adaptive is the feedback rule behind boundary-adapt and -boundary
// adaptive: EWMA-smoothed cycle shares with a hysteresis band and a
// post-move cooldown, so the split settles instead of oscillating around
// the crossover. It follows the paper's LLC-sizing argument (§3.3): a
// DRAM share above adaptDRAMHigh means the host portion misses the LLC,
// so a level migrates NMP-side; an offload share (offload wait plus NMP
// serialization) above adaptWaitHigh while the DRAM share sits below
// adaptDRAMLow means the host portion is comfortably cache-resident, so a
// level migrates host-side.
type adaptive struct {
	levels     int     // the structure's full level count
	dram, wait float64 // smoothed DRAM and offload shares
	primed     bool
	cool       int // windows still to hold after a move
	moves      int
}

// decide folds one window's shares into the averages and returns the NMP
// level count to run next: nmp itself when the split holds. A window of
// fewer than adaptMinOps operations is ignored, and a move never leaves
// fewer than one NMP level or no host level.
func (a *adaptive) decide(nmp, ops int, dram, wait float64) int {
	if ops < adaptMinOps {
		return nmp
	}
	if !a.primed {
		a.dram, a.wait, a.primed = dram, wait, true
	} else {
		a.dram += adaptAlpha * (dram - a.dram)
		a.wait += adaptAlpha * (wait - a.wait)
	}
	if a.cool > 0 {
		a.cool--
		return nmp
	}
	next := nmp
	switch {
	case a.dram > adaptDRAMHigh:
		next++
	case a.wait > adaptWaitHigh && a.dram < adaptDRAMLow:
		next--
	default:
		return nmp
	}
	if next < 1 || next >= a.levels {
		return nmp
	}
	a.cool = adaptCooldown
	a.moves++
	return next
}

// boundaryRound is one round of the adaptive loop: the NMP level count it
// measured at, the measured cell, the shares fed to the rule and the
// decision it returned.
type boundaryRound struct {
	nmp        int
	cell       Cell
	dram, wait float64
	decision   string
}

// adaptSkiplistBoundary drives the adaptive rule over the hybrid skiplist:
// each round measures one attribution-enabled cell at the current split,
// feeds its attr/* cycle shares to adaptive.decide, and rebuilds at
// whatever NMP level count the rule asks for next. Rounds are inherently
// sequential (the averages carry across them). The loop stops after two
// consecutive holds or maxRounds, and returns the rounds, the final NMP
// level count and the number of moves.
func adaptSkiplistBoundary(sc Scale, progress io.Writer, maxRounds int) ([]boundaryRound, int, int) {
	w := loadSets{}.onePoint(sc, "", ycsb.YCSBC(sc.SkiplistRecords, sc.KeyMax, sc.Seed))
	rule := adaptive{levels: sc.SkiplistLevels}
	nmp := sc.SkiplistNMPLevels
	var rounds []boundaryRound
	quiet := 0
	for round := 0; round < maxRounds && quiet < 2; round++ {
		scv := sc
		scv.SkiplistNMPLevels = nmp
		scv.Attr = true
		progressf(progress, "  boundary round %d: nmp=%d host=%d\n", round, nmp, sc.SkiplistLevels-nmp)
		cell := runCell(w.job(scv, engineHybrid("skiplist", scv, 1, false), fmt.Sprintf("boundary round %d nmp=%d", round, nmp), ""), nil, nil)
		cell.Label = fmt.Sprintf("round=%d,nmp-levels=%d", round, nmp)

		var dram, wait float64
		if a := cell.Attr; a != nil && a.Total > 0 {
			tot := float64(a.Total)
			dram = float64(a.DRAM) / tot
			wait = float64(a.OffloadWait)/tot + float64(a.NMPSerial)/tot
		}
		next := rule.decide(nmp, cell.Ops, dram, wait)
		decision := "hold"
		if next != nmp {
			decision = fmt.Sprintf("nmp %d -> %d", nmp, next)
			quiet = 0
		} else {
			quiet++
		}
		rounds = append(rounds, boundaryRound{nmp: nmp, cell: cell, dram: dram, wait: wait, decision: decision})
		nmp = next
	}
	return rounds, nmp, rule.moves
}

// AdaptBoundary runs the adaptive boundary loop at sc's scale and returns
// the skiplist NMP level count it ends at — the -boundary adaptive entry
// point of cmd/hybrids, which reruns its grids there instead of at the
// paper's static crossover.
func AdaptBoundary(sc Scale, progress io.Writer) int {
	_, nmp, _ := adaptSkiplistBoundary(sc, progress, 6)
	return nmp
}

// runBoundaryAdapt reports the adaptive rule's trajectory round by round,
// against the paper's static crossover (the scale's configured skiplist
// split, where ablate-split finds the knee).
func runBoundaryAdapt(sc Scale, progress io.Writer) Result {
	res := Result{
		ID: "boundary-adapt", Title: "Adaptive host/NMP boundary: skiplist feedback-policy trajectory (YCSB-C, 8 threads, blocking, scale " + sc.Name + ")",
		Header: []string{"round", "NMP levels", "host levels", "Mops/s", "DRAM share", "offload share", "decision"},
	}
	rounds, nmp, moves := adaptSkiplistBoundary(sc, progress, 6)
	for i, r := range rounds {
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(i), fmt.Sprint(r.nmp), fmt.Sprint(sc.SkiplistLevels - r.nmp),
			f2(r.cell.MOpsPerSec), f2(r.dram), f2(r.wait), r.decision,
		})
		res.Cells = append(res.Cells, r.cell)
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("policy: adaptive EWMA over attr/* cycle shares + offload round trip; started at the paper's static split nmp=%d, converged at nmp=%d after %d move(s)",
			sc.SkiplistNMPLevels, nmp, moves),
		"each round measures one attribution-enabled cell at the policy's current split; convergence = two consecutive holds (compare the knee ablate-split finds)")
	return res
}
