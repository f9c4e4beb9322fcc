// Package boundary owns the host/NMP boundary decision the paper fixes
// statically at LLC size (§4): how many of a hybrid structure's levels
// stay in the host-managed (LLC-resident) portion and how many are pushed
// NMP-side. It is a simulator concept: the simulated hybrids of
// internal/dsim take their Split from here at construction instead of
// hard-coding a constant per structure. The native runtime has no host
// portion to size — a partition is key / span — so nothing native
// consumes this package.
//
// A Policy decides when the boundary should move. Static never moves it
// (the paper's configuration). Adaptive closes the ROADMAP's feedback
// loop: it watches the per-operation attribution shares the simulator
// already collects (attr/* histograms: host-cache vs DRAM vs offload-wait
// cycles) and the offload round-trip EWMA, and migrates levels toward
// whichever side the cycles say is mis-sized — a DRAM-heavy host portion
// has outgrown the LLC (shrink it), an offload-wait-heavy profile with a
// cache-resident host portion can afford more host levels (grow it).
package boundary

import (
	"fmt"
)

// Split is one structure's host/NMP boundary: Total levels overall, the
// bottom NMP of them NMP-side, the remaining top Host() levels in the
// host-managed portion. Engines whose total height follows from fan-out
// (the B+ tree) publish Total 0 and size only the NMP portion.
type Split struct {
	// Total is the structure's full level count (0 = derived by the
	// engine, e.g. from B+ tree fan-out).
	Total int
	// NMP is the number of bottom levels placed NMP-side.
	NMP int
}

// Host returns the host-managed level count, Total-NMP (meaningful only
// when Total is fixed; 0 when the engine derives its height).
func (s Split) Host() int {
	if s.Total <= 0 {
		return 0
	}
	return s.Total - s.NMP
}

// Validate checks that the split partitions a fixed-height structure:
// at least one NMP level and, when Total is fixed, at least one host
// level.
func (s Split) Validate() error {
	if s.NMP < 1 {
		return fmt.Errorf("boundary: NMP levels must be >= 1 (got %d)", s.NMP)
	}
	if s.Total > 0 && s.NMP >= s.Total {
		return fmt.Errorf("boundary: NMP levels %d must leave a host portion (total %d)", s.NMP, s.Total)
	}
	return nil
}

// Sample is one observation window's boundary-relevant signals, fed to a
// Policy. The attribution shares are fractions of measured cycles in
// [0,1] (the simulator's attr/* vocabulary).
type Sample struct {
	// Engine names the structure the sample describes.
	Engine string
	// HostCache is the share of cycles spent in on-chip host accesses.
	HostCache float64
	// DRAM is the share of cycles spent in host DRAM accesses — the
	// signal that the host portion has outgrown the LLC.
	DRAM float64
	// OffloadWait is the share of cycles spent blocked on NMP round
	// trips — the signal that too much structure is NMP-side.
	OffloadWait float64
	// NMPSerial is the share of cycles serialized behind NMP combiners.
	NMPSerial float64
	// RTT is the mean offload round-trip in virtual cycles; informational,
	// smoothed for reporting.
	RTT float64
	// Ops is the number of operations the window observed; windows with
	// too few operations are ignored.
	Ops uint64
}

// Policy decides whether the boundary should move given the current
// split and a fresh observation window.
type Policy interface {
	// Name is the policy's registry name ("static", "adaptive").
	Name() string
	// Decide returns the split the engine should run next and whether it
	// differs from cur. Policies are stateful (EWMAs, cooldowns) and not
	// safe for concurrent use; callers serialize Decide.
	Decide(cur Split, s Sample) (Split, bool)
}

// Static is the paper's fixed boundary: never moves.
type Static struct{}

// Name returns "static".
func (Static) Name() string { return "static" }

// Decide keeps the current split.
func (Static) Decide(cur Split, _ Sample) (Split, bool) { return cur, false }

// Adaptive is the feedback policy: EWMA-smoothed attribution shares with
// a hysteresis band and a post-move cooldown, so the boundary converges
// instead of oscillating around the crossover.
//
// The rule mirrors the paper's LLC-sizing argument (§3.3): when the DRAM
// share exceeds DRAMHigh the host portion is missing the LLC, so a level
// migrates NMP-side (host shrinks); when the offload-dominated share
// (offload-wait + NMP-serial) exceeds WaitHigh while the DRAM share sits
// below DRAMLow, the host portion is comfortably cache-resident and a
// level migrates host-side (host grows).
type Adaptive struct {
	// Alpha is the EWMA weight of a new sample (default 0.5).
	Alpha float64
	// DRAMHigh is the smoothed DRAM share above which the host portion
	// shrinks (default 0.30).
	DRAMHigh float64
	// DRAMLow is the smoothed DRAM share below which the host portion
	// may grow (default 0.10).
	DRAMLow float64
	// WaitHigh is the smoothed offload-dominated share above which the
	// host portion grows (default 0.45).
	WaitHigh float64
	// Cooldown is the number of Decide calls skipped after a move
	// (default 1), letting the structure and caches re-settle.
	Cooldown int
	// MinNMP floors the NMP-side level count (default 1).
	MinNMP int
	// MinOps is the smallest observation window Decide acts on
	// (default 64).
	MinOps uint64

	ewmaDRAM float64
	ewmaWait float64
	ewmaRTT  float64
	primed   bool
	cool     int
	moves    int
}

// NewAdaptive returns an Adaptive policy with default thresholds.
func NewAdaptive() *Adaptive { return &Adaptive{} }

// Name returns "adaptive".
func (*Adaptive) Name() string { return "adaptive" }

// Moves returns the number of boundary moves the policy has decided.
func (a *Adaptive) Moves() int { return a.moves }

// Smoothed returns the current EWMA state (DRAM share, offload-dominated
// share, RTT) for reporting.
func (a *Adaptive) Smoothed() (dram, wait, rtt float64) {
	return a.ewmaDRAM, a.ewmaWait, a.ewmaRTT
}

func (a *Adaptive) defaults() {
	if a.Alpha == 0 {
		a.Alpha = 0.5
	}
	if a.DRAMHigh == 0 {
		a.DRAMHigh = 0.30
	}
	if a.DRAMLow == 0 {
		a.DRAMLow = 0.10
	}
	if a.WaitHigh == 0 {
		a.WaitHigh = 0.45
	}
	if a.Cooldown == 0 {
		a.Cooldown = 1
	}
	if a.MinNMP == 0 {
		a.MinNMP = 1
	}
	if a.MinOps == 0 {
		a.MinOps = 64
	}
}

// Decide folds the sample into the EWMAs and applies the threshold rule.
func (a *Adaptive) Decide(cur Split, s Sample) (Split, bool) {
	a.defaults()
	if s.Ops < a.MinOps {
		return cur, false
	}
	wait := s.OffloadWait + s.NMPSerial
	if !a.primed {
		a.ewmaDRAM, a.ewmaWait, a.ewmaRTT = s.DRAM, wait, s.RTT
		a.primed = true
	} else {
		a.ewmaDRAM += a.Alpha * (s.DRAM - a.ewmaDRAM)
		a.ewmaWait += a.Alpha * (wait - a.ewmaWait)
		a.ewmaRTT += a.Alpha * (s.RTT - a.ewmaRTT)
	}
	if a.cool > 0 {
		a.cool--
		return cur, false
	}
	next := cur
	switch {
	case a.ewmaDRAM > a.DRAMHigh:
		// Host portion misses the LLC: migrate a level NMP-side.
		next.NMP++
	case a.ewmaWait > a.WaitHigh && a.ewmaDRAM < a.DRAMLow:
		// Offload-dominated with a cache-resident host portion: migrate a
		// level host-side.
		next.NMP--
	default:
		return cur, false
	}
	if next.NMP < a.MinNMP || next.Validate() != nil {
		return cur, false
	}
	a.cool = a.Cooldown
	a.moves++
	return next, true
}

// ParsePolicy maps a -boundary flag value onto a Policy.
func ParsePolicy(name string) (Policy, error) {
	switch name {
	case "static":
		return Static{}, nil
	case "adaptive":
		return NewAdaptive(), nil
	}
	return nil, fmt.Errorf("boundary: unknown policy %q (valid: static, adaptive)", name)
}
