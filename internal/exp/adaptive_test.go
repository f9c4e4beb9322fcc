package exp

import "testing"

// busyWindow is the op count of a window the adaptive rule acts on.
const busyWindow = 1 << 12

func TestAdaptiveShrinksHostOnDRAMPressure(t *testing.T) {
	a := adaptive{levels: 16}
	if got := a.decide(4, busyWindow, 0.6, 0); got != 5 {
		t.Fatalf("DRAM pressure at nmp=4: next %d, want 5", got)
	}
	// Cooldown: the very next window holds even under pressure.
	if got := a.decide(5, busyWindow, 0.6, 0); got != 5 {
		t.Fatalf("moved during the cooldown: next %d", got)
	}
	// After the cooldown the pressure moves it again.
	if got := a.decide(5, busyWindow, 0.6, 0); got != 6 {
		t.Fatalf("after the cooldown: next %d, want 6", got)
	}
	if a.moves != 2 {
		t.Fatalf("moves = %d, want 2", a.moves)
	}
}

func TestAdaptiveGrowsHostWhenOffloadDominated(t *testing.T) {
	a := adaptive{levels: 16}
	if got := a.decide(6, busyWindow, 0.02, 0.7); got != 5 {
		t.Fatalf("offload-dominated at nmp=6 with a cache-resident host: next %d, want 5", got)
	}
}

func TestAdaptiveHoldsInsideHysteresisBand(t *testing.T) {
	a := adaptive{levels: 16}
	// Moderate everything: no threshold crossed.
	for i := range 4 {
		if got := a.decide(4, busyWindow, 0.2, 0.3); got != 4 {
			t.Fatalf("moved inside the hysteresis band (round %d): next %d", i, got)
		}
	}
}

func TestAdaptiveIgnoresThinWindows(t *testing.T) {
	a := adaptive{levels: 16}
	if got := a.decide(4, 3, 0.9, 0); got != 4 {
		t.Fatalf("moved on a window below adaptMinOps: next %d", got)
	}
	if a.primed || a.dram != 0 || a.wait != 0 {
		t.Fatal("a thin window was folded into the averages")
	}
}

func TestAdaptiveRespectsFloors(t *testing.T) {
	// One NMP level left: an offload-dominated profile cannot remove it.
	a := adaptive{levels: 16}
	if got := a.decide(1, busyWindow, 0.01, 0.9); got != 1 {
		t.Fatalf("moved below one NMP level: next %d", got)
	}
	// One host level left: DRAM pressure cannot consume it.
	a = adaptive{levels: 16}
	if got := a.decide(15, busyWindow, 0.9, 0); got != 15 {
		t.Fatalf("consumed the last host level: next %d", got)
	}
	if a.moves != 0 {
		t.Fatalf("moves = %d at the floors, want 0", a.moves)
	}
}
