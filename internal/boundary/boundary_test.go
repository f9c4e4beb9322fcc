package boundary

import (
	"testing"
)

func TestSplitValidate(t *testing.T) {
	cases := []struct {
		s  Split
		ok bool
	}{
		{Split{Total: 16, NMP: 4}, true},
		{Split{Total: 2, NMP: 1}, true},
		{Split{Total: 0, NMP: 3}, true}, // derived-height engine
		{Split{Total: 16, NMP: 0}, false},
		{Split{Total: 16, NMP: 16}, false},
		{Split{Total: 16, NMP: 17}, false},
		{Split{Total: 0, NMP: 0}, false},
	}
	for _, c := range cases {
		err := c.s.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", c.s, err, c.ok)
		}
	}
	if got := (Split{Total: 16, NMP: 4}).Host(); got != 12 {
		t.Errorf("Host() = %d, want 12", got)
	}
	if got := (Split{Total: 0, NMP: 3}).Host(); got != 0 {
		t.Errorf("derived-height Host() = %d, want 0", got)
	}
}

func TestStaticNeverMoves(t *testing.T) {
	pol := Static{}
	cur := Split{Total: 16, NMP: 4}
	next, move := pol.Decide(cur, Sample{DRAM: 0.99, Ops: 1 << 20})
	if move || next != cur {
		t.Fatalf("static moved: %+v", next)
	}
}

func TestAdaptiveShrinksHostOnDRAMPressure(t *testing.T) {
	pol := NewAdaptive()
	cur := Split{Total: 16, NMP: 4}
	s := Sample{Engine: "skiplist", DRAM: 0.6, Ops: 1 << 12}
	next, move := pol.Decide(cur, s)
	if !move || next.NMP != 5 {
		t.Fatalf("expected NMP 4->5 under DRAM pressure, got %+v move=%v", next, move)
	}
	// Cooldown: the very next window is skipped even under pressure.
	if _, move := pol.Decide(next, s); move {
		t.Fatal("moved during cooldown")
	}
	// After the cooldown the pressure moves it again.
	if got, move := pol.Decide(next, s); !move || got.NMP != 6 {
		t.Fatalf("post-cooldown move: %+v move=%v", got, move)
	}
	if pol.Moves() != 2 {
		t.Fatalf("Moves() = %d, want 2", pol.Moves())
	}
}

func TestAdaptiveGrowsHostWhenOffloadDominated(t *testing.T) {
	pol := NewAdaptive()
	cur := Split{Total: 16, NMP: 6}
	s := Sample{Engine: "skiplist", OffloadWait: 0.5, NMPSerial: 0.2, DRAM: 0.02, Ops: 1 << 12}
	next, move := pol.Decide(cur, s)
	if !move || next.NMP != 5 {
		t.Fatalf("expected NMP 6->5 when offload-dominated, got %+v move=%v", next, move)
	}
}

func TestAdaptiveHoldsInsideHysteresisBand(t *testing.T) {
	pol := NewAdaptive()
	cur := Split{Total: 16, NMP: 4}
	// Moderate everything: no threshold crossed.
	s := Sample{DRAM: 0.2, OffloadWait: 0.3, Ops: 1 << 12}
	for i := 0; i < 4; i++ {
		if _, move := pol.Decide(cur, s); move {
			t.Fatalf("moved inside hysteresis band (round %d)", i)
		}
	}
}

func TestAdaptiveIgnoresThinWindows(t *testing.T) {
	pol := NewAdaptive()
	cur := Split{Total: 16, NMP: 4}
	if _, move := pol.Decide(cur, Sample{DRAM: 0.9, Ops: 3}); move {
		t.Fatal("moved on a window below MinOps")
	}
	d, w, _ := pol.Smoothed()
	if d != 0 || w != 0 {
		t.Fatal("thin window folded into EWMAs")
	}
}

func TestAdaptiveRespectsFloors(t *testing.T) {
	pol := NewAdaptive()
	// NMP already at MinNMP: an offload-dominated profile cannot push below.
	cur := Split{Total: 16, NMP: 1}
	if _, move := pol.Decide(cur, Sample{OffloadWait: 0.9, DRAM: 0.01, Ops: 1 << 12}); move {
		t.Fatal("moved below MinNMP")
	}
	// One host level left: DRAM pressure cannot consume it.
	pol = NewAdaptive()
	cur = Split{Total: 16, NMP: 15}
	if _, move := pol.Decide(cur, Sample{DRAM: 0.9, Ops: 1 << 12}); move {
		t.Fatal("consumed the last host level")
	}
}

func TestParsePolicy(t *testing.T) {
	if p, err := ParsePolicy("static"); err != nil || p.Name() != "static" {
		t.Fatalf("static: %v %v", p, err)
	}
	if p, err := ParsePolicy("adaptive"); err != nil || p.Name() != "adaptive" {
		t.Fatalf("adaptive: %v %v", p, err)
	}
	if _, err := ParsePolicy("chaotic"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}
