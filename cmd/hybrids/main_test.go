package main

import (
	"strings"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	cases := []struct {
		name                               string
		ops, warmup, parallel, traceEvents int
		wantFlag                           string // "" = accepted
	}{
		{"defaults", 0, -1, 2, 0, ""},
		{"overrides", 500, 0, 4, 1024, ""},
		{"serial", 0, -1, 0, 0, ""},
		// Regressions: each of these used to run the scale's default
		// without a word.
		{"negative-ops", -5, -1, 2, 0, "-ops"},
		{"negative-warmup", 0, -2, 2, 0, "-warmup"},
		{"negative-parallel", 0, -1, -1, 0, "-parallel"},
		{"negative-trace-events", 0, -1, 2, -1, "-trace-events"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := checkFlags(c.ops, c.warmup, c.parallel, c.traceEvents)
			switch {
			case c.wantFlag == "" && err != nil:
				t.Fatalf("refused: %v", err)
			case c.wantFlag != "" && err == nil:
				t.Fatalf("accepted, want %s refused", c.wantFlag)
			case c.wantFlag != "" && !strings.HasPrefix(err.Error(), c.wantFlag+" "):
				t.Fatalf("error %q does not name %s", err, c.wantFlag)
			}
		})
	}
}
