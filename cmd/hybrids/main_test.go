package main

import (
	"strings"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	cases := []struct {
		name     string
		parallel int
		wantFlag string // "" = accepted
	}{
		{"defaults", 2, ""},
		{"overrides", 4, ""},
		{"serial", 0, ""},
		// Regression: this used to run the scale's default without a word.
		{"negative-parallel", -1, "-parallel"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := checkFlags(c.parallel)
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
