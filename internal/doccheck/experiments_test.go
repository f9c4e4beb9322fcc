package doccheck

import (
	"os"
	"strings"
	"testing"
)

// rawTablesStart is the heading EXPERIMENTS.md's raw tables begin with:
// the first section `hybrids -exp all -scale small -markdown` prints.
const rawTablesStart = "### Table 1 (scale: small)\n"

// TestExperimentsRawTablesMatchGolden requires EXPERIMENTS.md, from its
// raw tables' first heading to its end, to equal the checked-in output of
// `go run ./cmd/hybrids -exp all -scale small -q -markdown`
// (internal/exp/testdata/all-small.md), trailing newlines aside. It
// compares the two files and runs no simulation; CI regenerates the
// golden and compares it with the program's output.
func TestExperimentsRawTablesMatchGolden(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("../exp/testdata/all-small.md")
	if err != nil {
		t.Fatal(err)
	}
	i := strings.Index(string(doc), rawTablesStart)
	if i < 0 {
		t.Fatalf("EXPERIMENTS.md has no %q heading", strings.TrimSpace(rawTablesStart))
	}
	got, want := strings.TrimRight(string(doc[i:]), "\n"), strings.TrimRight(string(golden), "\n")
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for n := range min(len(gl), len(wl)) {
		if gl[n] != wl[n] {
			t.Fatalf("EXPERIMENTS.md's raw tables differ from all-small.md at line %d of the tables:\n doc:    %s\n golden: %s", n+1, gl[n], wl[n])
		}
	}
	t.Fatalf("EXPERIMENTS.md's raw tables have %d lines, all-small.md %d", len(gl), len(wl))
}
