package exp

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"hybrids/internal/ycsb"
)

// TestSharedImagesMatchFreshBuilds is the direct check that a bulk build
// leaves nothing behind that Restore misses (Go-side state, timing state,
// allocator marks): cells measured through shared images must equal, field
// for field, the same cells measured as groups of one, each on its own
// fresh build. It covers every registered experiment, and — because the
// registered thread sweeps are read-only — a 50-25-25 sweep of every
// variant, whose inserts allocate past the restored marks and whose
// stores copy image pages. Attribution is on so the comparison includes
// the per-bucket cycle sums.
func TestSharedImagesMatchFreshBuilds(t *testing.T) {
	sc := QuickScale()
	sc.ThreadCounts = []int{1, 2, 4}
	sc.Attr = true
	grids := map[string]func() []Cell{}
	for _, e := range Registry() {
		grids[e.ID] = func() []Cell { return e.Run(sc, nil).Cells }
	}
	mixSweep := func(records int, variants []*variant) func() []Cell {
		return func() []Cell {
			var cells []Cell
			grid := runGrid(sc, nil, "mix", variants,
				threadSweep(sc, ycsb.Mix(records, sc.KeyMax, 50, 25, 25, sc.Seed), sc.ThreadCounts))
			for _, v := range variants {
				cells = append(cells, grid[v.name]...)
			}
			return cells
		}
	}
	grids["mix skiplist"] = mixSweep(sc.SkiplistRecords, skiplistVariants(sc))
	grids["mix btree"] = mixSweep(sc.BTreeRecords, btreeVariants(sc))
	grids["mix bskiplist"] = mixSweep(sc.BSkiplistRecords, engineVariants("bskiplist", sc))

	run := func(grid func() []Cell, solo bool) []Cell {
		soloGroups = solo
		defer func() { soloGroups = false }()
		clear(btreeSensitivityMemo)
		defer clear(btreeSensitivityMemo)
		return grid()
	}
	for id, grid := range grids {
		shared, fresh := run(grid, false), run(grid, true)
		if len(shared) != len(fresh) || len(shared) == 0 && id != "table1" {
			t.Fatalf("%s: %d cells through images, %d freshly built", id, len(shared), len(fresh))
		}
		for i := range shared {
			if !reflect.DeepEqual(shared[i], fresh[i]) {
				t.Errorf("%s cell %d (%s threads=%d): through an image\n%+v\nfreshly built\n%+v",
					id, i, shared[i].Variant, shared[i].Threads, shared[i], fresh[i])
			}
		}
	}
}

// TestAllQuickMatchesGolden pins simulator output: testdata/all-quick.json
// is `cmd/hybrids -exp all -scale quick -json` as the commit before image
// groups printed it, and every later commit must reproduce it byte for
// byte. A change that means to move a simulated result regenerates the
// file and says so.
func TestAllQuickMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/all-quick.json")
	if err != nil {
		t.Fatal(err)
	}
	sc := QuickScale()
	clear(btreeSensitivityMemo)
	var results []Result
	for _, e := range Registry() {
		results = append(results, e.Run(sc, nil))
	}
	var got bytes.Buffer
	enc := json.NewEncoder(&got)
	enc.SetIndent("", "  ")
	if err := enc.Encode(struct {
		Scale   string   `json:"scale"`
		Results []Result `json:"results"`
	}{sc.Name, results}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("-exp all -scale quick -json no longer reproduces testdata/all-quick.json (%d bytes, want %d); diff `go run ./cmd/hybrids -exp all -scale quick -q -json` against it",
			got.Len(), len(want))
	}
}
