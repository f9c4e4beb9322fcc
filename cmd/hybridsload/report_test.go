package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hybrids/internal/admin"
	"hybrids/internal/ycsb"
)

// TestReportForms measures a two-workload suite, closed and open loop,
// against an in-process hybridsd whose admin plane is scraped, and checks
// each report in all three forms. The JSON carries every key the CI
// serving smoke reads (meta.{go,os_arch,gomaxprocs,commit}, cells[].label,
// cells[].metrics with its load/ and server/ keys) plus throughput_mops,
// wall_ns, threads and ops, and none of the simulator's cycles or
// reads_per_op. The text and markdown tables have one row per workload
// and every note.
func TestReportForms(t *testing.T) {
	const records, keyMax, seed = 1024, 1 << 14, 5
	srv, h, addr := startServer(t, keyMax)
	adm := httptest.NewServer(admin.New(admin.Config{Server: srv, Hybrid: h}).Handler())
	defer adm.Close()
	specs, err := parseWorkloads("c,e", records, keyMax, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := preload(addr, ycsb.New(specs[0].cfg).Load()); err != nil {
		t.Fatal(err)
	}
	closed := loadFlags{addr: addr, conns: 2, depth: 8, ops: 300, warmup: 32, scrape: adm.URL}
	open := closed
	open.rate, open.slo = 50000, 20*time.Millisecond
	for _, lf := range []loadFlags{closed, open} {
		res, err := measure(lf, specs)
		if err != nil {
			t.Fatalf("rate %v: %v", lf.rate, err)
		}
		var b bytes.Buffer
		if err := res.write(&b, true, false); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Meta  map[string]string
			Cells []map[string]any
		}
		if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
			t.Fatalf("rate %v: %v\n%s", lf.rate, err, b.String())
		}
		for _, k := range []string{"go", "os_arch", "gomaxprocs", "commit"} {
			if doc.Meta[k] == "" {
				t.Errorf("rate %v: meta lacks %q: %v", lf.rate, k, doc.Meta)
			}
		}
		if len(doc.Cells) != len(specs) {
			t.Fatalf("rate %v: %d cells, want %d", lf.rate, len(doc.Cells), len(specs))
		}
		for i, c := range doc.Cells {
			if want := "ycsb-" + specs[i].key; c["label"] != want {
				t.Errorf("rate %v: cell %d label %v, want %s", lf.rate, i, c["label"], want)
			}
			for _, k := range []string{"throughput_mops", "wall_ns", "threads", "ops"} {
				if v, _ := c[k].(float64); v <= 0 {
					t.Errorf("rate %v: cell %d %s = %v, want > 0", lf.rate, i, k, c[k])
				}
			}
			for _, k := range []string{"cycles", "reads_per_op"} {
				if _, ok := c[k]; ok {
					t.Errorf("rate %v: cell %d carries %s", lf.rate, i, k)
				}
			}
			m, _ := c["metrics"].(map[string]any)
			for _, k := range []string{"load/ok", "load/bad", "load/allocs_per_op", "load/scan_pairs"} {
				if _, ok := m[k]; !ok {
					t.Errorf("rate %v: cell %d metrics lack %s: %v", lf.rate, i, k, m)
				}
			}
			if v, _ := m["server/requests"].(float64); v <= 0 {
				t.Errorf("rate %v: cell %d server/requests = %v, want > 0", lf.rate, i, m["server/requests"])
			}
			if _, ok := m["load/target_rate"]; ok != (lf.rate > 0) {
				t.Errorf("rate %v: cell %d has load/target_rate %v", lf.rate, i, ok)
			}
		}

		for _, markdown := range []bool{false, true} {
			b.Reset()
			if err := res.write(&b, false, markdown); err != nil {
				t.Fatal(err)
			}
			out := b.String()
			rows := map[string]int{}
			for _, line := range strings.Split(out, "\n") {
				if f := strings.Fields(strings.TrimPrefix(line, "| ")); len(f) > 0 {
					rows[f[0]]++
				}
			}
			for _, first := range []string{"workload", specs[0].key, specs[1].key} {
				if rows[first] != 1 {
					t.Errorf("rate %v markdown %v: %d rows start with %q, want 1:\n%s", lf.rate, markdown, rows[first], first, out)
				}
			}
			for _, n := range res.Notes {
				if !strings.Contains(out, n) {
					t.Errorf("rate %v markdown %v: note %q missing:\n%s", lf.rate, markdown, n, out)
				}
			}
		}
	}
}
