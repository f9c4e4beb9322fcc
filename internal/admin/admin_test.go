package admin_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hybrids/internal/admin"
	"hybrids/internal/core"
	"hybrids/internal/server"
)

// harness is a full serving stack — hybrid map, data-plane server on a
// loopback port, admin plane over httptest — for management-plane tests.
type harness struct {
	h    *core.Hybrid
	srv  *server.Server
	adm  *admin.Server
	web  *httptest.Server
	addr string // data-plane address
}

// newHarness starts the stack; Cleanup drains it in production order
// (data plane, map, admin last).
func newHarness(t *testing.T, cfg server.Config, hcfg core.Config) *harness {
	t.Helper()
	return newTokenHarness(t, cfg, hcfg, "")
}

// newTokenHarness is newHarness with the admin plane's bearer token set.
func newTokenHarness(t *testing.T, cfg server.Config, hcfg core.Config, token string) *harness {
	t.Helper()
	h := core.New(hcfg)
	srv := server.New(h, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	adm := admin.New(admin.Config{
		Server: srv,
		Hybrid: h,
		Token:  token,
		Static: map[string]string{"addr": ln.Addr().String()},
	})
	web := httptest.NewServer(adm.Handler())
	t.Cleanup(func() {
		srv.Shutdown()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
		h.Close()
		web.Close()
	})
	return &harness{h: h, srv: srv, adm: adm, web: web, addr: ln.Addr().String()}
}

// get fetches path from the admin plane and returns the body.
func (ha *harness) get(t *testing.T, path string) []byte {
	t.Helper()
	resp, err := http.Get(ha.web.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s\n%s", path, resp.Status, body)
	}
	return body
}

// getJSON fetches path and decodes it into out.
func (ha *harness) getJSON(t *testing.T, path string, out any) {
	t.Helper()
	if err := json.Unmarshal(ha.get(t, path), out); err != nil {
		t.Fatalf("GET %s: decode: %v", path, err)
	}
}

// postConfig POSTs body to /config and returns status code and body.
func (ha *harness) postConfig(t *testing.T, body string) (int, []byte) {
	t.Helper()
	return ha.post(t, "/config", body, "")
}

// post POSTs body to path with an optional bearer token, returning the
// status code and body.
func (ha *harness) post(t *testing.T, path, body, token string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ha.web.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

// metricsDoc mirrors the /metrics.json schema.
type metricsDoc struct {
	Store      string            `json:"store"`
	Counters   map[string]uint64 `json:"counters"`
	Histograms map[string]struct {
		Sum     uint64   `json:"sum"`
		Count   uint64   `json:"count"`
		Mean    float64  `json:"mean"`
		Buckets []uint64 `json:"buckets"`
	} `json:"histograms"`
}

// promFamily is one parsed metric family from the text exposition.
type promFamily struct {
	typ     string
	samples map[string]float64 // sample suffix+labels -> value
}

// parseProm is a hand-rolled validator for the Prometheus text
// exposition format (version 0.0.4): it checks line grammar, metric-name
// syntax, that every sample's family has a preceding TYPE line, and for
// histograms that buckets are cumulative, end at +Inf, and agree with
// _count. It returns the families keyed by base name.
func parseProm(t *testing.T, text []byte) map[string]*promFamily {
	t.Helper()
	nameOK := func(s string) bool {
		for i := 0; i < len(s); i++ {
			c := s[i]
			alpha := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':'
			if !alpha && (i == 0 || c < '0' || c > '9') {
				return false
			}
		}
		return len(s) > 0
	}
	families := make(map[string]*promFamily)
	base := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			b := strings.TrimSuffix(name, suf)
			if b != name {
				if f, ok := families[b]; ok && f.typ == "histogram" {
					return b
				}
			}
		}
		return name
	}
	for ln, line := range strings.Split(string(text), "\n") {
		lno := ln + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) < 3 || (f[1] != "HELP" && f[1] != "TYPE") {
				t.Fatalf("line %d: malformed comment %q", lno, line)
			}
			if !nameOK(f[2]) {
				t.Fatalf("line %d: bad metric name %q", lno, f[2])
			}
			if f[1] == "TYPE" {
				if len(f) != 4 || (f[3] != "counter" && f[3] != "gauge" && f[3] != "histogram") {
					t.Fatalf("line %d: bad TYPE line %q", lno, line)
				}
				if _, dup := families[f[2]]; dup {
					t.Fatalf("line %d: duplicate TYPE for %q", lno, f[2])
				}
				families[f[2]] = &promFamily{typ: f[3], samples: map[string]float64{}}
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: malformed sample %q", lno, line)
		}
		key, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d: bad sample value %q: %v", lno, valStr, err)
		}
		name := key
		if br := strings.IndexByte(key, '{'); br >= 0 {
			name = key[:br]
			if !strings.HasSuffix(key, "}") {
				t.Fatalf("line %d: unterminated labels %q", lno, key)
			}
		}
		if !nameOK(name) {
			t.Fatalf("line %d: bad metric name %q", lno, name)
		}
		fam, ok := families[base(name)]
		if !ok {
			t.Fatalf("line %d: sample %q has no TYPE line", lno, name)
		}
		if _, dup := fam.samples[key]; dup {
			t.Fatalf("line %d: duplicate sample %q", lno, key)
		}
		fam.samples[key] = val
	}
	for name, fam := range families {
		if fam.typ != "histogram" {
			if len(fam.samples) == 0 {
				t.Fatalf("family %q has no samples", name)
			}
			continue
		}
		count, ok := fam.samples[name+"_count"]
		if !ok {
			t.Fatalf("histogram %q missing _count", name)
		}
		if _, ok := fam.samples[name+"_sum"]; !ok {
			t.Fatalf("histogram %q missing _sum", name)
		}
		inf, ok := fam.samples[name+`_bucket{le="+Inf"}`]
		if !ok {
			t.Fatalf("histogram %q missing +Inf bucket", name)
		}
		if inf != count {
			t.Fatalf("histogram %q: +Inf bucket %v != count %v", name, inf, count)
		}
		// Cumulative buckets must be non-decreasing in le order.
		type edge struct {
			le  float64
			cum float64
		}
		var edges []edge
		for key, v := range fam.samples {
			pre := name + `_bucket{le="`
			if strings.HasPrefix(key, pre) && !strings.Contains(key, "+Inf") {
				le, err := strconv.ParseFloat(strings.TrimSuffix(key[len(pre):], `"}`), 64)
				if err != nil {
					t.Fatalf("histogram %q: bad le in %q: %v", name, key, err)
				}
				edges = append(edges, edge{le, v})
			}
		}
		for i := range edges {
			for j := range edges {
				if edges[i].le < edges[j].le && edges[i].cum > edges[j].cum {
					t.Fatalf("histogram %q: bucket le=%v (%v) > le=%v (%v): not cumulative",
						name, edges[i].le, edges[i].cum, edges[j].le, edges[j].cum)
				}
			}
		}
	}
	return families
}

// load runs n pipelined PUT+GET pairs through a fresh data-plane
// connection so counters and histograms are non-trivial, then closes it
// and waits until the server has folded its tallies, so the server/*
// counters hold still for exact comparisons.
func (ha *harness) load(t *testing.T, n int) {
	t.Helper()
	c, err := server.Dial(ha.addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	for i := 1; i <= n; i++ {
		if _, err := c.Put(uint64(i), uint64(i*10)); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
		if _, _, err := c.Get(uint64(i)); err != nil {
			t.Fatalf("Get(%d): %v", i, err)
		}
	}
	c.Close()
	for deadline := time.Now().Add(5 * time.Second); len(ha.srv.ConnsInfo()) > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the server still lists the connection 5s after it closed")
		}
	}
}

// TestPromExposition validates /metrics as Prometheus text exposition
// and cross-checks it against /metrics.json: every counter and histogram
// in the JSON export must appear in the text exposition with a matching
// value.
func TestPromExposition(t *testing.T) {
	ha := newHarness(t, server.Config{Store: "btree", Window: 4},
		core.Config{Partitions: 2, KeyMax: 1 << 12})
	ha.load(t, 64)

	var doc metricsDoc
	ha.getJSON(t, "/metrics.json", &doc)
	if doc.Store != "btree" {
		t.Fatalf("store = %q, want btree", doc.Store)
	}
	if doc.Counters["server/requests"] == 0 || doc.Counters["core/p0/ops"] == 0 {
		t.Fatalf("expected non-zero server and core counters, got %v", doc.Counters)
	}

	fams := parseProm(t, ha.get(t, "/metrics"))
	if info, ok := fams["hybrids_server_info"]; !ok || info.samples[`hybrids_server_info{store="btree"}`] != 1 {
		t.Fatalf("missing hybrids_server_info{store=\"btree\"} gauge")
	}
	mangle := func(name string) string {
		return "hybrids_" + strings.Map(func(r rune) rune {
			if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '_' {
				return r
			}
			return '_'
		}, name)
	}
	// Scraping itself runs partition barriers, which count as
	// rounds — so core/* instruments may advance between the two
	// endpoint reads. Exact match for the quiesced server/* metrics,
	// monotonic (text scraped second, so >=) for core/*.
	for name, v := range doc.Counters {
		fam, ok := fams[mangle(name)]
		if !ok {
			t.Fatalf("counter %q (%s) absent from /metrics", name, mangle(name))
		}
		if fam.typ != "counter" {
			t.Fatalf("counter %q exposed as %s", name, fam.typ)
		}
		got := fam.samples[mangle(name)]
		if strings.HasPrefix(name, "core/") && got >= float64(v) {
			continue
		}
		if got != float64(v) {
			t.Fatalf("counter %q: /metrics %v != /metrics.json %d", name, got, v)
		}
	}
	for name, h := range doc.Histograms {
		fam, ok := fams[mangle(name)]
		if !ok {
			t.Fatalf("histogram %q absent from /metrics", name)
		}
		if fam.typ != "histogram" {
			t.Fatalf("histogram %q exposed as %s", name, fam.typ)
		}
		got := fam.samples[mangle(name)+"_count"]
		if strings.HasPrefix(name, "core/") && got >= float64(h.Count) {
			continue
		}
		if got != float64(h.Count) {
			t.Fatalf("histogram %q: /metrics count %v != /metrics.json %d", name, got, h.Count)
		}
	}
	if _, ok := fams[mangle("server/batch")]; !ok {
		t.Fatalf("server/batch histogram missing from exposition")
	}
}

// TestNoStoreLabelWhenUnset: a server configured without an engine name
// (hybridsd's) carries no empty store label in /metrics.json or in
// hybrids_server_info.
func TestNoStoreLabelWhenUnset(t *testing.T) {
	ha := newHarness(t, server.Config{Window: 4},
		core.Config{Partitions: 2, KeyMax: 1 << 12})
	var doc map[string]json.RawMessage
	ha.getJSON(t, "/metrics.json", &doc)
	if _, ok := doc["store"]; ok {
		t.Fatalf("/metrics.json carries a store key: %s", doc["store"])
	}
	info := parseProm(t, ha.get(t, "/metrics"))["hybrids_server_info"]
	if info == nil || len(info.samples) != 1 || info.samples["hybrids_server_info"] != 1 {
		t.Fatalf("hybrids_server_info samples = %v, want one unlabelled 1", info)
	}
}

// TestConfigRoundTrip proves live reconfiguration: a window change
// POSTed to /config is visible in GET /config, bumps the config epoch,
// and takes effect on the next data-plane connection — observed both in
// /conns (the connection reports the new window) and in behavior (with
// window 1 every coalesced batch has size 1).
func TestConfigRoundTrip(t *testing.T) {
	ha := newHarness(t, server.Config{Window: 8},
		core.Config{Partitions: 2, KeyMax: 1 << 12})

	var before struct {
		Window      int    `json:"window"`
		ConfigEpoch uint64 `json:"config_epoch"`
	}
	ha.getJSON(t, "/config", &before)
	if before.Window != 8 {
		t.Fatalf("initial window = %d, want 8", before.Window)
	}

	code, body := ha.postConfig(t, `{"window": 1}`)
	if code != http.StatusOK {
		t.Fatalf("POST /config: %d\n%s", code, body)
	}
	var after struct {
		Window      int    `json:"window"`
		ConfigEpoch uint64 `json:"config_epoch"`
	}
	if err := json.Unmarshal(body, &after); err != nil {
		t.Fatalf("POST /config response: %v", err)
	}
	if after.Window != 1 || after.ConfigEpoch != before.ConfigEpoch+1 {
		t.Fatalf("after POST: window %d epoch %d, want 1 and %d",
			after.Window, after.ConfigEpoch, before.ConfigEpoch+1)
	}

	// A connection dialed after the POST runs with the new window: eight
	// pipelined requests arrive as eight size-1 batches, never coalesced.
	c, err := server.Dial(ha.addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	reqs := make([]server.Request, 8)
	for i := range reqs {
		reqs[i] = server.Request{Op: server.OpPut, Key: uint64(i + 1), Value: 1}
	}
	if _, err := c.Pipeline(reqs); err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	var conns []server.ConnInfo
	ha.getJSON(t, "/conns", &conns)
	if len(conns) != 1 {
		t.Fatalf("got %d conns, want 1", len(conns))
	}
	ci := conns[0]
	if ci.Window != 1 {
		t.Fatalf("conn window = %d, want 1", ci.Window)
	}
	if ci.Batches != 8 || ci.BatchOps != 8 {
		t.Fatalf("conn batches/batch_ops = %d/%d, want 8/8 (window 1 forbids coalescing)",
			ci.Batches, ci.BatchOps)
	}

	// Invalid configurations are rejected without touching the epoch.
	for _, body := range []string{`{"window": 1000000}`, `{"window": -3}`, `{"window": 0}`, `{"write_timeout": "0s"}`} {
		if code, _ := ha.postConfig(t, body); code != http.StatusBadRequest {
			t.Fatalf("POST %s accepted: %d", body, code)
		}
	}
	if code, _ := ha.postConfig(t, `{"bogus": 1}`); code != http.StatusBadRequest {
		t.Fatalf("unknown field accepted: %d", code)
	}
	if code, _ := ha.postConfig(t, `{"window": 4} {"bogus": 1} trailing`); code != http.StatusBadRequest {
		t.Fatalf("trailing bytes after the JSON value accepted: %d", code)
	}
	var final struct {
		ConfigEpoch uint64 `json:"config_epoch"`
	}
	ha.getJSON(t, "/config", &final)
	if final.ConfigEpoch != after.ConfigEpoch {
		t.Fatalf("epoch moved on rejected POST: %d -> %d", after.ConfigEpoch, final.ConfigEpoch)
	}
}

// TestInflightKnobGone pins that the per-connection in-flight budget is
// gone, not defaulted: a connection is one goroutine with no response
// queue to size, so POST /config refuses the field like any unknown one
// and neither /config nor /conns reports it.
func TestInflightKnobGone(t *testing.T) {
	ha := newHarness(t, server.Config{Window: 4},
		core.Config{Partitions: 2, KeyMax: 1 << 12})
	if code, body := ha.postConfig(t, `{"inflight": 64}`); code != http.StatusBadRequest ||
		!strings.Contains(string(body), "unknown field") {
		t.Fatalf("POST /config {inflight}: %d %q, want 400 unknown field", code, body)
	}
	c, err := server.Dial(ha.addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Put(1, 1); err != nil {
		t.Fatalf("put: %v", err)
	}
	for _, path := range []string{"/config", "/conns"} {
		body := ha.get(t, path)
		if !bytes.Contains(body, []byte(`"window"`)) || bytes.Contains(body, []byte("inflight")) {
			t.Errorf("GET %s: want window and no inflight, got\n%s", path, body)
		}
	}
}

// TestBoundaryNotEnabled pins that the native stack has no host/NMP
// boundary to manage: /boundary answers 404 to both methods, and no
// boundary/ key reaches the merged metrics export.
func TestBoundaryNotEnabled(t *testing.T) {
	ha := newHarness(t, server.Config{Window: 4},
		core.Config{Partitions: 2, KeyMax: 1 << 12})
	resp, err := http.Get(ha.web.URL + "/boundary")
	if err != nil {
		t.Fatalf("GET /boundary: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /boundary: %d, want 404", resp.StatusCode)
	}
	if code, _ := ha.post(t, "/boundary", `{"levels": 8}`, ""); code != http.StatusNotFound {
		t.Fatalf("POST /boundary: %d, want 404", code)
	}
	var md metricsDoc
	ha.getJSON(t, "/metrics.json", &md)
	for name := range md.Counters {
		if strings.HasPrefix(name, "boundary/") {
			t.Errorf("/metrics.json carries %s", name)
		}
	}
	for name := range md.Histograms {
		if strings.HasPrefix(name, "boundary/") {
			t.Errorf("/metrics.json carries histogram %s", name)
		}
	}
}

// TestAdminBearerToken checks the token gate: reads stay open, POST
// /config without the right bearer token is refused and changes nothing,
// and the right token unlocks it.
func TestAdminBearerToken(t *testing.T) {
	ha := newTokenHarness(t, server.Config{Window: 4},
		core.Config{Partitions: 2, KeyMax: 1 << 12}, "s3cret")
	var doc struct {
		Window      int    `json:"window"`
		ConfigEpoch uint64 `json:"config_epoch"`
	}
	for _, tok := range []string{"", "wrong"} {
		if code, _ := ha.post(t, "/config", `{"window": 2}`, tok); code != http.StatusUnauthorized {
			t.Fatalf("POST /config token %q: %d, want 401", tok, code)
		}
	}
	ha.getJSON(t, "/config", &doc)
	if doc.Window != 4 || doc.ConfigEpoch != 0 {
		t.Fatalf("unauthorized POST changed the config: %+v", doc)
	}
	if code, body := ha.post(t, "/config", `{"window": 2}`, "s3cret"); code != http.StatusOK {
		t.Fatalf("authorized POST /config: %d\n%s", code, body)
	}
}

// TestPartitionsEndpoint checks /partitions: one snapshot per partition,
// in order, with op counts and store sizes reflecting the traffic.
func TestPartitionsEndpoint(t *testing.T) {
	ha := newHarness(t, server.Config{Window: 4},
		core.Config{Partitions: 4, KeyMax: 1 << 12})
	ha.load(t, 128)

	var parts []core.PartitionStats
	ha.getJSON(t, "/partitions", &parts)
	if len(parts) != 4 {
		t.Fatalf("got %d partitions, want 4", len(parts))
	}
	var ops, stored uint64
	for i, p := range parts {
		if p.Partition != i {
			t.Fatalf("partition %d reports index %d", i, p.Partition)
		}
		ops += p.Ops
		stored += uint64(p.StoreLen)
	}
	if ops == 0 || stored != 128 {
		t.Fatalf("ops=%d stored=%d, want non-zero ops and 128 stored", ops, stored)
	}
}

// TestScrapeUnderLoad races every admin endpoint against live data-plane
// traffic; run under -race it proves the management plane never touches
// holder-owned or connection-owned state without synchronization.
func TestScrapeUnderLoad(t *testing.T) {
	ha := newHarness(t, server.Config{Window: 4},
		core.Config{Partitions: 2, KeyMax: 1 << 12})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			c, err := server.Dial(ha.addr)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			for i := uint64(1); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := (seed*1_000_003+i)%((1<<12)-1) + 1
				if _, err := c.Put(k, i); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if _, _, err := c.Get(k); err != nil {
					t.Errorf("Get: %v", err)
					return
				}
			}
		}(uint64(w + 1))
	}
	for i := 0; i < 30; i++ {
		for _, path := range []string{"/metrics", "/metrics.json", "/conns", "/partitions", "/config"} {
			ha.get(t, path)
		}
		if i%10 == 0 {
			if code, body := ha.postConfig(t, fmt.Sprintf(`{"window": %d}`, 2+i%7)); code != http.StatusOK {
				t.Fatalf("POST /config under load: %d\n%s", code, body)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestAdminSurvivesDrain proves the documented shutdown order: after the
// data plane has drained and the hybrid map has closed, the admin plane
// still serves the final folded totals on every endpoint.
func TestAdminSurvivesDrain(t *testing.T) {
	h := core.New(core.Config{Partitions: 2, KeyMax: 1 << 12})
	srv := server.New(h, server.Config{Window: 4})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	adm := admin.New(admin.Config{Server: srv, Hybrid: h})
	aln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("admin listen: %v", err)
	}
	admDone := make(chan error, 1)
	go func() { admDone <- adm.Serve(aln) }()

	c, err := server.Dial(ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	for i := uint64(1); i <= 32; i++ {
		if _, err := c.Put(i, i); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	c.Close()

	// Production shutdown order: data plane, map, admin last.
	srv.Shutdown()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	h.Close()

	get := func(path string) []byte {
		resp, err := http.Get("http://" + aln.Addr().String() + path)
		if err != nil {
			t.Fatalf("GET %s after drain: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s after drain: %s", path, resp.Status)
		}
		return body
	}
	var doc metricsDoc
	if err := json.Unmarshal(get("/metrics.json"), &doc); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if doc.Counters["server/requests"] != 32 {
		t.Fatalf("drained server/requests = %d, want 32", doc.Counters["server/requests"])
	}
	if !bytes.Contains(get("/metrics"), []byte("hybrids_server_requests 32")) {
		t.Fatalf("drained exposition missing folded request total")
	}
	var parts []core.PartitionStats
	if err := json.Unmarshal(get("/partitions"), &parts); err != nil {
		t.Fatalf("decode partitions: %v", err)
	}
	total := 0
	for _, p := range parts {
		total += p.StoreLen
	}
	if total != 32 {
		t.Fatalf("drained store total = %d, want 32", total)
	}

	if err := adm.Close(); err != nil {
		t.Fatalf("admin close: %v", err)
	}
	if err := <-admDone; err != nil {
		t.Fatalf("admin serve: %v", err)
	}
}
