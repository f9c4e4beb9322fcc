package doccheck

import (
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"hybrids/internal/core"
	"hybrids/internal/dsim/offload"
	"hybrids/internal/metrics"
	"hybrids/internal/server"
	"hybrids/internal/sim/machine"
)

// metricKeyRe matches a backtick-quoted metric key in docs/METRICS.md:
// a slash-separated lowercase path, with `p*` allowed as a partition
// wildcard segment.
var metricKeyRe = regexp.MustCompile("`([a-z][a-z0-9_*]*(?:/[a-z0-9_*]+)+)`")

// partRe normalizes concrete partition segments to the doc's wildcard.
var partRe = regexp.MustCompile(`/p[0-9]+/`)

// documentedKeys parses docs/METRICS.md and returns every metric key
// documented in a table row (a line whose first cell is the
// backtick-quoted key). Backticked paths in prose — package names,
// prefix references — don't count as documentation.
func documentedKeys(t *testing.T) map[string]bool {
	t.Helper()
	src, err := os.ReadFile("../../docs/METRICS.md")
	if err != nil {
		t.Fatalf("docs/METRICS.md: %v", err)
	}
	keys := make(map[string]bool)
	for _, line := range strings.Split(string(src), "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		cell := line[2 : strings.Index(line[2:], "|")+2]
		if m := metricKeyRe.FindStringSubmatch(cell); m != nil {
			keys[m[1]] = true
		}
	}
	if len(keys) == 0 {
		t.Fatalf("docs/METRICS.md documents no metric keys")
	}
	return keys
}

// emittedRegistryKeys instantiates every metric-emitting subsystem and
// collects the full set of keys it emits: the serving stack as hybridsd
// builds it, read through the admin plane's two sources (the server's and
// the core's ExportMetrics: server/, core/p*/, core/p*/store/), and the
// simulator's registry with attribution and the offload runtime enabled
// (engine/, mem/, attr/, offload/, offload/p*/). The returned histSet
// marks histogram names, whose /sum and /count components are
// documented implicitly: a native histogram is a HistSnapshot, and a
// simulator histogram is any name whose <name>/sum and <name>/count are
// both registered.
func emittedRegistryKeys(t *testing.T) (names, histSet map[string]bool) {
	t.Helper()
	names, histSet = make(map[string]bool), make(map[string]bool)
	export := func(counters metrics.Snapshot, hists []metrics.HistSnapshot) {
		for n := range counters {
			names[n] = true
		}
		for _, hs := range hists {
			names[hs.Name], histSet[hs.Name] = true, true
		}
	}

	h := core.New(core.Config{Partitions: 2, KeyMax: 1 << 10})
	export(server.New(h, server.Config{}).ExportMetrics())
	export(h.ExportMetrics())
	h.Close()

	cfg := machine.Default()
	m := machine.New(cfg)
	m.EnableAttribution()
	offload.New(m, 2)
	for _, n := range m.Metrics.Names() {
		names[n] = true
		if base, ok := strings.CutSuffix(n, "/sum"); ok {
			if _, ok := m.Metrics.LookupCounter(base + "/count"); ok {
				histSet[base] = true
			}
		}
	}
	return names, histSet
}

// loadReportKeys greps the hybridsload source for the load/* report keys
// (they are report-cell entries, not registry instruments, so the source
// is the authority).
func loadReportKeys(t *testing.T) map[string]bool {
	t.Helper()
	src, err := os.ReadFile("../../cmd/hybridsload/main.go")
	if err != nil {
		t.Fatalf("cmd/hybridsload/main.go: %v", err)
	}
	keys := make(map[string]bool)
	for _, m := range regexp.MustCompile(`"(load/[a-z0-9_]+)"`).FindAllStringSubmatch(string(src), -1) {
		keys[m[1]] = true
	}
	if len(keys) == 0 {
		t.Fatalf("no load/ keys found in hybridsload source")
	}
	return keys
}

// TestMetricsReferenceComplete is the docs/METRICS.md enforcement gate,
// in both directions: every key any subsystem can emit must be
// documented (adding an instrument without a row here fails), and every
// concrete key the document claims must actually be emitted (rows can't
// rot when an instrument is renamed or removed). Histogram /sum and
// /count components are covered by their base histogram's row.
func TestMetricsReferenceComplete(t *testing.T) {
	documented := documentedKeys(t)
	names, histSet := emittedRegistryKeys(t)
	for k := range loadReportKeys(t) {
		names[k] = true
	}

	normalize := func(name string) string { return partRe.ReplaceAllString(name, "/p*/") }
	emitted := make(map[string]bool, len(names))
	var undocumented []string
	for name := range names {
		norm := normalize(name)
		if base, ok := strings.CutSuffix(norm, "/sum"); ok && histSet[strings.TrimSuffix(name, "/sum")] {
			norm = base
		} else if base, ok := strings.CutSuffix(norm, "/count"); ok && histSet[strings.TrimSuffix(name, "/count")] {
			norm = base
		}
		emitted[norm] = true
		if !documented[norm] {
			undocumented = append(undocumented, name)
		}
	}
	sort.Strings(undocumented)
	if len(undocumented) > 0 {
		t.Errorf("%d emitted metric keys are not documented in docs/METRICS.md:\n  %s",
			len(undocumented), strings.Join(undocumented, "\n  "))
	}

	var stale []string
	for key := range documented {
		if !emitted[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	if len(stale) > 0 {
		t.Errorf("%d keys documented in docs/METRICS.md are never emitted:\n  %s",
			len(stale), strings.Join(stale, "\n  "))
	}
}
