package admin

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"hybrids/internal/metrics"
)

// Prometheus text exposition (version 0.0.4) for the hybrids metrics
// registry, hand-rolled on the std lib: one metric family per registry
// counter, one histogram family per registry histogram. Registry names
// are slash-separated paths; Prometheus names must match
// [a-zA-Z_:][a-zA-Z0-9_:]* — promName maps "server/ops/get" to
// "hybrids_server_ops_get". The registry's power-of-two shape buckets
// (bucket i counts samples of bit length i, i.e. values in
// [2^(i-1), 2^i), bucket 0 counts zeros) become cumulative le bounds:
// bucket i's inclusive upper edge is 2^i - 1.

// promName mangles a registry path into a Prometheus metric name.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len("hybrids_") + len(name))
	b.WriteString("hybrids_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c >= '0' && c <= '9', c == '_':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// writeProm writes the full exposition: a build-info style gauge naming
// the store engine when one is configured, every counter as a counter
// family, every histogram as a histogram family.
func writeProm(w io.Writer, store string, counters metrics.Snapshot, hists []metrics.HistSnapshot) {
	fmt.Fprintf(w, "# HELP hybrids_server_info Static server facts as labels.\n")
	fmt.Fprintf(w, "# TYPE hybrids_server_info gauge\n")
	if store == "" {
		fmt.Fprintf(w, "hybrids_server_info 1\n")
	} else {
		fmt.Fprintf(w, "hybrids_server_info{store=%q} 1\n", store)
	}

	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pn := promName(name)
		fmt.Fprintf(w, "# HELP %s Counter %s (docs/METRICS.md).\n", pn, name)
		fmt.Fprintf(w, "# TYPE %s counter\n", pn)
		fmt.Fprintf(w, "%s %d\n", pn, counters[name])
	}
	for _, h := range hists {
		writePromHist(w, h)
	}
}

// writePromHist writes one histogram as a Prometheus histogram
// family: cumulative le buckets at the power-of-two edges (trimmed to
// the highest populated bucket), +Inf, then _sum and _count.
func writePromHist(w io.Writer, h metrics.HistSnapshot) {
	pn := promName(h.Name)
	fmt.Fprintf(w, "# HELP %s Histogram %s (docs/METRICS.md).\n", pn, h.Name)
	fmt.Fprintf(w, "# TYPE %s histogram\n", pn)
	hi := len(h.Buckets)
	for hi > 0 && h.Buckets[hi-1] == 0 {
		hi--
	}
	var cum uint64
	for i := 0; i < hi; i++ {
		cum += h.Buckets[i]
		// Bucket i counts values of bit length i, so its inclusive upper
		// bound is 2^i - 1 (le="0" for the zero bucket).
		fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", pn, (uint64(1)<<i)-1, cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", pn, h.Count)
	fmt.Fprintf(w, "%s_sum %d\n", pn, h.Sum)
	fmt.Fprintf(w, "%s_count %d\n", pn, h.Count)
}
