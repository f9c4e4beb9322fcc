package main

import (
	"encoding/json"
	"io"
)

// The benchmark's declared surface: the five workloads and every metric
// name, unit and direction. BENCHMARK.json at the repository root repeats
// this table for the driver; TestBenchmarkJSONMatchesSpec keeps the two in
// step.

// kind classifies a workload by the stack it drives; metric applicability
// is declared per kind.
type kind uint8

const (
	kServed   kind = 1 << iota // core.Hybrid behind server.Server over loopback TCP
	kEmbedded                  // core.Hybrid called in-process
	kSim                       // the cycle-level simulator (exp grids)

	kNative = kServed | kEmbedded
	kAll    = kNative | kSim
)

// workloadDef is one named workload.
type workloadDef struct {
	Name string
	Kind kind
	// Why is the one-line reason the workload exists (BENCHMARK.json's
	// "why").
	Why string
}

var workloads = []workloadDef{
	{"served-read", kServed, "YCSB-C over loopback TCP on the btree engine: server, socket and client codec are most of an op and the store a small share, so serve-loop changes show and a cds change barely does"},
	{"served-scan", kServed, "YCSB-E (95% zipfian-length SCAN, 5% insert) over TCP: partition barriers, large variable frames and writes on the wire, so a scalar-path gain paid for by the scan path shows"},
	{"embedded-read", kEmbedded, "YCSB-C through Batcher.Apply in 16-op batches, no server and no socket: the combiner hop is most of an op, so core changes show most and server-only changes not at all"},
	{"embedded-mix", kEmbedded, "uniform 50-25-25 read-insert-remove on the skiplist engine through blocking Apply: cache-missing descents make cds the largest share of an op; the write, GC and blocking path"},
	{"sim-grid", kSim, "fig5a, fig6a and engine-bskiplist on the Table 1 machine: the only workload running sim/engine, sim/memsys and dsim; simulated results are exact, so host speed is the free variable"},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// metricDef declares one metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression, or
	// exactBound. Per-layer metrics have none (0).
	Bound float64
	// On is the set of workload kinds whose path runs through the metric's
	// layer. Off-path per-layer metrics are absent from the printed report
	// and from result files; the driver's final JSON line alone carries
	// them as 0 (the layer did no work and took no time), because the
	// driver contract wants every declared key on every workload.
	On kind
}

// exactBound marks an end-to-end metric that repeats exactly for a fixed
// seed: any worsening at all is a regression.
const exactBound = -1

// endToEnd lists what a user of the system sees.
//
// The four bounded metrics are the ones BENCHMARK.json declares: the
// driver wants each on every workload and never 0, and refuses a benchmark
// whose run-to-run spread (quartile distance over median of ten runs)
// exceeds a bound. The timing bounds sit at the driver's cap of 0.25
// because the spread is the host's, not the program's: identical code
// spreads 0.02-0.09 in a quiet half-hour on the 2-core sandbox and read
// 0.21 on embedded-mix CPU per op in the round tabled in README.md, so the
// 0.10-0.15 of the issue, and 0.20, would each have been refused.
// Resident memory does not depend on host speed and never spread more than
// 0.09.
//
// The two exact metrics are reported, stored with -out and judged by
// `compare` like the others, but are not in BENCHMARK.json: error_rate is 0
// on a correct run and sim_cycles_per_op exists on one workload only.
//
// lat_unloaded_us is not here: it has a per-process slow mode (three runs
// in ten read 50% high) that no bound up to the driver's 0.25 cap covers,
// so it is a per-layer metric until a later issue tames it.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, kAll},
	{"throughput_ops_s", "ops/s", "higher", 0.25, kAll},
	{"cpu_us_per_op", "us", "lower", 0.25, kAll},
	{"peak_rss_mb", "MB", "lower", 0.15, kAll},
	{"error_rate", "ratio", "lower", exactBound, kAll},
	{"sim_cycles_per_op", "cycles", "lower", exactBound, kSim},
}

// simGrids are the experiment IDs sim-grid runs, in order.
var simGrids = []string{"fig5a", "fig6a", "engine-bskiplist"}

// attrBuckets are the simulator's six latency-attribution buckets in
// trace.Bucket order.
var attrBuckets = []string{"host_cache", "coherence", "dram", "offload_wait", "nmp_serial", "host_compute"}

// perLayer lists the single-layer metrics of the traced run, outside in.
// Module names are the layers.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	ns, us, count, ratio := "ns", "us", "count", "ratio"
	defs := []metricDef{
		// The end-to-end figure the ladder sums to, from the traced run's
		// own untraced segments.
		{"e2e.ns_per_op", ns, "lower", 0, kNative},

		{"ycsb.gen_ns_per_op", ns, "lower", 0, kNative},

		{"cds.stream_ns_per_op", ns, "lower", 0, kNative},
		{"cds.get_ns", ns, "lower", 0, kNative},
		{"cds.put_ns", ns, "lower", 0, kNative},
		{"cds.delete_ns", ns, "lower", 0, kNative},
		{"cds.scan_ns_per_pair", ns, "lower", 0, kNative},
		{"cds.calls", count, "lower", 0, kNative},
		{"cds.busy_us_per_op", us, "lower", 0, kNative},
		{"cds.share_of_op", ratio, "lower", 0, kNative},

		{"core.apply_ns", ns, "lower", 0, kNative},
		{"core.hop_self_ns", ns, "lower", 0, kNative},
		{"core.batch16_ns_per_op", ns, "lower", 0, kNative},
		{"core.batch_self_ns", ns, "lower", 0, kNative},
		{"core.combine_batch_mean", count, "higher", 0, kNative},
		{"core.mailbox_depth_mean", count, "lower", 0, kNative},
		{"core.ops", count, "lower", 0, kNative},

		{"server.pipe_ns_per_op", ns, "lower", 0, kServed},
		{"server.loop_self_ns", ns, "lower", 0, kServed},
		{"server.codec_ns_per_op", ns, "lower", 0, kServed},
		{"server.window_us", us, "lower", 0, kServed},
		{"server.core_self_us_per_window", us, "lower", 0, kServed},
		{"server.batch_mean", count, "higher", 0, kServed},
		{"server.requests", count, "lower", 0, kServed},
		{"server.responses", count, "lower", 0, kServed},
		{"server.rejected", count, "lower", 0, kServed},
		{"server.bad_requests", count, "lower", 0, kServed},
		{"server.scan_pairs_per_op", count, "lower", 0, kServed},

		{"socket.tcp_ns_per_op", ns, "lower", 0, kServed},
		{"socket.self_ns", ns, "lower", 0, kServed},
		{"socket.echo_ns_per_op", ns, "lower", 0, kServed},
		{"socket.reads", count, "lower", 0, kServed},
		{"socket.writes", count, "lower", 0, kServed},
		{"socket.ops_per_write", count, "higher", 0, kServed},
		{"socket.read_wait_us_per_op", us, "lower", 0, kServed},
		{"socket.write_us_per_op", us, "lower", 0, kServed},
		{"socket.bytes_in", "bytes", "lower", 0, kServed},
		{"socket.bytes_out", "bytes", "lower", 0, kServed},

		{"loadgen.rtt_p50_us", us, "lower", 0, kNative},
		{"loadgen.rtt_p99_us", us, "lower", 0, kNative},
		{"loadgen.rtt_samples", count, "higher", 0, kNative},
		{"loadgen.send_us_per_op", us, "lower", 0, kServed},
		{"loadgen.recv_wait_us_per_op", us, "lower", 0, kServed},
		{"loadgen.gap_ns", ns, "lower", 0, kNative},

		{"sim.engine.dispatch_ns", ns, "lower", 0, kSim},
		{"sim.engine.block_unblock_ns", ns, "lower", 0, kSim},
		{"sim.memsys.host_access_ns", ns, "lower", 0, kSim},
		{"sim.memsys.nmp_access_ns", ns, "lower", 0, kSim},
		// The traced run's reading of the end-to-end sim_cycles_per_op.
		{"sim.cycles_per_op", "cycles", "lower", 0, kSim},
	}
	for _, g := range simGrids {
		defs = append(defs,
			metricDef{"exp." + g + ".host_s", "s", "lower", 0, kSim},
			metricDef{"exp." + g + ".cycles_per_op", "cycles", "lower", 0, kSim},
			metricDef{"exp." + g + ".dram_reads_per_op", count, "lower", 0, kSim},
		)
	}
	for _, b := range attrBuckets {
		defs = append(defs, metricDef{"dsim.attr." + b + "_cycles_per_op", "cycles", "lower", 0, kSim})
	}
	return append(defs,
		metricDef{"lat_unloaded_us", us, "lower", 0, kAll},
		metricDef{"trace.overhead_ratio", ratio, "lower", 0, kAll})
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Segments holds the per-segment (or per-pass) values a median was
	// taken over, so a reader sees the spread inside the run.
	Segments []float64 `json:"segments,omitempty"`
	// Samples is the sample count behind a mean or percentile.
	Samples int `json:"samples,omitempty"`
}

// benchmarkJSON is BENCHMARK.json's shape (the driver's contract).
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadJSON `json:"workloads"`
	EndToEnd   []boundedJSON  `json:"end_to_end"`
	PerLayer   []layerJSON    `json:"per_layer"`
}

type workloadJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type boundedJSON struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// declaredBenchmark renders the tables above as BENCHMARK.json.
func declaredBenchmark() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: 10,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, workloadJSON{w.Name, w.Why})
	}
	for _, d := range driverDeclared(false) {
		b.EndToEnd = append(b.EndToEnd, boundedJSON{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		b.PerLayer = append(b.PerLayer, layerJSON{d.Name, d.Unit, d.Better})
	}
	return b
}

// specMain is `bench spec`: print BENCHMARK.json as declared here.
func specMain(w io.Writer) int {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(declaredBenchmark()); err != nil {
		return 1
	}
	return 0
}
