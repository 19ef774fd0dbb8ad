package main

import (
	"bytes"
	"encoding/json"
)

// The metric catalogue: the single list of names the program prints.
// BENCHMARK.json at the root of the repository repeats the names, units,
// directions and bounds; TestCatalogueMatchesBenchmarkJSON fails when
// the two differ.

// metricDef describes one metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may get worse before it counts as a regression; per-layer
	// metrics have none.
	Bound float64
	// Layer is the package a per-layer metric belongs to; Source is how
	// it is taken: T = spans of the traced run, M = timed loop over the
	// package's public functions, P = read from outside the daemon
	// processes during the run against the real pair.
	Layer  string
	Source string
	// Moves says which end-to-end metric the layer metric should move,
	// and on which workload.
	Moves string
}

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "throughput_rps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "unavailable_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "degraded_latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "transition_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

var perLayer = []metricDef{
	// rpc
	{Name: "rpc.invoke_self_us", Unit: "us", Better: "lower", Layer: "rpc", Source: "T", Moves: "latency_p50_ms on open_pbr"},
	{Name: "rpc.invoke_p999_ms", Unit: "ms", Better: "lower", Layer: "rpc", Source: "P", Moves: "the tail beside latency_p99_ms"},
	{Name: "rpc.request_codec_ns", Unit: "ns", Better: "lower", Layer: "rpc", Source: "M", Moves: "cpu_us_per_op everywhere"},
	{Name: "rpc.response_codec_ns", Unit: "ns", Better: "lower", Layer: "rpc", Source: "M", Moves: "cpu_us_per_op everywhere"},
	{Name: "rpc.replylog_record_ns", Unit: "ns", Better: "lower", Layer: "rpc", Source: "M", Moves: "latency_p99_ms on open_pbr (many identities)"},
	{Name: "rpc.replylog_lookup_ns", Unit: "ns", Better: "lower", Layer: "rpc", Source: "M", Moves: "latency_p99_ms on open_pbr"},
	{Name: "rpc.replylog_snapshot_since_us_256ids", Unit: "us", Better: "lower", Layer: "rpc", Source: "M", Moves: "latency_p99_ms on open_pbr"},
	{Name: "rpc.ring_pick_ns", Unit: "ns", Better: "lower", Layer: "rpc", Source: "M", Moves: "closed_sharded_mixed only"},
	{Name: "rpc.promoted_to_first_ok_ms", Unit: "ms", Better: "lower", Layer: "rpc", Source: "P", Moves: "unavailable_ms"},
	// transport
	{Name: "transport.client_call_self_us", Unit: "us", Better: "lower", Layer: "transport", Source: "T", Moves: "latency_p50_ms on open_pbr"},
	{Name: "transport.ship_call_self_us", Unit: "us", Better: "lower", Layer: "transport", Source: "T", Moves: "latency_p50_ms on open_pbr"},
	{Name: "transport.tcp_echo_rtt_p50_us", Unit: "us", Better: "lower", Layer: "transport", Source: "M", Moves: "the floor under every latency"},
	{Name: "transport.tcp_echo_rps_c16", Unit: "1/s", Better: "higher", Layer: "transport", Source: "M", Moves: "throughput_rps on closed_pbr"},
	{Name: "transport.mem_call_ns", Unit: "ns", Better: "lower", Layer: "transport", Source: "M", Moves: "the floor under the MemNetwork figures"},
	{Name: "transport.encode_ns", Unit: "ns", Better: "lower", Layer: "transport", Source: "M", Moves: "cpu_us_per_op everywhere"},
	{Name: "transport.decode_ns", Unit: "ns", Better: "lower", Layer: "transport", Source: "M", Moves: "cpu_us_per_op everywhere"},
	{Name: "transport.msgs_per_op", Unit: "count", Better: "lower", Layer: "transport", Source: "T", Moves: "cpu_us_per_op; falls as batching rises on closed_pbr, constant on open_pbr"},
	{Name: "transport.bytes_per_op", Unit: "B", Better: "lower", Layer: "transport", Source: "T", Moves: "cpu_us_per_op"},
	// ftm
	{Name: "ftm.serve_self_us", Unit: "us", Better: "lower", Layer: "ftm", Source: "T", Moves: "latency_p50_ms on open_pbr"},
	{Name: "ftm.ops_per_ship", Unit: "count", Better: "higher", Layer: "ftm", Source: "T", Moves: "throughput_rps on closed_pbr; about 1 on open_pbr, a quarter of closed_pbr on closed_sharded_mixed"},
	{Name: "ftm.slave_handle_self_us", Unit: "us", Better: "lower", Layer: "ftm", Source: "T", Moves: "latency_p50_ms on open_pbr"},
	{Name: "ftm.mem_invoke_ns_c1", Unit: "ns", Better: "lower", Layer: "ftm", Source: "M", Moves: "the pipeline without the wire (continuity with BENCH_pr1-10)"},
	{Name: "ftm.mem_invoke_rps_c16", Unit: "1/s", Better: "higher", Layer: "ftm", Source: "M", Moves: "throughput_rps on closed_pbr"},
	{Name: "ftm.lfr_invoke_p50_ms", Unit: "ms", Better: "lower", Layer: "ftm", Source: "P", Moves: "latency while the pair is LFR, adapt_failover"},
	{Name: "ftm.rejoin_ms", Unit: "ms", Better: "lower", Layer: "ftm", Source: "P", Moves: "the margin before the next fault, adapt_failover"},
	// appstate and the application
	{Name: "appstate.capture_delta_us", Unit: "us", Better: "lower", Layer: "appstate", Source: "T", Moves: "throughput_rps on closed_pbr"},
	{Name: "appstate.apply_delta_us", Unit: "us", Better: "lower", Layer: "appstate", Source: "T", Moves: "throughput_rps on closed_pbr"},
	{Name: "appstate.delta_bytes_per_op", Unit: "B", Better: "lower", Layer: "appstate", Source: "T", Moves: "throughput_rps on closed_pbr"},
	{Name: "appstate.capture_full_us_r4096", Unit: "us", Better: "lower", Layer: "appstate", Source: "M", Moves: "latency_p99_ms on closed_sharded_mixed and ftm.rejoin_ms"},
	{Name: "appstate.restore_full_us_r4096", Unit: "us", Better: "lower", Layer: "appstate", Source: "M", Moves: "ftm.rejoin_ms"},
	{Name: "app.process_us", Unit: "us", Better: "lower", Layer: "app", Source: "T", Moves: "the useful work: the denominator of every overhead"},
	// adaptation
	{Name: "adaptation.deploy_us", Unit: "us", Better: "lower", Layer: "adaptation", Source: "P", Moves: "transition_ms"},
	{Name: "adaptation.script_us", Unit: "us", Better: "lower", Layer: "adaptation", Source: "P", Moves: "transition_ms"},
	{Name: "adaptation.remove_us", Unit: "us", Better: "lower", Layer: "adaptation", Source: "P", Moves: "transition_ms"},
	{Name: "adaptation.solo_transition_us", Unit: "us", Better: "lower", Layer: "adaptation", Source: "M", Moves: "transition_ms; the paper's Table 3 differential transition"},
	{Name: "adaptation.solo_deploy_ftm_us", Unit: "us", Better: "lower", Layer: "adaptation", Source: "M", Moves: "setup_s and ftm.rejoin_ms; the paper's Table 3 full deployment"},
	{Name: "stablestore.commit_us", Unit: "us", Better: "lower", Layer: "stablestore", Source: "T", Moves: "transition_ms (on the transition path only)"},
	// detector
	{Name: "detector.kill_to_promoted_ms", Unit: "ms", Better: "lower", Layer: "detector", Source: "P", Moves: "unavailable_ms; with rpc.promoted_to_first_ok_ms it sums to it"},
	// telemetry
	{Name: "telemetry.counter_add_ns", Unit: "ns", Better: "lower", Layer: "telemetry", Source: "M", Moves: "cpu_us_per_op everywhere"},
	{Name: "telemetry.histogram_observe_ns", Unit: "ns", Better: "lower", Layer: "telemetry", Source: "M", Moves: "cpu_us_per_op everywhere"},
	{Name: "telemetry.span_record_ns", Unit: "ns", Better: "lower", Layer: "telemetry", Source: "M", Moves: "cpu_us_per_op everywhere"},
	{Name: "bench.tracing_overhead_pct", Unit: "%", Better: "lower", Layer: "bench", Source: "T", Moves: "how far the traced figures sit from the untraced ones"},
	// host and load generator
	{Name: "host.master_cpu_us_per_op", Unit: "us", Better: "lower", Layer: "host", Source: "P", Moves: "cpu_us_per_op, master share"},
	{Name: "host.slave_cpu_us_per_op", Unit: "us", Better: "lower", Layer: "host", Source: "P", Moves: "cpu_us_per_op, slave share"},
	{Name: "host.master_ctxsw_per_op", Unit: "count", Better: "lower", Layer: "host", Source: "P", Moves: "cpu_us_per_op"},
	{Name: "host.slave_rss_mb", Unit: "MB", Better: "lower", Layer: "host", Source: "P", Moves: "peak_rss_mb, slave side"},
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower", Layer: "loadgen", Source: "P", Moves: "validity of every open-loop latency"},
	{Name: "loadgen.cpu_share", Unit: "cores", Better: "lower", Layer: "loadgen", Source: "P", Moves: "validity: the generator must leave the daemons their cores"},
}

// runSeconds is how long the driver lets one run measure; command and
// benchPaths are how it starts the benchmark and where its files live.
const runSeconds = 24

var (
	command    = []string{"bash", "bench/run.sh"}
	benchPaths = []string{"bench"}
)

// benchmarkJSON renders the catalogue in the shape of the repository's
// BENCHMARK.json, which holds exactly these keys.
func benchmarkJSON() []byte {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eJSON struct {
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
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []e2eJSON      `json:"end_to_end"`
		PerLayer   []layerJSON    `json:"per_layer"`
	}{Command: command, Paths: benchPaths, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadJSON{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2eJSON{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerJSON{d.Name, d.Unit, d.Better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc) // strings and numbers cannot fail to encode
	return buf.Bytes()
}
