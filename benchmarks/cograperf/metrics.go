package main

// The metric names. BENCHMARK.json at the repository root lists the
// same names, units, directions and bounds (TestBenchmarkJSON checks
// that it does); the self-check reads the bounds from here.

type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end to end only: how far the median may worsen, as a share
}

// endToEndMetrics are reported by every untraced run on every
// workload. The three timings carry the widest bound there is: on a
// shared box whole minutes run a quarter to a half slower, and a gate
// tighter than the weather rejects changes for the weather (README,
// "How far a timing can be trusted"). The four counts are exact and
// carry tight ones.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"events_per_s", "events/s", "higher", 0.25},
	{"cpu_us_per_event", "us", "lower", 0.25},
	{"allocs_per_event", "allocs/event", "lower", 0.01},
	{"alloc_bytes_per_event", "B/event", "lower", 0.02},
	{"peak_state_bytes", "B", "lower", 0.04},
	{"live_heap_bytes", "B", "lower", 0.10},
}

// perLayer metrics are reported by every traced run on every workload
// and never gated. The prefix is the module (or "go", "gen", "trace"
// for the runtime, the harness and the tracing itself).
var perLayer = []metricDef{
	{name: "gen.build_s", unit: "s", better: "lower"},
	{name: "gen.input_bytes_per_event", unit: "B/event", better: "lower"},
	{name: "server.decode_ns_per_event", unit: "ns", better: "lower"},
	{name: "server.decode_allocs_per_event", unit: "allocs/event", better: "lower"},
	{name: "server.json_ns_per_event", unit: "ns", better: "lower"},
	{name: "server.shard_hop_ns_per_event", unit: "ns", better: "lower"},
	{name: "server.tcp_ns_per_event", unit: "ns", better: "lower"},
	{name: "server.ack_rtt_us_p50", unit: "us", better: "lower"},
	{name: "stream.reorder_ns_per_event", unit: "ns", better: "lower"},
	{name: "stream.reorder_peak_depth", unit: "count", better: "lower"},
	{name: "stream.executor_ns_per_event", unit: "ns", better: "lower"},
	{name: "stream.executor_cores_used", unit: "cores", better: "higher"},
	{name: "core.compile_us_per_query", unit: "us", better: "lower"},
	{name: "core.resolve_ns_per_event", unit: "ns", better: "lower"},
	{name: "core.engine_ns_per_event", unit: "ns", better: "lower"},
	{name: "core.engine_run_ns_per_event", unit: "ns", better: "lower"},
	{name: "core.window_close_us_p50", unit: "us", better: "lower"},
	{name: "core.window_close_allocs", unit: "allocs", better: "lower"},
	{name: "core.results_per_window", unit: "count", better: "lower"},
	{name: "core.intern_bytes", unit: "B", better: "lower"},
	{name: "window.states_per_event", unit: "count", better: "lower"},
	{name: "window.manager_ns_per_event", unit: "ns", better: "lower"},
	{name: "runtime.batch_ns_per_event", unit: "ns", better: "lower"},
	{name: "runtime.dispatch_ns_per_event", unit: "ns", better: "lower"},
	{name: "runtime.fanout", unit: "count", better: "lower"},
	{name: "runtime.shared_saved_ops", unit: "count", better: "higher"},
	{name: "runtime.share_flips", unit: "count", better: "lower"},
	{name: "session.push_ns_per_event", unit: "ns", better: "lower"},
	{name: "session.overhead_ns_per_event", unit: "ns", better: "lower"},
	{name: "session.sink_ns_per_result", unit: "ns", better: "lower"},
	{name: "session.emit_batch_us_p50", unit: "us", better: "lower"},
	{name: "session.quiet_batch_us_p50", unit: "us", better: "lower"},
	{name: "session.emit_excess_share", unit: "%", better: "lower"},
	{name: "session.subscribe_us_per_query", unit: "us", better: "lower"},
	{name: "session.results_total", unit: "count", better: "higher"},
	{name: "session.emit_latency_p50_us", unit: "us", better: "lower"},
	{name: "session.emit_latency_p99_us", unit: "us", better: "lower"},
	{name: "session.emit_latency_max_us", unit: "us", better: "lower"},
	{name: "session.sched_lag_us_p99", unit: "us", better: "lower"},
	{name: "session.backlog_max_batches", unit: "count", better: "lower"},
	{name: "snap.snapshot_ms_p50", unit: "ms", better: "lower"},
	{name: "snap.restore_ms_p50", unit: "ms", better: "lower"},
	{name: "snap.frame_bytes", unit: "B", better: "lower"},
	{name: "go.gc_cycles_per_mevent", unit: "count", better: "lower"},
	{name: "go.gc_pause_ms_total", unit: "ms", better: "lower"},
	{name: "go.peak_rss_bytes", unit: "B", better: "lower"},
	{name: "trace.lap_ns_per_event", unit: "ns", better: "lower"},
	{name: "trace.overhead_share", unit: "%", better: "lower"},
}

// metricOrder lists the metrics present in m in declaration order.
func metricOrder(m map[string]metric) []string {
	var names []string
	for _, defs := range [][]metricDef{endToEndMetrics, perLayer} {
		for _, d := range defs {
			if _, ok := m[d.name]; ok {
				names = append(names, d.name)
			}
		}
	}
	return names
}
