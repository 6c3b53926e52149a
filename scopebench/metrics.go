package main

// metricDef is one reported metric. The table below is the single list
// the benchmark prints from; BENCHMARK.json at the repository root names
// the same metrics (a self-test keeps the two in step).
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: allowed worsening, as a share of the parent's median
}

// End-to-end metrics: every workload reports every one of them, and none
// can read 0 on a working run, so the run-to-run spread and the
// regression bound are always defined. README.md gives each metric's
// per-workload meaning.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "slots_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "slot_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "egress_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "dci_hit_pct", unit: "%", better: "higher", bound: 0.01},
	{name: "dci_precision_pct", unit: "%", better: "higher", bound: 0.01},
	{name: "ue_precision_pct", unit: "%", better: "higher", bound: 0.02},
	{name: "alloc_kb_per_slot", unit: "KiB", better: "lower", bound: 0.1},
	{name: "heap_live_mb", unit: "MB", better: "lower", bound: 0.1},
}

// Per-layer metrics, from the traced run. Time metrics are mean self
// time per call unless the name says otherwise; counts are deltas of
// the program's own obs counters over the measured slots.
var perLayer = []metricDef{
	{name: "slot_p999_us", unit: "us", better: "lower"},
	{name: "rt_late_pct", unit: "%", better: "lower"},
	{name: "rt_p99_us", unit: "us", better: "lower"},
	{name: "egress_p99_ms", unit: "ms", better: "lower"},
	{name: "query_p50_us", unit: "us", better: "lower"},
	{name: "query_p99_us", unit: "us", better: "lower"},
	{name: "dci_miss_pct", unit: "%", better: "lower"},
	{name: "dci_false_pct", unit: "%", better: "lower"},
	{name: "ghost_ues", unit: "count", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
	{name: "capfile.next_us", unit: "us", better: "lower"},
	{name: "core.positions_per_slot", unit: "count", better: "lower"},
	{name: "core.candidates_per_slot", unit: "count", better: "lower"},
	{name: "core.match_ratio", unit: "ratio", better: "higher"},
	{name: "core.ues_tracked", unit: "count", better: "lower"},
	{name: "core.msg4_verifies", unit: "count", better: "lower"},
	{name: "core.msg4_yield", unit: "ratio", better: "higher"},
	{name: "core.slow_slots", unit: "count", better: "lower"},
	{name: "core.decode_failures_per_slot", unit: "count", better: "lower"},
	{name: "core.decode_us", unit: "us", better: "lower"},
	{name: "core.merge_us", unit: "us", better: "lower"},
	{name: "core.unexplained_pct", unit: "%", better: "lower"},
	{name: "pdcch.occupied_us", unit: "us", better: "lower"},
	{name: "pdcch.candidate_us", unit: "us", better: "lower"},
	{name: "polar.decode_ns", unit: "ns", better: "lower"},
	{name: "modulation.demap_ns", unit: "ns", better: "lower"},
	{name: "pdsch.decode_us", unit: "us", better: "lower"},
	{name: "bus.publish_us", unit: "us", better: "lower"},
	{name: "bus.queue_max", unit: "count", better: "lower"},
	{name: "bus.batch_mean", unit: "count", better: "higher"},
	{name: "bus.dropped", unit: "count", better: "lower"},
	{name: "history.ingest_us", unit: "us", better: "lower"},
	{name: "history.evictions", unit: "count", better: "lower"},
	{name: "history.query_hot_us", unit: "us", better: "lower"},
	{name: "history.query_cold_us", unit: "us", better: "lower"},
	{name: "lake.spill_us", unit: "us", better: "lower"},
	{name: "lake.read_us", unit: "us", better: "lower"},
	{name: "lake.bytes_per_bin", unit: "B", better: "lower"},
	{name: "pump.write_us", unit: "us", better: "lower"},
	{name: "pump.bytes_per_record", unit: "B", better: "lower"},
	{name: "pump.dropped", unit: "count", better: "lower"},
	{name: "shard.ingest_us", unit: "us", better: "lower"},
	{name: "shard.submit_us", unit: "us", better: "lower"},
	{name: "shard.queue_max", unit: "count", better: "lower"},
	{name: "shard.restarts", unit: "count", better: "lower"},
	{name: "shard.dropped", unit: "count", better: "lower"},
}
