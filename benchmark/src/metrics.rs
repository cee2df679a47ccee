//! The metric and workload names the benchmark emits. `BENCHMARK.json` lists
//! the same names; the smoke test fails when the two drift apart.

/// Workload names, in the order `run` executes them.
pub const WORKLOADS: [&str; 4] = [
    "adhoc_cleanse",
    "analytic_scan",
    "service_mixed",
    "ingest_durable",
];

/// `(name, unit)` of every end-to-end metric `BENCHMARK.json` bounds — what
/// the contract line of a `--trace 0` run carries, on every workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// A bounded figure of one operation kind. `BENCHMARK.json` can only bound
/// metrics that every workload reports, so these bounds live here; `check`
/// applies them wherever both result files carry the figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KindMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Share of the baseline by which the figure may worsen.
    pub bound: f64,
}

const fn kind(
    name: &'static str,
    unit: &'static str,
    lower_is_better: bool,
    bound: f64,
) -> KindMetric {
    KindMetric {
        name,
        unit,
        lower_is_better,
        bound,
    }
}

/// The per-kind figures an untraced run reports on a workload that mixes
/// kinds: queries and appends on the two service workloads, recovery and disk
/// use on `ingest_durable`; `failed_ops_pct` everywhere. The timing bounds
/// are those of the end-to-end metrics in `BENCHMARK.json`, and have the same
/// source: three times the widest ten-seed spread measured on the reference
/// box, which comes to the 25 % cap for every one of them (README, *Where the
/// bounds come from*). `disk_bytes_per_row` is an exact count, and
/// `failed_ops_pct` may not rise.
pub const PER_KIND: [KindMetric; 9] = [
    kind("query_p50_ms", "ms", true, 0.25),
    kind("query_p95_ms", "ms", true, 0.25),
    kind("queries_per_s", "1/s", false, 0.25),
    kind("append_p50_ms", "ms", true, 0.25),
    kind("append_p95_ms", "ms", true, 0.25),
    kind("append_rows_per_s", "rows/s", false, 0.25),
    kind("recover_s", "s", true, 0.25),
    kind("disk_bytes_per_row", "B/row", true, 0.01),
    kind("failed_ops_pct", "%", true, 0.0),
];

/// `(name, unit)` of every per-layer metric — what `--trace 1` prints.
/// The prefix is the crate (layer) the number belongs to; `client.*` are the
/// per-kind client-side figures of the traced run's untraced blocks and
/// `trace.*` describe the tracing itself.
pub const PER_LAYER: [(&str, &str); 72] = [
    ("sql.parse_us", "us"),
    ("sql.plan_us", "us"),
    ("rewrite.rewrite_us", "us"),
    ("rewrite.candidates", "count"),
    ("rewrite.expanded_chosen_pct", "%"),
    ("relational.optimize_us", "us"),
    ("relational.lower_us", "us"),
    ("relational.exec_ms", "ms"),
    ("relational.scan_self_ms", "ms"),
    ("relational.filter_self_ms", "ms"),
    ("relational.sort_self_ms", "ms"),
    ("relational.window_self_ms", "ms"),
    ("relational.join_self_ms", "ms"),
    ("relational.agg_self_ms", "ms"),
    ("relational.other_self_ms", "ms"),
    ("relational.rows_scanned", "count"),
    ("relational.rows_sorted", "count"),
    ("relational.sort_comparisons", "count"),
    ("relational.window_accumulator_ops", "count"),
    ("relational.hash_ops", "count"),
    ("relational.key_bytes_encoded", "B"),
    ("relational.rows_scanned_per_result_row", "ratio"),
    ("storage.segments_pruned_pct", "%"),
    ("storage.seq_cache_hit_pct", "%"),
    ("storage.seq_cache_invalidations", "count"),
    ("service.queue_wait_us_p50", "us"),
    ("service.queue_wait_us_p95", "us"),
    ("service.exec_us_p50", "us"),
    ("service.overhead_us_p50", "us"),
    ("service.coalesced_pct", "%"),
    ("service.rejected", "count"),
    ("service.shard_rows_merged", "count"),
    ("service.partition_us", "us"),
    ("service.publish_us", "us"),
    ("core.segment_encode_us", "us"),
    ("core.segments_loaded_lazy", "count"),
    ("core.materialize_ms", "ms"),
    ("log.append_us", "us"),
    ("log.fsync_us", "us"),
    ("log.io_ticks", "count"),
    ("log.bytes_per_append", "B"),
    ("log.disk_bytes_per_row", "B/row"),
    ("log.records_replayed", "count"),
    ("log.recover_shard_ms", "ms"),
    ("stream.maintain_us_p50", "us"),
    ("stream.maintain_us_p95", "us"),
    ("stream.recleansed_rows", "count"),
    ("stream.delta_rows", "count"),
    ("stream.fallbacks", "count"),
    ("stream.dropped_for_lag", "count"),
    ("rules.compile_us", "us"),
    ("rfidgen.generate_s", "s"),
    ("client.query_p50_ms", "ms"),
    ("client.query_p95_ms", "ms"),
    ("client.queries_per_s", "1/s"),
    ("client.append_p50_ms", "ms"),
    ("client.append_p95_ms", "ms"),
    ("client.append_rows_per_s", "rows/s"),
    ("client.recover_s", "s"),
    ("client.failed_ops_pct", "%"),
    ("trace.traced_query_ms", "ms"),
    ("trace.traced_append_ms", "ms"),
    ("trace.stage_coverage_pct", "%"),
    ("trace.append_replay_coverage_pct", "%"),
    ("trace_overhead_pct", "%"),
    ("trace.ops_traced", "count"),
    ("trace.ops_counted", "count"),
    ("trace.spans", "count"),
    ("client.ops_per_s", "1/s"),
    ("client.op_p50_ms", "ms"),
    ("client.op_p95_ms", "ms"),
    ("client.peak_rss_mb", "MiB"),
];

/// Per-layer metrics that are exact counts: identical across two runs with
/// the same seed on the single-client workloads, because they are summed
/// over a fixed prefix of the (deterministic) op stream.
pub const EXACT_COUNTS: [&str; 10] = [
    "relational.rows_scanned",
    "relational.rows_sorted",
    "relational.sort_comparisons",
    "relational.window_accumulator_ops",
    "relational.hash_ops",
    "relational.key_bytes_encoded",
    "log.io_ticks",
    "log.disk_bytes_per_row",
    "log.records_replayed",
    "stream.recleansed_rows",
];
