//! Per-layer accounting of a traced run.
//!
//! Everything here is measured from outside the crates under test: an op runs
//! through the public calls its real entry point chains, with a span around
//! each; the front-end steps those calls hide are timed right after the op
//! through their own public functions; and the counters are the ones the
//! calls already return (`Executed`, `QueryReport.stats`, `OperatorMetrics`,
//! `ServiceStats`, `ChangeSet.stats`, `DurableStats`). No crate is
//! instrumented, and no engine code is repeated here.
//!
//! Conventions: an unsuffixed `*_us` / `*_ms` stage timing is the **mean per
//! traced op** of its kind, so stage means add up to the op mean and shares
//! can be read directly; `_p50` / `_p95` are percentiles. Counts are summed
//! over a fixed prefix of the op stream ([`LayerAcc::counting`]), so they
//! repeat exactly where the op stream is deterministic.

use crate::span::Tracer;
use crate::stats;
use dc_core::{DeferredCleansingSystem, OperatorMetrics, QueryBudget, QueryReport, Strategy};
use dc_relational::batch::Batch;
use dc_relational::error::Result;
use dc_relational::exec::ExecStats;
use dc_relational::optimizer::optimize_default;
use dc_relational::physical::lower;
use dc_relational::plan::LogicalPlan;
use dc_relational::sql::{parse_query, plan_query};
use dc_relational::table::Catalog;
use std::time::Instant;

/// Metric each operator group's self time is reported under, by group index.
const SELF_TIME_METRICS: [&str; 7] = [
    "relational.scan_self_ms",
    "relational.filter_self_ms",
    "relational.sort_self_ms",
    "relational.window_self_ms",
    "relational.join_self_ms",
    "relational.agg_self_ms",
    "relational.other_self_ms",
];

fn group_of(operator: &str) -> usize {
    match operator {
        "ScanExec" => 0,
        "FilterExec" => 1,
        "SortExec" => 2,
        "WindowExec" => 3,
        "HashJoinExec" | "SemiJoinExec" => 4,
        "AggregateExec" | "DistinctExec" => 5,
        _ => 6,
    }
}

/// Add each operator's self time (inclusive wall clock minus its children's,
/// floored at zero — children of a parallel operator can sum past it) to its
/// group's slot.
pub fn operator_self_ns(metrics: &OperatorMetrics, into: &mut [u64; 7]) {
    let children: u64 = metrics.children.iter().map(|c| c.wall_nanos).sum();
    into[group_of(&metrics.name)] += metrics.wall_nanos.saturating_sub(children);
    for child in &metrics.children {
        operator_self_ns(child, into);
    }
}

/// Accumulators behind every per-layer metric. Fields a workload never
/// touches stay empty and report 0.
#[derive(Debug, Default)]
pub struct LayerAcc {
    /// While true, counts are accumulated; the workload clears it once the
    /// fixed prefix of the op stream is behind it.
    pub counting: bool,
    pub ops_counted: u64,

    // Stage timings of traced queries, nanoseconds per op.
    pub parse_ns: Vec<u64>,
    pub plan_ns: Vec<u64>,
    pub rewrite_ns: Vec<u64>,
    pub optimize_ns: Vec<u64>,
    pub lower_ns: Vec<u64>,
    pub exec_ns: Vec<u64>,
    pub self_ns: [u64; 7],
    pub queries_with_operator_metrics: u64,

    // Counts over the fixed prefix.
    pub exec: ExecStats,
    pub result_rows: u64,
    pub counted_queries: u64,
    pub candidates: u64,
    pub expanded_chosen: u64,

    /// The shards' cleansed-sequence caches over the timed section (summed
    /// `cleanse_cache_stats`); all zero where no cache is on.
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_invalidations: u64,

    // Service-side observations of traced queries.
    pub queue_wait_ns: Vec<u64>,
    pub service_exec_ns: Vec<u64>,
    pub overhead_ns: Vec<u64>,
    pub coalesced: u64,
    pub service_queries: u64,
    pub rejected: u64,

    // Append replays, nanoseconds per traced append.
    pub partition_ns: Vec<u64>,
    pub publish_ns: Vec<u64>,
    pub encode_ns: Vec<u64>,
    pub log_append_ns: Vec<u64>,
    pub log_fsync_ns: Vec<u64>,
    pub maintain_ns: Vec<u64>,
    /// Sum of replayed stages / sum of the real appends they explain.
    pub replay_stage_ns: u64,
    pub replay_real_ns: u64,

    // Durable-log counts.
    pub io_ticks: u64,
    pub log_bytes: u64,
    pub counted_appends: u64,
    pub disk_bytes_per_row: f64,
    pub records_replayed: u64,
    pub segments_loaded_lazy: u64,
    pub recover_shard_ms: f64,
    pub materialize_ms: f64,

    // Standing-query maintenance counts.
    pub recleansed_rows: u64,
    pub delta_rows: u64,
    pub fallbacks: u64,
    pub dropped_for_lag: u64,

    // Set-up side.
    pub rules_compile_us: f64,
    pub generate_s: f64,

    // Span coverage of traced ops: stage spans over op spans.
    pub stage_ns: u64,
    pub op_ns: u64,
}

/// What the accumulators read from one executed query, whichever call
/// returned it.
pub struct Execution<'a> {
    pub stats: &'a ExecStats,
    pub metrics: Option<&'a OperatorMetrics>,
    pub result_rows: usize,
    /// Label of the rewrite candidate that ran.
    pub chosen: &'a str,
    pub candidates: usize,
}

impl<'a> From<&'a QueryReport> for Execution<'a> {
    fn from(report: &'a QueryReport) -> Self {
        Execution {
            stats: &report.stats,
            metrics: report.metrics.as_ref(),
            result_rows: report.result_rows,
            chosen: &report.chosen,
            candidates: report.candidates.len(),
        }
    }
}

fn mean_of(ns: &[u64], per: f64) -> f64 {
    if ns.is_empty() {
        0.0
    } else {
        ns.iter().sum::<u64>() as f64 / ns.len() as f64 / per
    }
}

/// The `p`-th percentile of `ns`, or the highest of p90, p75 and the median
/// that the sample supports when it is too small for `p`.
fn pct_of(ns: &[u64], p: f64, per: f64) -> f64 {
    let sorted = stats::sorted(&ns.iter().map(|&n| n as f64 / per).collect::<Vec<_>>());
    let steps: Vec<f64> = [50.0, 75.0, 90.0, p]
        .into_iter()
        .filter(|&c| c <= p)
        .collect();
    stats::highest_supported(&sorted, &steps)
        .map(|(_, value)| value)
        .or_else(|| stats::median(&sorted))
        .unwrap_or(0.0)
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

impl LayerAcc {
    /// Fold one executed query into the accumulators: operator self times
    /// always, exact counts only inside the counted prefix.
    ///
    /// `exec_ns` is the measured execution stage where the caller ran it
    /// itself; for a query answered inside the service it is `None` and the
    /// root operator's inclusive wall clock (summed over shards) stands in.
    pub fn record_execution(&mut self, done: Execution<'_>, exec_ns: Option<u64>) {
        if let Some(m) = done.metrics {
            operator_self_ns(m, &mut self.self_ns);
            self.queries_with_operator_metrics += 1;
        }
        if let Some(ns) = exec_ns.or(done.metrics.map(|m| m.wall_nanos)) {
            self.exec_ns.push(ns);
        }
        if self.counting {
            self.exec.add(done.stats);
            self.result_rows += done.result_rows as u64;
            self.counted_queries += 1;
            self.candidates += done.candidates as u64;
            self.expanded_chosen += done.chosen.starts_with("expanded") as u64;
        }
    }

    /// Record one side measurement of the front end; `rewrite_ns` is what
    /// `rewrite_snapshot` took beyond the parse and plan it repeats.
    fn record_front_end(&mut self, front: &FrontEnd, rewrite_ns: u64) {
        self.parse_ns.push(front.parse_ns);
        self.plan_ns.push(front.plan_ns);
        self.rewrite_ns.push(rewrite_ns);
        self.optimize_ns.push(front.optimize_ns);
        self.lower_ns.push(front.lower_ns);
    }

    /// `(name, value)` for every layer metric this accumulator owns; the
    /// caller adds the `client.*` and `trace.*` figures.
    pub fn finish(&self) -> Vec<(&'static str, f64)> {
        let with_metrics = self.queries_with_operator_metrics.max(1) as f64;
        let self_ms = |g: usize| self.self_ns[g] as f64 / 1e6 / with_metrics;
        let mut out = vec![
            ("sql.parse_us", mean_of(&self.parse_ns, 1e3)),
            ("sql.plan_us", mean_of(&self.plan_ns, 1e3)),
            ("rewrite.rewrite_us", mean_of(&self.rewrite_ns, 1e3)),
            (
                "rewrite.candidates",
                self.candidates as f64 / self.counted_queries.max(1) as f64,
            ),
            (
                "rewrite.expanded_chosen_pct",
                share(self.expanded_chosen, self.counted_queries),
            ),
            ("relational.optimize_us", mean_of(&self.optimize_ns, 1e3)),
            ("relational.lower_us", mean_of(&self.lower_ns, 1e3)),
            ("relational.exec_ms", mean_of(&self.exec_ns, 1e6)),
        ];
        out.extend(
            SELF_TIME_METRICS
                .iter()
                .enumerate()
                .map(|(g, name)| (*name, self_ms(g))),
        );
        out.extend([
            ("relational.rows_scanned", self.exec.rows_scanned as f64),
            ("relational.rows_sorted", self.exec.rows_sorted as f64),
            (
                "relational.sort_comparisons",
                self.exec.sort_comparisons as f64,
            ),
            (
                "relational.window_accumulator_ops",
                self.exec.window_accumulator_ops as f64,
            ),
            ("relational.hash_ops", self.exec.hash_ops as f64),
            (
                "relational.key_bytes_encoded",
                self.exec.key_bytes_encoded as f64,
            ),
            (
                "relational.rows_scanned_per_result_row",
                self.exec.rows_scanned as f64 / self.result_rows.max(1) as f64,
            ),
            (
                "storage.segments_pruned_pct",
                share(self.exec.segments_pruned, self.exec.segments_total),
            ),
            (
                "storage.seq_cache_hit_pct",
                share(self.cache_hits, self.cache_hits + self.cache_misses),
            ),
            (
                "storage.seq_cache_invalidations",
                self.cache_invalidations as f64,
            ),
            (
                "service.queue_wait_us_p50",
                pct_of(&self.queue_wait_ns, 50.0, 1e3),
            ),
            (
                "service.queue_wait_us_p95",
                pct_of(&self.queue_wait_ns, 95.0, 1e3),
            ),
            (
                "service.exec_us_p50",
                pct_of(&self.service_exec_ns, 50.0, 1e3),
            ),
            (
                "service.overhead_us_p50",
                pct_of(&self.overhead_ns, 50.0, 1e3),
            ),
            (
                "service.coalesced_pct",
                share(self.coalesced, self.service_queries),
            ),
            ("service.rejected", self.rejected as f64),
            (
                "service.shard_rows_merged",
                self.exec.shard_rows_merged as f64,
            ),
            ("service.partition_us", mean_of(&self.partition_ns, 1e3)),
            ("service.publish_us", mean_of(&self.publish_ns, 1e3)),
            ("core.segment_encode_us", mean_of(&self.encode_ns, 1e3)),
            (
                "core.segments_loaded_lazy",
                self.segments_loaded_lazy as f64,
            ),
            ("core.materialize_ms", self.materialize_ms),
            ("log.append_us", mean_of(&self.log_append_ns, 1e3)),
            ("log.fsync_us", mean_of(&self.log_fsync_ns, 1e3)),
            ("log.io_ticks", self.io_ticks as f64),
            (
                "log.bytes_per_append",
                self.log_bytes as f64 / self.counted_appends.max(1) as f64,
            ),
            ("log.disk_bytes_per_row", self.disk_bytes_per_row),
            ("log.records_replayed", self.records_replayed as f64),
            ("log.recover_shard_ms", self.recover_shard_ms),
            (
                "stream.maintain_us_p50",
                pct_of(&self.maintain_ns, 50.0, 1e3),
            ),
            (
                "stream.maintain_us_p95",
                pct_of(&self.maintain_ns, 95.0, 1e3),
            ),
            ("stream.recleansed_rows", self.recleansed_rows as f64),
            ("stream.delta_rows", self.delta_rows as f64),
            ("stream.fallbacks", self.fallbacks as f64),
            ("stream.dropped_for_lag", self.dropped_for_lag as f64),
            ("rules.compile_us", self.rules_compile_us),
            ("rfidgen.generate_s", self.generate_s),
            ("trace.stage_coverage_pct", share(self.stage_ns, self.op_ns)),
            (
                "trace.append_replay_coverage_pct",
                share(self.replay_stage_ns, self.replay_real_ns),
            ),
            ("trace.ops_counted", self.ops_counted as f64),
        ]);
        out
    }
}

/// The front-end steps of one query, each timed on its own through its
/// public function. A side measurement: the calls that answer a query chain
/// these steps inside `dc-core`, where they cannot be told apart from outside.
struct FrontEnd {
    parse_ns: u64,
    plan_ns: u64,
    /// `optimize_default` over the user plan (a rewrite runs it once per
    /// candidate, so this is a unit cost, not the rewrite's share).
    optimize_ns: u64,
    lower_ns: u64,
}

/// Time parse, plan, optimize and lower for `sql`. `executed` is the plan
/// that was lowered for real (the rewrite's choice); without one the
/// optimized user plan is lowered, as `query_dirty` does.
fn measure_front_end(
    catalog: &Catalog,
    sql: &str,
    executed: Option<&LogicalPlan>,
) -> Result<FrontEnd> {
    let ns = |a: Instant, b: Instant| (b - a).as_nanos() as u64;
    let t0 = Instant::now();
    let query = parse_query(sql)?;
    let t1 = Instant::now();
    let user_plan = plan_query(&query, catalog)?;
    let t2 = Instant::now();
    let optimized = std::hint::black_box(optimize_default(user_plan, catalog));
    let t3 = Instant::now();
    std::hint::black_box(lower(executed.unwrap_or(&optimized), catalog)?);
    let t4 = Instant::now();
    Ok(FrontEnd {
        parse_ns: ns(t0, t1),
        plan_ns: ns(t1, t2),
        optimize_ns: ns(t2, t3),
        lower_ns: ns(t3, t4),
    })
}

/// Run one query directly against `system` under an op span, through the
/// same public calls `query_with_strategy` chains: `rewrite_snapshot`, then
/// `execute_rewritten_snapshot`, one stage span each. `application = None`
/// is the dirty path, a single `query_dirty_with_report` stage. The front-end
/// steps inside those calls are timed afterwards, outside the span, and
/// subtracted: rewrite = `rewrite_snapshot` − parse − plan, and execution =
/// the executing call − lower (− parse, plan and optimize on the dirty path).
pub fn traced_direct_query(
    tracer: &mut Tracer,
    acc: &mut LayerAcc,
    system: &DeferredCleansingSystem,
    op_id: u64,
    application: Option<&str>,
    sql: &str,
) -> Result<(Batch, u64)> {
    let catalog = system.catalog();
    let op = tracer.open(op_id, "query");
    match application {
        Some(app) => {
            let (rewritten, rewrite_ns) = tracer.stage(op, "core.rewrite_snapshot", || {
                system.rewrite_snapshot(catalog, app, sql, Strategy::Auto)
            });
            let rewritten = rewritten?;
            let (run, exec_ns) = tracer.stage(op, "core.execute_rewritten_snapshot", || {
                system.execute_rewritten_snapshot(catalog, &rewritten, QueryBudget::unlimited())
            });
            let run = run?;
            let op_ns = tracer.close(op);
            acc.stage_ns += rewrite_ns + exec_ns;
            acc.op_ns += op_ns;
            let front = measure_front_end(catalog, sql, Some(&rewritten.plan))?;
            acc.record_front_end(
                &front,
                rewrite_ns.saturating_sub(front.parse_ns + front.plan_ns),
            );
            acc.record_execution(
                Execution {
                    stats: &run.stats,
                    metrics: run.metrics.as_ref(),
                    result_rows: run.batch.num_rows(),
                    chosen: &rewritten.chosen,
                    candidates: rewritten.candidates.len(),
                },
                Some(exec_ns.saturating_sub(front.lower_ns)),
            );
            Ok((run.batch, op_ns))
        }
        None => {
            let (out, dirty_ns) = tracer.stage(op, "core.query_dirty", || {
                system.query_dirty_with_report(sql)
            });
            let (batch, report) = out?;
            let op_ns = tracer.close(op);
            acc.stage_ns += dirty_ns;
            acc.op_ns += op_ns;
            let front = measure_front_end(catalog, sql, None)?;
            acc.record_front_end(&front, 0);
            let front_ns = front.parse_ns + front.plan_ns + front.optimize_ns + front.lower_ns;
            acc.record_execution((&report).into(), Some(dirty_ns.saturating_sub(front_ns)));
            Ok((batch, op_ns))
        }
    }
}

/// Side measurement for queries that run inside the service (where the
/// stages cannot be separated from outside): rewrite against the
/// coordinator's system and `catalog`, then time the front-end steps.
pub fn replay_front_end(
    acc: &mut LayerAcc,
    coordinator: &DeferredCleansingSystem,
    catalog: &Catalog,
    application: &str,
    sql: &str,
) -> Result<()> {
    let start = Instant::now();
    let rewritten = coordinator.rewrite_snapshot(catalog, application, sql, Strategy::Auto)?;
    let rewrite_ns = start.elapsed().as_nanos() as u64;
    let front = measure_front_end(catalog, sql, Some(&rewritten.plan))?;
    // `rewrite_snapshot` parses and plans before it rewrites.
    acc.record_front_end(
        &front,
        rewrite_ns.saturating_sub(front.parse_ns + front.plan_ns),
    );
    Ok(())
}

/// Median microseconds to parse and compile one of `rules` (the SQL-TS text
/// of the benchmark rule sets).
pub fn rules_compile_us(rules: &[String]) -> f64 {
    let us: Vec<f64> = rules
        .iter()
        .map(|text| {
            let start = Instant::now();
            let def = dc_sqlts::parse_rule(text).expect("benchmark rule parses");
            std::hint::black_box(dc_rules::compile_rule(&def).expect("benchmark rule compiles"));
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&stats::sorted(&us)).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_relational::physical::MetricsCollector;

    #[test]
    fn operator_self_time_groups_and_never_underflows() {
        // Built through the engine's own collector, so a new field of
        // `OperatorMetrics` does not break this test.
        let mut tree = MetricsCollector::new();
        tree.enter("AggregateExec", String::new());
        tree.enter("WindowExec", String::new());
        tree.enter("ScanExec", String::new());
        tree.exit(0, 30);
        // Parallel children can sum past their parent.
        tree.enter("ScanExec", String::new());
        tree.exit(0, 60);
        tree.exit(0, 70);
        tree.exit(0, 100);
        let tree = tree.finish().expect("a finished tree");
        let mut groups = [0u64; 7];
        operator_self_ns(&tree, &mut groups);
        assert_eq!(groups[group_of("AggregateExec")], 30);
        assert_eq!(groups[group_of("WindowExec")], 0);
        assert_eq!(groups[group_of("ScanExec")], 90);
        assert_eq!(group_of("ProjectExec"), 6);
    }

    #[test]
    fn unused_layers_report_zero() {
        let acc = LayerAcc::default();
        assert!(acc.finish().iter().all(|(_, v)| *v == 0.0));
    }
}
