//! Benchmark setup and single-run measurement.

use dc_core::{DeferredCleansingSystem, Strategy};
use dc_json::Json;
use dc_relational::exec::ExecStats;
use dc_relational::table::Catalog;
use dc_rfidgen::{generate_into, Dataset, GenConfig};
use std::sync::Arc;
use std::time::Instant;

/// Which query variant to run (the paper's q / q_e / q_j / q_n).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The original query on dirty data (baseline; wrong answers).
    Dirty,
    /// Naive rewrite: clean everything first.
    Naive,
    /// Best expanded rewrite (None in results when infeasible).
    Expanded,
    /// Best join-back rewrite.
    JoinBack,
    /// Cost-based choice between expanded and join-back.
    Auto,
}

impl Variant {
    pub fn label(&self) -> &'static str {
        match self {
            Variant::Dirty => "q",
            Variant::Naive => "q_n",
            Variant::Expanded => "q_e",
            Variant::JoinBack => "q_j",
            Variant::Auto => "q_auto",
        }
    }
}

/// One measured execution.
#[derive(Debug, Clone)]
pub struct Measurement {
    pub variant: &'static str,
    pub millis: f64,
    pub result_rows: usize,
    /// The run's executor work counters (the fold of its metrics tree).
    pub stats: ExecStats,
    /// Wall-clock spent in window evaluation — the Φ_C hot path, and the
    /// quantity `--threads` is expected to improve.
    pub window_eval_ms: f64,
    /// Parallelism the run used.
    pub parallelism: usize,
    /// The rewrite the engine picked (for Auto / reporting).
    pub chosen: String,
}

impl Measurement {
    /// A measurement of one run: its wall-clock, result size, counters and
    /// window-evaluation time, and the parallelism and rewrite it ran with.
    pub fn new(
        variant: &'static str,
        millis: f64,
        result_rows: usize,
        stats: ExecStats,
        window_eval_nanos: u64,
        parallelism: usize,
        chosen: String,
    ) -> Self {
        Measurement {
            variant,
            millis,
            result_rows,
            stats,
            window_eval_ms: window_eval_nanos as f64 / 1e6,
            parallelism,
            chosen,
        }
    }

    pub fn to_json(&self) -> Json {
        let s = &self.stats;
        Json::obj()
            .set("variant", self.variant)
            .set("millis", Json::Num(self.millis))
            .set("result_rows", self.result_rows)
            .set("rows_scanned", s.rows_scanned)
            .set("rows_sorted", s.rows_sorted)
            .set("sorts", s.sorts_performed)
            .set("sort_comparisons", s.sort_comparisons)
            .set("sorts_elided", s.sorts_elided)
            .set("merge_runs_used", s.merge_runs_used)
            .set("window_accumulator_ops", s.window_accumulator_ops)
            .set("join_probes", s.join_probes)
            .set("hash_ops", s.hash_ops)
            .set("hash_collisions", s.hash_collisions)
            .set("probe_memcmps", s.probe_memcmps)
            .set("key_bytes_encoded", s.key_bytes_encoded)
            .set("partitions", s.partitions_executed)
            .set("window_eval_ms", Json::Num(self.window_eval_ms))
            .set("parallelism", self.parallelism)
            .set("chosen", self.chosen.as_str())
            .set("segments_total", s.segments_total)
            .set("segments_pruned", s.segments_pruned)
            .set("segments_scanned", s.segments_scanned)
            .set("cache_hits", s.seq_cache_hits)
            .set("cache_misses", s.seq_cache_misses)
            .set("cache_invalidations", s.seq_cache_invalidations)
    }
}

/// A prepared benchmark environment: one generated database plus a system
/// with the paper's rules registered under applications `rules-1` ...
/// `rules-5` (per Figure 9's rule counts).
pub struct BenchEnv {
    pub system: DeferredCleansingSystem,
    pub dataset: Dataset,
}

/// Generate database `db-<anomaly_pct>` at scale `s` and register the
/// benchmark rule sets.
pub fn setup(scale: usize, anomaly_pct: f64, seed: u64) -> BenchEnv {
    setup_with_parallelism(scale, anomaly_pct, seed, 1)
}

/// [`setup`] with partition-parallel cleansing enabled. Parallelism changes
/// wall-clock only — results and work counters are identical.
pub fn setup_with_parallelism(
    scale: usize,
    anomaly_pct: f64,
    seed: u64,
    parallelism: usize,
) -> BenchEnv {
    build(scale, anomaly_pct, seed, parallelism, true)
}

/// [`setup`] without the cleansed-sequence cache. The `stream` figure
/// compares incremental maintenance work against cold full recomputes;
/// both sides must pay the full cleansing cost for the ratio to mean
/// anything.
pub fn setup_uncached(scale: usize, anomaly_pct: f64, seed: u64) -> BenchEnv {
    build(scale, anomaly_pct, seed, 1, false)
}

fn build(scale: usize, anomaly_pct: f64, seed: u64, parallelism: usize, cache: bool) -> BenchEnv {
    let catalog = Arc::new(Catalog::new());
    let cfg = GenConfig {
        scale,
        anomaly_pct,
        seed,
        ..GenConfig::default()
    };
    let dataset = generate_into(&catalog, cfg).expect("generation cannot fail");
    dataset
        .materialize_missing_input(&catalog)
        .expect("missing-input materialization");
    let mut system = DeferredCleansingSystem::with_catalog(catalog);
    system.set_parallelism(parallelism);
    // The cleansed-sequence cache is on for every standard benchmark
    // environment. Each environment runs an identical query sequence, so
    // the hit/miss counters are deterministic and safe to gate on.
    if cache {
        system.enable_cleanse_cache(4096);
    }
    for n in 1..=5 {
        let app = format!("rules-{n}");
        for text in dataset.benchmark_rules(n) {
            system
                .define_rule(&app, &text)
                .unwrap_or_else(|e| panic!("defining rule for {app}: {e}"));
        }
    }
    BenchEnv { system, dataset }
}

/// Run one variant of a query under the application holding `n_rules` rules.
/// Returns `None` when the variant is infeasible (expanded for unbounded
/// rules).
pub fn run_variant(
    env: &BenchEnv,
    n_rules: usize,
    sql: &str,
    variant: Variant,
) -> Option<Measurement> {
    let app = format!("rules-{n_rules}");
    let strategy = match variant {
        Variant::Dirty => None,
        Variant::Naive => Some(Strategy::Naive),
        Variant::Expanded => Some(Strategy::Expanded),
        Variant::JoinBack => Some(Strategy::JoinBack),
        Variant::Auto => Some(Strategy::Auto),
    };
    let start = Instant::now();
    let (batch, report) = match strategy {
        None => env.system.query_dirty_with_report(sql),
        Some(strategy) => env.system.query_with_strategy(&app, sql, strategy),
    }
    .ok()?;
    Some(Measurement::new(
        variant.label(),
        start.elapsed().as_secs_f64() * 1e3,
        batch.num_rows(),
        report.stats,
        report.window_eval_nanos,
        report.parallelism,
        report.chosen,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_and_run_smoke() {
        let env = setup(4, 10.0, 1);
        assert!(env.dataset.case_reads > 1000);
        let t1 = env.dataset.rtime_quantile(0.1);
        let sql = env.dataset.q1(t1);
        let dirty = run_variant(&env, 1, &sql, Variant::Dirty).unwrap();
        let qe = run_variant(&env, 1, &sql, Variant::Expanded).unwrap();
        let qj = run_variant(&env, 1, &sql, Variant::JoinBack).unwrap();
        let qn = run_variant(&env, 1, &sql, Variant::Naive).unwrap();
        // Rewrites agree with each other (and differ from dirty in general).
        assert_eq!(qe.result_rows, qj.result_rows);
        assert_eq!(qe.result_rows, qn.result_rows);
        // Naive scans at least as much as the expanded rewrite.
        assert!(qn.stats.rows_scanned >= qe.stats.rows_scanned);
        let _ = dirty;
    }

    #[test]
    fn five_rule_application_works() {
        let env = setup(3, 10.0, 2);
        let t2 = env.dataset.rtime_quantile(0.9);
        let sql = env.dataset.q2(t2, 0);
        let qj = run_variant(&env, 5, &sql, Variant::JoinBack).unwrap();
        let qn = run_variant(&env, 5, &sql, Variant::Naive).unwrap();
        assert_eq!(qj.result_rows, qn.result_rows);
        // Expanded is infeasible with the cycle rule enabled.
        assert!(run_variant(&env, 5, &sql, Variant::Expanded).is_none());
        assert!(run_variant(&env, 4, &sql, Variant::Expanded).is_none());
        assert!(run_variant(&env, 3, &sql, Variant::Expanded).is_some());
    }
}
