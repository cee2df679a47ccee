//! EXPLAIN snapshot tests.
//!
//! The rendered EXPLAIN text of every repro workload (q1/q2/q2' under each
//! rewrite strategy) is pinned against committed snapshots in
//! `tests/snapshots/`. The text is fully deterministic — the decision trace,
//! derived conditions, logical plan, and physical plan carry no wall-clock —
//! so any drift means a rewrite, costing, or lowering change that must be
//! reviewed. Run with `UPDATE_SNAPSHOTS=1` to regenerate after an
//! intentional change.

use dc_bench::harness::{setup_with_parallelism, BenchEnv};
use dc_core::Strategy;
use deferred_cleansing::service::{QueryRequest, QueryService, ServiceConfig, ShardConfig};
use std::path::{Path, PathBuf};

const STRATEGIES: [Strategy; 4] = [
    Strategy::Auto,
    Strategy::Expanded,
    Strategy::JoinBack,
    Strategy::Naive,
];

fn snapshot_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/snapshots")
        .join(name)
}

fn assert_snapshot(name: &str, actual: &str) {
    let path = snapshot_path(name);
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing snapshot {} — run `UPDATE_SNAPSHOTS=1 cargo test --test explain_snapshots` \
             to create it",
            path.display()
        )
    });
    if expected != actual {
        let diff_at = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .unwrap_or_else(|| expected.lines().count().min(actual.lines().count()));
        panic!(
            "snapshot {} is stale (first differing line {}).\n\
             --- expected ---\n{expected}\n--- actual ---\n{actual}\n\
             If the plan change is intentional, regenerate with \
             `UPDATE_SNAPSHOTS=1 cargo test --test explain_snapshots`.",
            path.display(),
            diff_at + 1
        );
    }
}

fn env() -> BenchEnv {
    // Same small deterministic database as tests/parallel_equivalence.rs.
    setup_with_parallelism(3, 10.0, 7, 1)
}

/// EXPLAIN every strategy for one workload, concatenated into one document.
fn explain_all_strategies(env: &BenchEnv, sql: &str) -> String {
    let mut out = String::new();
    for strategy in STRATEGIES {
        out.push_str(&format!("== strategy {strategy:?} ==\n"));
        match env.system.explain("rules-3", sql, strategy) {
            Ok(text) => out.push_str(&text),
            Err(e) => out.push_str(&format!("error: {e}")),
        }
        if !out.ends_with('\n') {
            out.push('\n');
        }
        out.push('\n');
    }
    out
}

#[test]
fn q1_explain_snapshot() {
    let env = env();
    let sql = env.dataset.q1(env.dataset.rtime_quantile(0.10));
    assert_snapshot("explain_q1.txt", &explain_all_strategies(&env, &sql));
}

#[test]
fn q2_explain_snapshot() {
    let env = env();
    let sql = env.dataset.q2(env.dataset.rtime_quantile(0.90), 2);
    assert_snapshot("explain_q2.txt", &explain_all_strategies(&env, &sql));
}

#[test]
fn q2_prime_explain_snapshot() {
    let env = env();
    let sql = env.dataset.q2_prime(env.dataset.rtime_quantile(0.90), 3);
    assert_snapshot("explain_q2_prime.txt", &explain_all_strategies(&env, &sql));
}

/// The cleansed-sequence cache is visible in EXPLAIN ANALYZE: a cold
/// join-back run records only misses, the warm rerun answers every
/// sequence from the cache.
#[test]
fn q1_joinback_cache_snapshot() {
    let env = env();
    let sql = env.dataset.q1(env.dataset.rtime_quantile(0.10));
    let mut out = String::new();
    for pass in ["cold", "warm"] {
        let report = env
            .system
            .explain_report("rules-3", &sql, Strategy::JoinBack, true)
            .unwrap();
        out.push_str(&format!("== {pass} ==\n"));
        out.push_str(&report.text());
        if !out.ends_with('\n') {
            out.push('\n');
        }
        out.push('\n');
    }
    assert!(out.contains("cleanse cache: hits="), "{out}");
    assert_snapshot("explain_analyze_q1_cache.txt", &out);
}

/// EXPLAIN ANALYZE is deterministic too once timing is excluded: the
/// per-operator row counts come from a fixed (scale, seed) database. Both
/// renderings are pinned: the text, and the JSON metrics tree (key names
/// and key order included).
#[test]
fn q1_explain_analyze_snapshot() {
    let env = env();
    let sql = env.dataset.q1(env.dataset.rtime_quantile(0.10));
    let report = env
        .system
        .explain_report("rules-3", &sql, Strategy::Auto, true)
        .unwrap();
    let mut text = report.text();
    if !text.ends_with('\n') {
        text.push('\n');
    }
    assert_snapshot("explain_analyze_q1.txt", &text);
    let metrics = report.metrics.expect("analyze records metrics");
    let mut json = metrics.to_json(false).pretty();
    if !json.ends_with('\n') {
        json.push('\n');
    }
    assert_snapshot("explain_analyze_q1.json", &json);
}

/// The same q1 run through a 2-shard service: its metrics tree is a
/// `GatherExec` root over the gather plan (the AVG re-aggregation of the
/// shard partials) and the two shards' combined tree, and the reply's
/// counters are that tree's fold.
#[test]
fn sharded_q1_explain_analyze_snapshot() {
    let env = env();
    let sql = env.dataset.q1(env.dataset.rtime_quantile(0.10));
    let svc = QueryService::start_sharded(
        env.system,
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
        ShardConfig::new(2, "epc"),
    )
    .unwrap();
    let req = || QueryRequest::new("rules-3", sql.as_str());
    let text = svc.explain_analyze(&req()).unwrap();
    assert!(
        text.contains("\nGatherExec: 2 shards rows_merged="),
        "{text}"
    );
    let resp = svc.execute(req()).unwrap();
    let metrics = resp.report.metrics.expect("a scatter run has a tree");
    assert_eq!(resp.report.stats, metrics.total_stats());
    let mut json = metrics.to_json(false).pretty();
    if !json.ends_with('\n') {
        json.push('\n');
    }
    assert_snapshot("explain_analyze_sharded_q1.json", &json);
}
