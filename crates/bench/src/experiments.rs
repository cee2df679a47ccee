//! Experiment drivers, one per table/figure of the paper.

use crate::harness::{run_variant, setup, setup_with_parallelism, BenchEnv, Measurement, Variant};
use dc_core::Strategy;
use dc_json::Json;
use dc_relational::sql::{parse_query, plan_query};
use dc_rewrite::{analyze, RewriteEngine};
use dc_rules::compile_rule;
use dc_sqlts::parse_rule;

/// Default scale for the repro binary: s pallets ⇒ ~s·50·30 case reads.
pub const DEFAULT_SCALE: usize = 40;
pub const DEFAULT_SEED: u64 = 2006;

/// The variants measured per point, in the paper's presentation order.
pub const VARIANTS: [Variant; 4] = [
    Variant::Dirty,
    Variant::Expanded,
    Variant::JoinBack,
    Variant::Naive,
];

/// One (x-axis point, variant) measurement row.
#[derive(Debug, Clone)]
pub struct ExperimentRow {
    /// x-axis label: selectivity %, rule count, or anomaly %.
    pub x: String,
    pub query: &'static str,
    pub measurement: Option<Measurement>,
    pub variant: &'static str,
}

impl ExperimentRow {
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("x", self.x.as_str())
            .set("query", self.query)
            .set("variant", self.variant)
            .set(
                "measurement",
                self.measurement.as_ref().map(|m| m.to_json()),
            )
    }
}

/// Table 1: the derived expanded (context) conditions for q1/q2 per rule.
#[derive(Debug, Clone)]
pub struct Table1Row {
    pub rule: String,
    pub q1_condition: Option<String>,
    pub q2_condition: Option<String>,
}

impl Table1Row {
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("rule", self.rule.as_str())
            .set("q1_condition", self.q1_condition.as_deref())
            .set("q2_condition", self.q2_condition.as_deref())
    }
}

/// Reproduce Table 1 against a generated dataset.
pub fn table1(scale: usize, seed: u64) -> Vec<Table1Row> {
    let env = setup(scale, 10.0, seed);
    let ds = &env.dataset;
    let t1 = ds.rtime_quantile(0.10);
    let t2 = ds.rtime_quantile(0.90);
    let engine = RewriteEngine::new();
    let q1 = ds.q1(t1);
    let q2 = ds.q2(t2, 2);

    let catalog = env.system.catalog();
    let shape_of = |sql: &str| {
        let plan = plan_query(&parse_query(sql).unwrap(), catalog).unwrap();
        analyze(&plan, "caser", catalog).unwrap()
    };
    let s1 = shape_of(&q1);
    let s2 = shape_of(&q2);

    // The five logical rules; the missing rule contributes two sub-rules
    // whose conditions are reported jointly.
    let rules = ds.benchmark_rules(5);
    let mut rows = Vec::new();
    for text in &rules {
        let def = parse_rule(text).unwrap();
        let template = compile_rule(&def).unwrap();
        let c1 = engine
            .rule_context_condition(&template, &s1)
            .map(|e| e.to_string());
        let c2 = engine
            .rule_context_condition(&template, &s2)
            .map(|e| e.to_string());
        rows.push(Table1Row {
            rule: def.name.clone(),
            q1_condition: c1,
            q2_condition: c2,
        });
    }
    rows
}

/// Figure 7(a)/(d) and Figure 8: vary the rtime-predicate selectivity with
/// the reader rule enabled, on db-10.
pub fn fig7_selectivity(
    which: &'static str, // "q1" | "q2" | "q2prime"
    scale: usize,
    seed: u64,
    selectivities: &[f64],
    threads: usize,
) -> Vec<ExperimentRow> {
    let env = setup_with_parallelism(scale, 10.0, seed, threads);
    let mut rows = Vec::new();
    for &sel in selectivities {
        let sql = query_at_selectivity(&env, which, sel);
        for v in VARIANTS {
            let m = run_variant(&env, 1, &sql, v);
            rows.push(ExperimentRow {
                x: format!("{:.0}%", sel * 100.0),
                query: which,
                variant: v.label(),
                measurement: m,
            });
        }
    }
    rows
}

fn query_at_selectivity(env: &BenchEnv, which: &str, sel: f64) -> String {
    let ds = &env.dataset;
    match which {
        // q1 selects rtime <= T1 (low quantile).
        "q1" => ds.q1(ds.rtime_quantile(sel)),
        // q2/q2' select rtime >= T2 (high quantile).
        "q2" => ds.q2(ds.rtime_quantile(1.0 - sel), 2),
        "q2prime" => ds.q2_prime(ds.rtime_quantile(1.0 - sel), 3),
        other => panic!("unknown query {other}"),
    }
}

/// Figure 9(a)/(b): vary the number of rules (1–5) at 10 % selectivity on
/// db-10.
pub fn fig9_rules(
    which: &'static str,
    scale: usize,
    seed: u64,
    threads: usize,
) -> Vec<ExperimentRow> {
    let env = setup_with_parallelism(scale, 10.0, seed, threads);
    let sql = query_at_selectivity(&env, which, 0.10);
    let mut rows = Vec::new();
    for n in 1..=5 {
        for v in VARIANTS {
            let m = run_variant(&env, n, &sql, v);
            rows.push(ExperimentRow {
                x: format!("{n} rules"),
                query: which,
                variant: v.label(),
                measurement: m,
            });
        }
    }
    rows
}

/// Figure 9(c)/(d): vary the anomaly percentage (10–40 %) with the first
/// three rules at 10 % selectivity.
pub fn fig9_dirty(
    which: &'static str,
    scale: usize,
    seed: u64,
    threads: usize,
) -> Vec<ExperimentRow> {
    let mut rows = Vec::new();
    for pct in [10.0, 20.0, 30.0, 40.0] {
        let env = setup_with_parallelism(scale, pct, seed, threads);
        let sql = query_at_selectivity(&env, which, 0.10);
        for v in VARIANTS {
            let m = run_variant(&env, 3, &sql, v);
            rows.push(ExperimentRow {
                x: format!("{pct:.0}%"),
                query: which,
                variant: v.label(),
                measurement: m,
            });
        }
    }
    rows
}

/// Figure 7(b,c,e,f,g): the execution plans of q1, q1_e, q2, q2_e, q2_j.
pub fn plans(scale: usize, seed: u64) -> Vec<(String, String)> {
    let env = setup(scale, 10.0, seed);
    let ds = &env.dataset;
    let q1 = ds.q1(ds.rtime_quantile(0.10));
    let q2 = ds.q2(ds.rtime_quantile(0.90), 2);
    let mut out = Vec::new();
    let dirty_plan = |sql: &str| {
        dc_relational::sql::plan_sql(sql, env.system.catalog())
            .unwrap()
            .display_indent()
    };
    out.push(("Fig 7(b): q1 (dirty)".to_string(), dirty_plan(&q1)));
    for (label, sql, strategy) in [
        ("Fig 7(c): q1_e", &q1, Strategy::Expanded),
        ("Fig 7(f): q2_e", &q2, Strategy::Expanded),
        ("Fig 7(g): q2_j", &q2, Strategy::JoinBack),
    ] {
        let rendered = env
            .system
            .explain("rules-1", sql, strategy)
            .unwrap_or_else(|e| format!("(infeasible: {e})"));
        out.push((label.to_string(), rendered));
    }
    out.push(("Fig 7(e): q2 (dirty)".to_string(), dirty_plan(&q2)));
    out
}

/// EXPLAIN ANALYZE of the Figure-7 queries (q1 and q2 at 10 % selectivity)
/// under the reader rule with the cost-based strategy: the rewrite decision
/// trace (chosen candidate, every cost estimate, derived conditions) and
/// the executed physical plan annotated with per-operator row counts.
pub fn explains(scale: usize, seed: u64, threads: usize) -> Vec<(String, dc_core::ExplainReport)> {
    let env = setup_with_parallelism(scale, 10.0, seed, threads);
    let ds = &env.dataset;
    let q1 = ds.q1(ds.rtime_quantile(0.10));
    let q2 = ds.q2(ds.rtime_quantile(0.90), 2);
    let mut out = Vec::new();
    for (label, sql) in [("Fig 7(a): q1 @ 10%", &q1), ("Fig 7(d): q2 @ 10%", &q2)] {
        let report = env
            .system
            .explain_report("rules-1", sql, Strategy::Auto, true)
            .unwrap_or_else(|e| panic!("explain analyze of {label}: {e}"));
        out.push((label.to_string(), report));
    }
    out
}

/// Ablation: order sharing on/off for the expanded rewrite of q1. Returns
/// (sorts with sharing, sorts without sharing) work counters.
pub fn ablation_order_sharing(scale: usize, seed: u64) -> (Measurement, Measurement) {
    use dc_relational::exec::Executor;
    use dc_relational::optimizer::{optimize, OptimizerConfig};

    let env = setup(scale, 10.0, seed);
    let ds = &env.dataset;
    let sql = ds.q1(ds.rtime_quantile(0.10));
    let catalog = env.system.catalog();
    let user_plan = plan_query(&parse_query(&sql).unwrap(), catalog).unwrap();
    let rules = env.system.rules().rules_for("rules-1");
    let engine = RewriteEngine::new();
    let rewritten = engine
        .rewrite_plan(&user_plan, &rules, catalog, Strategy::Expanded)
        .unwrap();

    // The engine returns an optimized plan; reset the order-sharing marks so
    // each configuration re-decides them.
    fn clear_presorted(plan: dc_relational::plan::LogicalPlan) -> dc_relational::plan::LogicalPlan {
        use dc_relational::plan::LogicalPlan as P;
        match plan {
            P::Window {
                input,
                partition_by,
                order_by,
                exprs,
                presorted: _,
            } => P::Window {
                input: Box::new(clear_presorted(*input)),
                partition_by,
                order_by,
                exprs,
                presorted: false,
            },
            P::Filter { input, predicate } => P::Filter {
                input: Box::new(clear_presorted(*input)),
                predicate,
            },
            P::Project { input, exprs } => P::Project {
                input: Box::new(clear_presorted(*input)),
                exprs,
            },
            P::Sort { input, keys } => P::Sort {
                input: Box::new(clear_presorted(*input)),
                keys,
            },
            P::Join {
                left,
                right,
                left_keys,
                right_keys,
                join_type,
            } => P::Join {
                left: Box::new(clear_presorted(*left)),
                right: Box::new(clear_presorted(*right)),
                left_keys,
                right_keys,
                join_type,
            },
            P::Aggregate {
                input,
                group_by,
                aggs,
            } => P::Aggregate {
                input: Box::new(clear_presorted(*input)),
                group_by,
                aggs,
            },
            P::Distinct { input } => P::Distinct {
                input: Box::new(clear_presorted(*input)),
            },
            P::Union { inputs } => P::Union {
                inputs: inputs.into_iter().map(clear_presorted).collect(),
            },
            P::Limit { input, fetch } => P::Limit {
                input: Box::new(clear_presorted(*input)),
                fetch,
            },
            P::SubqueryAlias { input, alias } => P::SubqueryAlias {
                input: Box::new(clear_presorted(*input)),
                alias,
            },
            scan @ P::Scan { .. } => scan,
        }
    }
    let unoptimized = clear_presorted(rewritten.plan.clone());

    let measure = |cfg: OptimizerConfig| {
        let plan = optimize(unoptimized.clone(), catalog, &cfg);
        let mut ex = Executor::new(catalog);
        let start = std::time::Instant::now();
        let batch = ex.execute(&plan).unwrap();
        Measurement::new(
            "q_e",
            start.elapsed().as_secs_f64() * 1e3,
            batch.num_rows(),
            ex.stats,
            ex.window_eval_nanos,
            1,
            rewritten.chosen.clone(),
        )
    };
    let shared = measure(OptimizerConfig {
        enable_pushdown: true,
        enable_order_sharing: true,
    });
    let unshared = measure(OptimizerConfig {
        enable_pushdown: true,
        enable_order_sharing: false,
    });
    (shared, unshared)
}

/// Ablation: plain vs improved join-back (pushing ec into the outer arm) for
/// q1. Returns (improved, plain).
pub fn ablation_joinback(scale: usize, seed: u64) -> (Measurement, Measurement) {
    use dc_relational::exec::Executor;
    use dc_relational::optimizer::optimize_default;

    let env = setup(scale, 10.0, seed);
    let ds = &env.dataset;
    let sql = ds.q1(ds.rtime_quantile(0.10));
    let catalog = env.system.catalog();
    let user_plan = plan_query(&parse_query(&sql).unwrap(), catalog).unwrap();
    let rules = env.system.rules().rules_for("rules-1");
    let engine = RewriteEngine::new();

    let measure = |plan: &dc_relational::plan::LogicalPlan, label: String| {
        let plan = optimize_default(plan.clone(), catalog);
        let mut ex = Executor::new(catalog);
        let start = std::time::Instant::now();
        let batch = ex.execute(&plan).unwrap();
        Measurement::new(
            "q_j",
            start.elapsed().as_secs_f64() * 1e3,
            batch.num_rows(),
            ex.stats,
            ex.window_eval_nanos,
            1,
            label,
        )
    };

    // Improved: the engine's join-back (uses ec on the outer arm, §5.3).
    let improved_plan = engine
        .rewrite_plan_opts(&user_plan, &rules, catalog, Strategy::JoinBack, true)
        .unwrap();
    let improved = measure(&improved_plan.plan, "improved join-back".into());

    // Plain: the same rewrite with the expanded condition withheld from the
    // outer arm — the paper's un-improved Q_j.
    let plain_plan = engine
        .rewrite_plan_opts(&user_plan, &rules, catalog, Strategy::JoinBack, false)
        .unwrap();
    let plain = measure(&plain_plan.plan, "plain join-back (no ec)".into());
    (improved, plain)
}

/// Storage subsystem demonstration. Four rows:
///
/// * `prune-epc` — a point query on one case EPC; caseR is loaded in
///   case order, so zone maps confine the scan to the few segments
///   holding that case (`segments_pruned > 0`).
/// * `cache-cold` / `cache-warm` — the q1 join-back twice; the second
///   run answers every cleansed sequence from the cache.
/// * `cache-append` — one read appended for a queried EPC; exactly that
///   sequence is invalidated and recleansed, the rest still hit.
pub fn storage_cache(scale: usize, seed: u64, threads: usize) -> Vec<ExperimentRow> {
    use dc_relational::batch::Batch;
    use dc_relational::value::Value;

    let env = setup_with_parallelism(scale, 10.0, seed, threads);
    let ds = &env.dataset;
    let mut rows = Vec::new();

    let epc = ds.case_epc_urn(0);
    let point = format!("select epc, rtime, biz_loc from caser where epc = '{epc}'");
    rows.push(ExperimentRow {
        x: "prune-epc".into(),
        query: "storage",
        variant: Variant::Dirty.label(),
        measurement: run_variant(&env, 1, &point, Variant::Dirty),
    });

    let t1 = ds.rtime_quantile(0.10);
    let q1 = ds.q1(t1);
    for x in ["cache-cold", "cache-warm"] {
        rows.push(ExperimentRow {
            x: x.into(),
            query: "storage",
            variant: Variant::JoinBack.label(),
            measurement: run_variant(&env, 1, &q1, Variant::JoinBack),
        });
    }

    // Append one read for an EPC the query cleanses, so its cached
    // sequence goes stale while every other sequence stays valid.
    let victim = env
        .system
        .query_dirty(&format!(
            "select epc from caser where rtime <= {t1} limit 1"
        ))
        .expect("probe query");
    let victim = victim.row(0)[0]
        .as_str()
        .expect("epc is a string")
        .to_string();
    let caser = env.system.catalog().get("caser").expect("caser exists");
    let extra = Batch::from_rows(
        caser.schema().clone(),
        &[vec![
            Value::str(victim.as_str()),
            Value::Int(t1),
            Value::str("rdr:appended"),
            Value::str("gln:appended"),
            Value::str("step000"),
        ]],
    )
    .expect("appended batch");
    env.system
        .catalog()
        .append("caser", extra)
        .expect("append to caser");
    rows.push(ExperimentRow {
        x: "cache-append".into(),
        query: "storage",
        variant: Variant::JoinBack.label(),
        measurement: run_variant(&env, 1, &q1, Variant::JoinBack),
    });
    rows
}

/// Eager vs deferred (§6.1: "the cost of eager cleansing should be
/// comparable to that of q"): one-time materialization cost, the per-query
/// cost on the eager copy, and the deferred per-query cost.
pub struct EagerComparison {
    pub materialize_ms: f64,
    pub eager_query_ms: f64,
    pub deferred_query_ms: f64,
    pub eager_rows: usize,
}

pub fn eager_vs_deferred(scale: usize, seed: u64) -> EagerComparison {
    let env = setup(scale, 10.0, seed);
    let ds = &env.dataset;
    let t1 = ds.rtime_quantile(0.10);

    let start = std::time::Instant::now();
    let eager_rows = env
        .system
        .materialize_cleansed("rules-3", "caser_clean")
        .unwrap();
    let materialize_ms = start.elapsed().as_secs_f64() * 1e3;

    // Same q1 against the eager copy (textual substitution of the table).
    let q1_eager = ds.q1(t1).replace("from caser ", "from caser_clean ");
    let start = std::time::Instant::now();
    let a = env.system.query_dirty(&q1_eager).unwrap();
    let eager_query_ms = start.elapsed().as_secs_f64() * 1e3;

    let deferred = run_variant(&env, 3, &ds.q1(t1), Variant::Auto).unwrap();
    // Both views agree, of course.
    let b = env
        .system
        .query_with_strategy("rules-3", &ds.q1(t1), Strategy::Auto)
        .unwrap()
        .0;
    assert_eq!(a.sorted_rows(), b.sorted_rows());

    EagerComparison {
        materialize_ms,
        eager_query_ms,
        deferred_query_ms: deferred.millis,
        eager_rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shapes() {
        let rows = table1(3, 7);
        assert_eq!(rows.len(), 6); // 4 rules + missing r1/r2
        let by_name: std::collections::HashMap<&str, &Table1Row> =
            rows.iter().map(|r| (r.rule.as_str(), r)).collect();
        // Reader: bounded both ways.
        assert!(by_name["reader"].q1_condition.is_some());
        assert!(by_name["reader"].q2_condition.is_some());
        // Duplicate: feasible both ways (sound lower bound for q2).
        assert!(by_name["duplicate"].q1_condition.is_some());
        assert!(by_name["duplicate"].q2_condition.is_some());
        // Replacing: feasible both ways.
        assert!(by_name["replacing"].q1_condition.is_some());
        // Cycle: infeasible for both queries (Table 1: {}).
        assert!(by_name["cycle"].q1_condition.is_none());
        assert!(by_name["cycle"].q2_condition.is_none());
        // Missing r2: infeasible for q1, feasible for q2.
        assert!(by_name["missing_r2"].q1_condition.is_none());
        assert!(by_name["missing_r2"].q2_condition.is_some());
    }

    #[test]
    fn fig7_rows_complete() {
        let rows = fig7_selectivity("q1", 3, 7, &[0.05, 0.2], 1);
        assert_eq!(rows.len(), 8);
        // All four variants feasible for the reader rule.
        assert!(rows.iter().all(|r| r.measurement.is_some()));
        // Rewrites agree on result rows per selectivity.
        for sel in ["5%", "20%"] {
            let counts: Vec<usize> = rows
                .iter()
                .filter(|r| r.x == sel && r.variant != "q")
                .map(|r| r.measurement.as_ref().unwrap().result_rows)
                .collect();
            assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
        }
    }

    #[test]
    fn explains_carry_trace_and_metrics() {
        let reports = explains(2, 3, 1);
        assert_eq!(reports.len(), 2);
        for (label, rep) in &reports {
            assert!(!rep.trace.candidates.is_empty(), "{label}: no candidates");
            let m = rep.metrics.as_ref().unwrap_or_else(|| panic!("{label}"));
            assert!(m.rows_out > 0 || rep.result_rows == Some(0), "{label}");
            let text = rep.text();
            assert!(text.contains("-- chosen:"), "{label}");
            assert!(text.contains("rows_out="), "{label}");
        }
    }

    #[test]
    fn plans_render() {
        let ps = plans(2, 3);
        assert_eq!(ps.len(), 5);
        for (label, text) in &ps {
            assert!(!text.is_empty(), "{label} empty");
        }
        // q1_e shares the cleansing sort with the dwell window.
        let q1e = &ps.iter().find(|(l, _)| l.contains("q1_e")).unwrap().1;
        assert!(q1e.contains("order shared"), "{q1e}");
    }

    #[test]
    fn ablation_order_sharing_shows_extra_sort() {
        let (shared, unshared) = ablation_order_sharing(2, 3);
        assert!(unshared.stats.sorts_performed > shared.stats.sorts_performed);
        assert_eq!(shared.result_rows, unshared.result_rows);
    }

    #[test]
    fn eager_comparison_consistent() {
        let c = eager_vs_deferred(3, 5);
        assert!(c.eager_rows > 0);
        assert!(c.materialize_ms > 0.0);
        // Querying the eager copy is at most as expensive as the deferred
        // query (it pays no cleansing at query time).
        assert!(c.eager_query_ms <= c.deferred_query_ms * 3.0);
    }

    #[test]
    fn storage_cache_rows_demonstrate_pruning_and_caching() {
        let rows = storage_cache(3, 7, 1);
        assert_eq!(rows.len(), 4);
        let by_x: std::collections::HashMap<&str, &Measurement> = rows
            .iter()
            .map(|r| (r.x.as_str(), r.measurement.as_ref().unwrap()))
            .collect();

        let prune = by_x["prune-epc"];
        assert!(
            prune.stats.segments_total >= 2,
            "{} segments",
            prune.stats.segments_total
        );
        assert!(prune.stats.segments_pruned > 0);
        assert!(prune.stats.segments_scanned < prune.stats.segments_total);

        let cold = by_x["cache-cold"];
        assert!(cold.stats.seq_cache_misses > 0);
        assert_eq!(cold.stats.seq_cache_hits, 0);

        let warm = by_x["cache-warm"];
        assert!(warm.stats.seq_cache_hits > 0);
        assert_eq!(warm.stats.seq_cache_misses, 0);
        assert_eq!(warm.result_rows, cold.result_rows);

        let appended = by_x["cache-append"];
        assert!(appended.stats.seq_cache_invalidations >= 1);
        assert!(
            appended.stats.seq_cache_hits > 0,
            "unaffected sequences still hit"
        );
    }

    #[test]
    fn ablation_joinback_scans_differ() {
        let (improved, plain) = ablation_joinback(2, 3);
        // The improved variant's outer arm fetches less data.
        assert!(improved.stats.rows_sorted <= plain.stats.rows_sorted);
    }
}
