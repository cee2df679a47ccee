//! Serial vs partition-parallel equivalence.
//!
//! Partition-parallel Φ_C cleansing must be *transparent*: at any
//! parallelism the result batches are byte-identical (same rows, same
//! order) and the merged [`ExecStats`] — including window work, sort
//! counts, and `partitions_executed` — are equal to the serial run. This
//! suite checks that for every repro workload and for randomly generated
//! window plans, whose rows are also held to the `dc-oracle` interpreter's.

use dc_bench::harness::setup_with_parallelism;
use dc_core::Strategy;
use dc_oracle::rows_of;
use dc_relational::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PARALLELISMS: [usize; 3] = [1, 2, 8];

/// Every repro workload (q1/q2/q2' × every strategy) produces byte-identical
/// batches and identical stats at parallelism 1, 2, and 8.
#[test]
fn repro_workloads_equivalent_across_parallelism() {
    // The same (scale, anomaly, seed) generates the same database, so the
    // three environments differ only in parallelism.
    let envs: Vec<_> = PARALLELISMS
        .iter()
        .map(|&p| setup_with_parallelism(3, 10.0, 7, p))
        .collect();
    let ds = &envs[0].dataset;
    let workloads = [
        ("q1@10%", ds.q1(ds.rtime_quantile(0.10))),
        ("q2@10%", ds.q2(ds.rtime_quantile(0.90), 2)),
        ("q2'@10%", ds.q2_prime(ds.rtime_quantile(0.90), 3)),
    ];
    let strategies = [
        Strategy::Auto,
        Strategy::Expanded,
        Strategy::JoinBack,
        Strategy::Naive,
    ];
    for (name, sql) in &workloads {
        for n_rules in [1, 3] {
            let app = format!("rules-{n_rules}");
            for strategy in strategies {
                let mut outcomes = Vec::new();
                for (env, &p) in envs.iter().zip(&PARALLELISMS) {
                    match env.system.query_with_strategy(&app, sql, strategy) {
                        Ok((batch, report)) => {
                            assert_eq!(report.parallelism, p, "{name} {app} {strategy:?}");
                            // The timing-free view of the operator metrics
                            // tree is part of the deterministic contract too.
                            let metrics = report.metrics.as_ref().map(|m| m.deterministic());
                            assert!(
                                metrics.is_some(),
                                "{name} {app} {strategy:?}: no metrics at P={p}"
                            );
                            outcomes.push(Some((rows_of(&batch), report.stats, metrics)));
                        }
                        Err(_) => outcomes.push(None),
                    }
                }
                // Feasibility, results, and stats must not depend on P.
                let (first, rest) = outcomes.split_first().unwrap();
                for (got, &p) in rest.iter().zip(&PARALLELISMS[1..]) {
                    assert_eq!(
                        got.is_some(),
                        first.is_some(),
                        "{name} {app} {strategy:?}: feasibility differs at P={p}"
                    );
                    if let (Some((rows, stats, metrics)), Some((rows1, stats1, metrics1))) =
                        (got, first)
                    {
                        assert_eq!(rows, rows1, "{name} {app} {strategy:?}: rows at P={p}");
                        assert_eq!(stats, stats1, "{name} {app} {strategy:?}: stats at P={p}");
                        assert_eq!(
                            metrics, metrics1,
                            "{name} {app} {strategy:?}: per-operator metrics at P={p}"
                        );
                    }
                }
            }
        }
        // The dirty baseline too (its window-free path must also be stable).
        let dirty: Vec<_> = envs
            .iter()
            .map(|env| {
                let (b, r) = env.system.query_dirty_with_report(sql).unwrap();
                let metrics = r.metrics.as_ref().map(|m| m.deterministic());
                (rows_of(&b), r.stats, metrics)
            })
            .collect();
        assert!(dirty.windows(2).all(|w| w[0] == w[1]), "{name} dirty");
    }
}

/// Eager materialization (Φ over the whole reads table) is also identical
/// across parallelism.
#[test]
fn materialization_equivalent_across_parallelism() {
    let mut results = Vec::new();
    for &p in &PARALLELISMS {
        let env = setup_with_parallelism(2, 20.0, 11, p);
        let rows = env
            .system
            .materialize_cleansed("rules-3", "caser_clean")
            .unwrap();
        let batch = env
            .system
            .query_dirty("select epc, rtime, biz_loc from caser_clean")
            .unwrap();
        results.push((rows, rows_of(&batch)));
    }
    assert!(results.windows(2).all(|w| w[0] == w[1]));
}

// ---------------------------------------------------------------------------
// Property test: random window plans.
// ---------------------------------------------------------------------------

const CASES: u64 = 48;

/// Run `property` for `CASES` deterministic seeds, reporting the failing
/// seed on panic (mirrors tests/proptest_invariants.rs).
fn check(name: &str, mut property: impl FnMut(&mut StdRng)) {
    for case in 0..CASES {
        let seed = 0xDCA7_0000 + case;
        let mut rng = StdRng::seed_from_u64(seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            property(&mut rng);
        }));
        if let Err(e) = result {
            eprintln!("property '{name}' failed at case {case} (seed {seed:#x})");
            std::panic::resume_unwind(e);
        }
    }
}

fn random_catalog(rng: &mut StdRng) -> Catalog {
    let schema = schema_ref(Schema::new(vec![
        Field::new("epc", DataType::Str),
        Field::new("rtime", DataType::Int),
        Field::new("biz_loc", DataType::Str),
        Field::new("weight", DataType::Double),
    ]));
    let n = rng.gen_range(1..=60usize);
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|_| {
            vec![
                Value::str(format!("e{}", rng.gen_range(0..5u32))),
                Value::Int(rng.gen_range(0..500i64)),
                Value::str(format!("loc{}", rng.gen_range(0..3u32))),
                if rng.gen_bool(0.1) {
                    Value::Null
                } else {
                    Value::Double(rng.gen_range(0..1000i64) as f64 / 10.0)
                },
            ]
        })
        .collect();
    let b = Batch::from_rows(schema, &rows).unwrap();
    let mut t = Table::new("r", b);
    if rng.gen_bool(0.5) {
        t.create_index("rtime").unwrap();
    }
    let cat = Catalog::new();
    cat.register(t);
    cat
}

fn random_frame(rng: &mut StdRng) -> Frame {
    let bound = |rng: &mut StdRng, start: bool| match rng.gen_range(0..4u32) {
        0 => {
            if start {
                FrameBound::UnboundedPreceding
            } else {
                FrameBound::UnboundedFollowing
            }
        }
        1 => FrameBound::Preceding(rng.gen_range(0..20i64)),
        2 => FrameBound::CurrentRow,
        _ => FrameBound::Following(rng.gen_range(0..20i64)),
    };
    // Retry until the frame is well-formed (start not after end).
    loop {
        let (s, e) = (bound(rng, true), bound(rng, false));
        let order = |b: &FrameBound| match b {
            FrameBound::UnboundedPreceding => (0, 0),
            FrameBound::Preceding(n) => (1, -n),
            FrameBound::CurrentRow => (2, 0),
            FrameBound::Following(n) => (3, *n),
            FrameBound::UnboundedFollowing => (4, 0),
        };
        if order(&s) <= order(&e) {
            return if rng.gen_bool(0.5) {
                Frame::rows(s, e)
            } else {
                Frame::range(s, e)
            };
        }
    }
}

fn random_window_plan(rng: &mut StdRng) -> LogicalPlan {
    let input = if rng.gen_bool(0.5) {
        LogicalPlan::scan("r").filter(Expr::col("rtime").lt(Expr::lit(rng.gen_range(50..500i64))))
    } else {
        LogicalPlan::scan("r")
    };
    let partition_by = if rng.gen_bool(0.3) {
        vec![Expr::col("epc"), Expr::col("biz_loc")]
    } else {
        vec![Expr::col("epc")]
    };
    let n_exprs = rng.gen_range(1..=3usize);
    let exprs: Vec<WindowExpr> = (0..n_exprs)
        .map(|i| {
            let (func, arg) = match rng.gen_range(0..6u32) {
                0 => (WindowFuncKind::Count, None),
                1 => (WindowFuncKind::Count, Some(Expr::col("weight"))),
                2 => (WindowFuncKind::Sum, Some(Expr::col("rtime"))),
                3 => (WindowFuncKind::Max, Some(Expr::col("biz_loc"))),
                4 => (WindowFuncKind::Min, Some(Expr::col("rtime"))),
                _ => (WindowFuncKind::Avg, Some(Expr::col("weight"))),
            };
            WindowExpr {
                func,
                arg,
                frame: random_frame(rng),
                alias: format!("w{i}"),
            }
        })
        .collect();
    LogicalPlan::Window {
        input: Box::new(input),
        partition_by,
        order_by: vec![SortKey::asc(Expr::col("rtime"))],
        exprs,
        presorted: false,
    }
}

const CHUNK_ROWS: [usize; 4] = [0, 1, 7, 1024];

/// Random window plans produce the reference interpreter's rows at every
/// parallelism × chunk size — the typed column fragments of the parallel
/// runs stitch to exactly the serial column, whether the input arrives as
/// one unbounded chunk (`chunk_rows` 0) or as re-joined 1-, 7- or 1024-row
/// chunks — and identical stats and operator metrics across parallelism at
/// each chunk size (chunk size itself only moves the per-chunk counters).
#[test]
fn random_plans_equivalent_across_parallelism_and_chunk_size() {
    check("parallel window equivalence", |rng| {
        let cat = random_catalog(rng);
        let plan = random_window_plan(rng);
        let expected = rows_of(&dc_oracle::execute(&plan, &cat).unwrap());
        let mut window_ops: Option<u64> = None;
        for &chunk_rows in &CHUNK_ROWS {
            let mut baseline: Option<(ExecStats, Option<OperatorMetrics>)> = None;
            for &p in &PARALLELISMS {
                let options = ExecOptions::with_parallelism(p).with_chunk_rows(chunk_rows);
                let mut ex = Executor::with_options(&cat, options);
                let batch = ex.execute(&plan).unwrap();
                let at = format!("P={p} chunk_rows={chunk_rows}");
                assert_eq!(rows_of(&batch), expected, "rows differ at {at}");
                let ops = *window_ops.get_or_insert(ex.stats.window_accumulator_ops);
                assert_eq!(
                    ex.stats.window_accumulator_ops, ops,
                    "window ops differ at {at}"
                );
                let metrics = ex.metrics.as_ref().map(|m| m.deterministic());
                match &baseline {
                    None => baseline = Some((ex.stats, metrics)),
                    Some((stats, metrics1)) => {
                        assert_eq!(&ex.stats, stats, "stats differ at {at}");
                        assert_eq!(&metrics, metrics1, "operator metrics differ at {at}");
                    }
                }
            }
        }
    });
}
