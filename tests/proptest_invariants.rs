//! Randomized property tests on the engine's core invariants:
//!
//! * window lag agrees with a reference implementation on random sequences,
//! * RANGE window frames agree with a brute-force reference,
//! * index range scans agree with naive filtering,
//! * implied bounds are sound over-approximations of arbitrary predicates,
//! * Φ for the duplicate rule agrees with a reference imperative cleaner,
//! * and the crown jewel: expanded / join-back / naive rewrites all agree
//!   with the materialized-Φ gold standard on random reads tables, random
//!   rules, and random threshold queries.
//!
//! The offline build has no proptest; each property runs a fixed number of
//! seeded random cases drawn from the vendored `rand` shim, so failures are
//! reproducible from the printed case seed.

use deferred_cleansing::relational::prelude::*;
use deferred_cleansing::rewrite::Strategy;
use deferred_cleansing::DeferredCleansingSystem;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const CASES: u64 = 64;

/// Run `CASES` seeded iterations of a property, printing the failing seed.
fn check(name: &str, mut property: impl FnMut(&mut StdRng)) {
    for case in 0..CASES {
        // Derive a per-case seed so any failure names the exact case.
        let seed = 0xDC00_0000 + case;
        let mut rng = StdRng::seed_from_u64(seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| property(&mut rng)));
        if let Err(panic) = result {
            eprintln!("property '{name}' failed at case {case} (seed {seed})");
            std::panic::resume_unwind(panic);
        }
    }
}

type ReadRow = (String, i64, String, String);

/// A small random reads table: up to 4 EPCs, small time/location domains so
/// anomalies and boundary collisions are frequent.
fn arb_reads(rng: &mut StdRng) -> Vec<ReadRow> {
    let n = rng.gen_range(1usize..40);
    (0..n)
        .map(|_| {
            (
                format!("e{}", rng.gen_range(0u8..4)),
                rng.gen_range(0i64..2000),
                format!("loc{}", rng.gen_range(0u8..3)),
                if rng.gen_bool(0.5) {
                    "readerX".to_string()
                } else {
                    "r0".to_string()
                },
            )
        })
        .collect()
}

fn reads_schema() -> SchemaRef {
    schema_ref(Schema::new(vec![
        Field::new("epc", DataType::Str),
        Field::new("rtime", DataType::Int),
        Field::new("biz_loc", DataType::Str),
        Field::new("reader", DataType::Str),
    ]))
}

fn catalog_from(rows: &[ReadRow]) -> Catalog {
    let data: Vec<Vec<Value>> = rows
        .iter()
        .map(|(e, t, l, r)| {
            vec![
                Value::str(e.as_str()),
                Value::Int(*t),
                Value::str(l.as_str()),
                Value::str(r.as_str()),
            ]
        })
        .collect();
    let cat = Catalog::new();
    let mut t = Table::new("caser", Batch::from_rows(reads_schema(), &data).unwrap());
    t.create_index("rtime").unwrap();
    t.create_index("epc").unwrap();
    cat.register(t);
    cat
}

/// Window "previous row" aggregates agree with a scan-based reference.
#[test]
fn window_lag_matches_reference() {
    check("window_lag_matches_reference", |rng| {
        let rows = arb_reads(rng);
        let cat = catalog_from(&rows);
        let plan = LogicalPlan::scan("caser").window(
            vec![Expr::col("epc")],
            vec![SortKey::asc(Expr::col("rtime"))],
            vec![WindowExpr {
                func: WindowFuncKind::Max,
                arg: Some(Expr::col("rtime")),
                frame: Frame::rows(FrameBound::Preceding(1), FrameBound::Preceding(1)),
                alias: "prev".into(),
            }],
        );
        let out = Executor::new(&cat).execute(&plan).unwrap();

        // Reference: sort rows by (epc, rtime) stably and compute lags.
        let mut sorted: Vec<(String, i64)> =
            rows.iter().map(|(e, t, _, _)| (e.clone(), *t)).collect();
        sorted.sort();
        let mut expect: Vec<(String, i64, Option<i64>)> = Vec::new();
        for (i, (e, t)) in sorted.iter().enumerate() {
            let prev = if i > 0 && &sorted[i - 1].0 == e {
                Some(sorted[i - 1].1)
            } else {
                None
            };
            expect.push((e.clone(), *t, prev));
        }
        let mut got: Vec<(String, i64, Option<i64>)> = (0..out.num_rows())
            .map(|i| {
                let r = out.row(i);
                (
                    r[0].as_str().unwrap().to_string(),
                    r[1].as_int().unwrap(),
                    r[4].as_int(),
                )
            })
            .collect();
        got.sort();
        expect.sort();
        // Ties on (epc, rtime) make prev ambiguous; compare only when the
        // sorted keys are unique.
        let mut keys: Vec<(String, i64)> = sorted.clone();
        keys.dedup();
        if keys.len() == sorted.len() {
            assert_eq!(got, expect);
        }
    });
}

/// RANGE window frames agree with a brute-force reference: for each row,
/// the count of same-sequence rows with skey in (t+1 ..= t+W).
#[test]
fn range_window_matches_reference() {
    check("range_window_matches_reference", |rng| {
        let rows = arb_reads(rng);
        let window = rng.gen_range(1i64..500);
        let cat = catalog_from(&rows);
        let plan = LogicalPlan::scan("caser").window(
            vec![Expr::col("epc")],
            vec![SortKey::asc(Expr::col("rtime"))],
            vec![WindowExpr {
                func: WindowFuncKind::Count,
                arg: None,
                frame: Frame::range(FrameBound::Following(1), FrameBound::Following(window)),
                alias: "n_after".into(),
            }],
        );
        let out = Executor::new(&cat).execute(&plan).unwrap();
        for i in 0..out.num_rows() {
            let r = out.row(i);
            let (epc, t) = (r[0].as_str().unwrap().to_string(), r[1].as_int().unwrap());
            let expect = rows
                .iter()
                .filter(|(e, rt, _, _)| *e == epc && *rt > t && *rt <= t + window)
                .count() as i64;
            // Empty frames yield count 0 in our engine.
            let got = r[4].as_int().unwrap_or(0);
            assert_eq!(got, expect, "epc {epc} t {t} window {window}");
        }
    });
}

/// Index range scans return exactly the rows a full filter would.
#[test]
fn index_scan_equals_filter() {
    check("index_scan_equals_filter", |rng| {
        let rows = arb_reads(rng);
        let lo = rng.gen_range(0i64..2000);
        let width = rng.gen_range(1i64..800);
        let cat = catalog_from(&rows);
        let hi = lo + width;
        let pred = Expr::col("rtime")
            .gt_eq(Expr::lit(lo))
            .and(Expr::col("rtime").lt(Expr::lit(hi)));
        // Through the index (pushed filter)...
        let indexed = LogicalPlan::Scan {
            table: "caser".into(),
            alias: None,
            filter: Some(pred.clone()),
        };
        let mut ex = Executor::new(&cat);
        let a = ex.execute(&indexed).unwrap();
        // ...vs a full-scan filter.
        let full = LogicalPlan::scan("caser").filter(pred);
        let cfg = OptimizerConfig {
            enable_pushdown: false,
            enable_order_sharing: false,
        };
        let b = Executor::new(&cat)
            .execute(&optimize(full, &cat, &cfg))
            .unwrap();
        assert_eq!(a.sorted_rows(), b.sorted_rows());
    });
}

/// `implied_bounds` is a sound over-approximation: every row satisfying
/// the predicate also satisfies every implied bound.
#[test]
fn implied_bounds_sound() {
    check("implied_bounds_sound", |rng| {
        let rows = arb_reads(rng);
        let t1 = rng.gen_range(0i64..2000);
        let t2 = rng.gen_range(0i64..2000);
        let cat = catalog_from(&rows);
        let pred = Expr::col("rtime")
            .lt_eq(Expr::lit(t1))
            .or(Expr::col("reader")
                .eq(Expr::lit("readerX"))
                .and(Expr::col("rtime").lt(Expr::lit(t2))));
        let table = cat.get("caser").unwrap();
        let batch = table.data();
        let sat = dc_oracle::filter_rows(&pred, batch).unwrap();
        for (ci, interval) in deferred_cleansing::relational::constraint::implied_bounds_resolved(
            &pred,
            batch.schema(),
        ) {
            for conj in
                interval.to_constraints(&ColumnRef::new(batch.schema().field(ci).name.clone()))
            {
                let keep = dc_oracle::filter_rows(&conj.to_expr(), batch).unwrap();
                for i in &sat {
                    assert!(
                        keep.contains(i),
                        "row {i} satisfies pred but not bound {conj}"
                    );
                }
            }
        }
    });
}

/// Φ for the timed duplicate rule agrees with an imperative reference.
#[test]
fn duplicate_rule_matches_reference() {
    check("duplicate_rule_matches_reference", |rng| {
        let rows = arb_reads(rng);
        // Skip inputs with (epc, rtime) ties — adjacency is ambiguous.
        let mut keys: Vec<(&String, i64)> = rows.iter().map(|(e, t, _, _)| (e, *t)).collect();
        keys.sort();
        let unique = keys.windows(2).all(|w| w[0] != w[1]);
        if !unique {
            return;
        }

        let cat = catalog_from(&rows);
        let template = deferred_cleansing::rules::compile_rule(
            &deferred_cleansing::sqlts::parse_rule(
                "DEFINE dup ON caseR CLUSTER BY epc SEQUENCE BY rtime AS (A, B) \
                 WHERE A.biz_loc = B.biz_loc and B.rtime - A.rtime < 5 mins ACTION DELETE B",
            )
            .unwrap(),
        )
        .unwrap();
        let phi =
            deferred_cleansing::rules::apply_rule(LogicalPlan::scan("caser"), &template, &cat)
                .unwrap();
        let got = Executor::new(&cat).execute(&phi).unwrap();

        // Reference: sort per epc; drop a row if its predecessor has the
        // same biz_loc and is < 300 s earlier (single simultaneous pass).
        let mut sorted = rows.clone();
        sorted.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
        let mut expect = 0usize;
        for (i, r) in sorted.iter().enumerate() {
            let dup = i > 0
                && sorted[i - 1].0 == r.0
                && sorted[i - 1].2 == r.2
                && r.1 - sorted[i - 1].1 < 300;
            if !dup {
                expect += 1;
            }
        }
        assert_eq!(got.num_rows(), expect);
    });
}

/// All rewrite strategies agree with the materialized gold standard for
/// a random rule pick and a random threshold query.
#[test]
fn rewrites_agree_with_gold() {
    check("rewrites_agree_with_gold", |rng| {
        let rows = arb_reads(rng);
        let threshold = rng.gen_range(0i64..2000);
        let upper = rng.gen_bool(0.5);
        let rule_pick = rng.gen_range(0usize..5);
        let rules = [
            "DEFINE reader ON caseR CLUSTER BY epc SEQUENCE BY rtime AS (A, *B) \
             WHERE B.reader = 'readerX' and B.rtime - A.rtime < 5 mins ACTION DELETE A",
            "DEFINE dup ON caseR CLUSTER BY epc SEQUENCE BY rtime AS (A, B) \
             WHERE A.biz_loc = B.biz_loc and B.rtime - A.rtime < 5 mins ACTION DELETE B",
            "DEFINE dup_untimed ON caseR CLUSTER BY epc SEQUENCE BY rtime AS (A, B) \
             WHERE A.biz_loc = B.biz_loc ACTION DELETE B",
            "DEFINE cycle ON caseR CLUSTER BY epc SEQUENCE BY rtime AS (A, B, C) \
             WHERE A.biz_loc = C.biz_loc and A.biz_loc != B.biz_loc ACTION DELETE B",
            // The §4.3 count() extension: two readerX reads required.
            "DEFINE reader2 ON caseR CLUSTER BY epc SEQUENCE BY rtime AS (A, *B) \
             WHERE count(B.reader = 'readerX') >= 2 and B.rtime - A.rtime < 5 mins \
             ACTION DELETE A",
        ];
        let catalog = Arc::new(catalog_from(&rows));
        let sys = DeferredCleansingSystem::with_catalog(Arc::clone(&catalog));
        sys.define_rule("app", rules[rule_pick]).unwrap();

        // Gold: materialize Φ(R) and run the query on it.
        let template = deferred_cleansing::rules::compile_rule(
            &deferred_cleansing::sqlts::parse_rule(rules[rule_pick]).unwrap(),
        )
        .unwrap();
        let phi =
            deferred_cleansing::rules::apply_rule(LogicalPlan::scan("caser"), &template, &catalog)
                .unwrap();
        let cleaned = Executor::new(&catalog).execute(&phi).unwrap();
        let gold_cat = Catalog::new();
        gold_cat.register(Table::new("caser", cleaned));
        let op = if upper { "<=" } else { ">=" };
        let sql = format!("select epc, rtime, biz_loc from caser where rtime {op} {threshold}");
        let expect = deferred_cleansing::relational::sql::run_sql(&sql, &gold_cat)
            .unwrap()
            .sorted_rows();

        for strategy in [
            Strategy::Auto,
            Strategy::Naive,
            Strategy::JoinBack,
            Strategy::Expanded,
        ] {
            match sys.query_with_strategy("app", &sql, strategy) {
                Ok((batch, report)) => assert_eq!(
                    batch.sorted_rows(),
                    expect.clone(),
                    "strategy {strategy:?} (chosen {}) diverged for rule {rule_pick} query {sql}",
                    report.chosen
                ),
                Err(_) => assert!(matches!(strategy, Strategy::Expanded)),
            }
        }
    });
}
