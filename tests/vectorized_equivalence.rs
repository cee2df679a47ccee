//! Chunked execution vs the reference interpreter, and typed kernels vs the
//! per-row `Value` evaluator (both in `dc-oracle`).
//!
//! The vectorized pipeline must be *transparent*: for any plan, running as
//! one unbounded chunk or in 1-, 7-, or 1024-row morsels produces rows
//! identical to [`dc_oracle::execute`], with work counters identical across
//! chunk sizes (modulo the chunk-bookkeeping counters themselves, and limit
//! plans, where early exit legitimately does less upstream work). Likewise
//! [`Expr::evaluate`] (typed kernels, selection-aware) must agree with
//! [`dc_oracle::evaluate`] on every expression shape, selection density, and
//! NULL mix — and stay parallelism-invariant at P ∈ {1, 2, 8}.

use dc_oracle::rows_of;
use dc_relational::expr::filter_chunk;
use dc_relational::physical::DEFAULT_CHUNK_ROWS;
use dc_relational::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// 0 is one unbounded chunk; the rest are morsel sizes.
const CHUNK_SIZES: [usize; 4] = [0, 1, 7, DEFAULT_CHUNK_ROWS];
const PARALLELISMS: [usize; 3] = [1, 2, 8];
const CASES: u64 = 48;

/// The chunk-bookkeeping counters differ across chunk sizes by design;
/// every other counter must match across chunk sizes exactly.
fn normalized(mut s: ExecStats) -> ExecStats {
    s.batches_processed = 0;
    s.selection_avoided_copies = 0;
    s
}

/// Run `property` for `CASES` deterministic seeds, reporting the failing
/// seed on panic (mirrors tests/parallel_equivalence.rs).
fn check(name: &str, mut property: impl FnMut(&mut StdRng)) {
    for case in 0..CASES {
        let seed = 0x5e1e_c700 + case;
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

fn test_schema() -> SchemaRef {
    schema_ref(Schema::new(vec![
        Field::new("epc", DataType::Str),
        Field::new("rtime", DataType::Int),
        Field::new("biz_loc", DataType::Str),
        Field::new("weight", DataType::Double),
        Field::new("qty", DataType::Int),
    ]))
}

/// Random rows with NULLs mixed into `rtime` and `weight`.
fn random_rows(rng: &mut StdRng, n: usize) -> Vec<Vec<Value>> {
    (0..n)
        .map(|_| {
            vec![
                Value::str(format!("e{}", rng.gen_range(0..6u32))),
                if rng.gen_bool(0.08) {
                    Value::Null
                } else {
                    Value::Int(rng.gen_range(0..500i64))
                },
                Value::str(format!("loc{}", rng.gen_range(0..4u32))),
                if rng.gen_bool(0.15) {
                    Value::Null
                } else {
                    Value::Double(rng.gen_range(0..1000i64) as f64 / 10.0)
                },
                Value::Int(rng.gen_range(0..50i64)),
            ]
        })
        .collect()
}

fn random_catalog(rng: &mut StdRng) -> Catalog {
    // Sometimes bigger than a default morsel so 1024-row chunking splits.
    let n = if rng.gen_bool(0.2) {
        rng.gen_range(1100..1600usize)
    } else {
        rng.gen_range(0..=300usize)
    };
    let rows = random_rows(rng, n);
    let b = Batch::from_rows(test_schema(), &rows).unwrap();
    let mut t = Table::new("r", b);
    if rng.gen_bool(0.5) {
        t.create_index("rtime").unwrap();
    }
    let cat = Catalog::new();
    cat.register(t);
    cat
}

/// A random boolean predicate of bounded depth over the test schema.
fn random_predicate(rng: &mut StdRng, depth: usize) -> Expr {
    if depth > 0 && rng.gen_bool(0.45) {
        let l = random_predicate(rng, depth - 1);
        let r = random_predicate(rng, depth - 1);
        return match rng.gen_range(0..3u32) {
            0 => l.and(r),
            1 => l.or(r),
            _ => Expr::Not(Box::new(l)),
        };
    }
    match rng.gen_range(0..7u32) {
        0 => Expr::col("rtime").lt(Expr::lit(rng.gen_range(0..500i64))),
        1 => Expr::col("weight").gt(Expr::lit(rng.gen_range(0..1000i64) as f64 / 10.0)),
        2 => Expr::col("epc").eq(Expr::lit(format!("e{}", rng.gen_range(0..6u32)))),
        3 => Expr::binary(
            Expr::binary(Expr::col("qty"), BinaryOp::Plus, Expr::col("rtime")),
            BinaryOp::LtEq,
            Expr::lit(rng.gen_range(0..550i64)),
        ),
        4 => Expr::IsNull {
            expr: Box::new(Expr::col(if rng.gen_bool(0.5) {
                "rtime"
            } else {
                "weight"
            })),
            negated: rng.gen_bool(0.5),
        },
        5 => Expr::InList {
            expr: Box::new(Expr::col("biz_loc")),
            list: (0..rng.gen_range(1..4u32))
                .map(|k| Value::str(format!("loc{k}")))
                .collect(),
            negated: rng.gen_bool(0.3),
        },
        _ => Expr::binary(
            Expr::col("biz_loc"),
            BinaryOp::NotEq,
            Expr::lit(format!("loc{}", rng.gen_range(0..4u32))),
        ),
    }
}

/// A random scalar (projection) expression.
fn random_scalar(rng: &mut StdRng) -> Expr {
    match rng.gen_range(0..6u32) {
        0 => Expr::col("rtime"),
        1 => Expr::binary(Expr::col("qty"), BinaryOp::Multiply, Expr::lit(3i64)),
        2 => Expr::binary(Expr::col("rtime"), BinaryOp::Minus, Expr::col("qty")),
        3 => Expr::binary(
            Expr::col("weight"),
            BinaryOp::Plus,
            Expr::lit(rng.gen_range(0..100i64) as f64),
        ),
        4 => Expr::Case {
            branches: vec![(random_predicate(rng, 0), Expr::col("qty"))],
            else_expr: if rng.gen_bool(0.5) {
                Some(Box::new(Expr::lit(-1i64)))
            } else {
                None
            },
        },
        _ => Expr::col("epc"),
    }
}

/// A random streaming-friendly plan: scan → [filter] → [project] →
/// [sort | aggregate | distinct] → [limit]. Returns the plan and whether it
/// contains a limit (which legitimately changes upstream work).
fn random_plan(rng: &mut StdRng) -> (LogicalPlan, bool) {
    let mut plan = LogicalPlan::scan("r");
    if rng.gen_bool(0.7) {
        plan = plan.filter(random_predicate(rng, 2));
    }
    if rng.gen_bool(0.5) {
        let n = rng.gen_range(1..=3usize);
        let exprs = (0..n)
            .map(|i| (random_scalar(rng), format!("p{i}")))
            .collect::<Vec<_>>();
        // Keep group/sort keys addressable: always carry a couple of
        // base columns through the projection.
        let mut all = vec![
            (Expr::col("epc"), "epc".to_string()),
            (Expr::col("biz_loc"), "biz_loc".to_string()),
            (Expr::col("rtime"), "rtime".to_string()),
        ];
        all.extend(exprs);
        plan = plan.project(all);
    }
    match rng.gen_range(0..4u32) {
        0 => {
            plan = plan.sort(vec![
                SortKey::asc(Expr::col("rtime")),
                SortKey::asc(Expr::col("epc")),
            ]);
        }
        1 => {
            plan = plan.aggregate(
                vec![(Expr::col("biz_loc"), "biz_loc".into())],
                vec![
                    AggExpr {
                        func: AggFunc::CountStar,
                        alias: "n".into(),
                    },
                    AggExpr {
                        func: AggFunc::Min(Expr::col("rtime")),
                        alias: "min_rt".into(),
                    },
                ],
            );
        }
        2 => plan = plan.distinct(),
        _ => {}
    }
    let limited = rng.gen_bool(0.3);
    if limited {
        plan = plan.limit(rng.gen_range(0..40usize));
    }
    (plan, limited)
}

/// Execution at every chunk size produces rows identical to the reference
/// interpreter, with identical work counters across chunk sizes (limit
/// plans excepted: early exit does less upstream work, never more).
#[test]
fn chunked_matches_reference_on_random_plans() {
    check("chunked vs reference", |rng| {
        let cat = random_catalog(rng);
        let (plan, limited) = random_plan(rng);
        let expected = rows_of(
            &dc_oracle::execute(&plan, &cat)
                .unwrap_or_else(|e| panic!("reference failed: {e}\n{}", plan.display_indent())),
        );
        let mut baseline: Option<ExecStats> = None;
        for &chunk in &CHUNK_SIZES {
            let opts = ExecOptions::with_parallelism(1).with_chunk_rows(chunk);
            let mut ex = Executor::with_options(&cat, opts);
            let batch = ex.execute(&plan).unwrap_or_else(|e| {
                panic!(
                    "plan failed at chunk_rows={chunk}: {e}\n{}",
                    plan.display_indent()
                )
            });
            assert_eq!(
                rows_of(&batch),
                expected,
                "rows differ at chunk_rows={chunk}\n{}",
                plan.display_indent()
            );
            let stats = *baseline.get_or_insert(ex.stats);
            if !limited {
                assert_eq!(
                    normalized(ex.stats),
                    normalized(stats),
                    "work counters differ at chunk_rows={chunk}\n{}",
                    plan.display_indent()
                );
            }
        }
    });
}

/// Build a random batch, optionally carrying a selection vector of random
/// density over the physical rows.
fn random_chunk(rng: &mut StdRng) -> Batch {
    let n = rng.gen_range(0..=200usize);
    let rows = random_rows(rng, n);
    let base = Batch::from_rows(test_schema(), &rows).unwrap();
    if rng.gen_bool(0.3) {
        return base; // flat chunk, no selection
    }
    let density = [1.0, 0.5, 0.1, 0.0][rng.gen_range(0..4usize)];
    let sel: Vec<u32> = (0..n as u32).filter(|_| rng.gen_bool(density)).collect();
    base.with_selection(sel)
}

/// Typed-kernel evaluation agrees with the per-row `Value` oracle on every
/// expression shape, selection density, and NULL mix.
#[test]
fn kernels_match_oracle_on_random_exprs() {
    check("kernel vs per-row oracle", |rng| {
        let chunk = random_chunk(rng);
        let expr = if rng.gen_bool(0.5) {
            random_predicate(rng, 2)
        } else {
            random_scalar(rng)
        };
        let kernel = expr.evaluate(&chunk);
        let oracle = dc_oracle::evaluate(&expr, &chunk);
        match (&kernel, &oracle) {
            (Ok(k), Ok(o)) => {
                assert_eq!(k.len(), o.len(), "lengths differ for {expr}");
                for i in 0..k.len() {
                    assert_eq!(
                        k.value(i),
                        o.value(i),
                        "row {i} differs for {expr} (kernel {:?} vs oracle {:?})",
                        k.data_type(),
                        o.data_type()
                    );
                }
            }
            (Err(_), Err(_)) => {}
            (k, o) => panic!(
                "kernel/oracle disagree on feasibility for {expr}: kernel {:?} oracle {:?}",
                k.as_ref().map(|_| ()),
                o.as_ref().map(|_| ())
            ),
        }
    });
}

/// `filter_chunk` survivor sets agree with filtering the compacted batch
/// through the oracle, mapped back to physical row ids.
#[test]
fn filter_chunk_matches_compacted_oracle() {
    check("filter_chunk vs compacted oracle", |rng| {
        let chunk = random_chunk(rng);
        let pred = random_predicate(rng, 2);
        let outcome = match filter_chunk(&pred, &chunk) {
            Ok(o) => o,
            Err(_) => {
                assert!(
                    dc_oracle::evaluate(&pred, &chunk).is_err(),
                    "kernel filter failed but the oracle succeeds for {pred}"
                );
                return;
            }
        };
        let col = dc_oracle::evaluate(&pred, &chunk).expect("oracle eval");
        let sel = chunk.selection();
        let expected: Vec<u32> = (0..col.len())
            .filter(|&k| !col.is_null(k) && col.value(k) == Value::Bool(true))
            .map(|k| sel.map_or(k as u32, |rows| rows[k]))
            .collect();
        assert_eq!(outcome.selected, expected, "survivors differ for {pred}");
    });
}

/// Chunked execution stays parallelism-invariant: batches, merged stats,
/// and the deterministic per-operator metrics are identical at P ∈ {1,2,8}
/// for each chunk size.
#[test]
fn chunked_execution_parallelism_invariant() {
    check("chunked parallelism invariance", |rng| {
        let cat = random_catalog(rng);
        let (plan, _) = random_plan(rng);
        for &chunk in &[7usize, DEFAULT_CHUNK_ROWS] {
            let mut baseline: Option<(Vec<Vec<Value>>, ExecStats, Option<OperatorMetrics>)> = None;
            for &p in &PARALLELISMS {
                let opts = ExecOptions::with_parallelism(p).with_chunk_rows(chunk);
                let mut ex = Executor::with_options(&cat, opts);
                let batch = ex.execute(&plan).unwrap();
                let metrics = ex.metrics.as_ref().map(|m| m.deterministic());
                match &baseline {
                    None => baseline = Some((rows_of(&batch), ex.stats, metrics)),
                    Some((rows, stats, metrics1)) => {
                        assert_eq!(
                            &rows_of(&batch),
                            rows,
                            "rows differ at P={p} chunk_rows={chunk}"
                        );
                        assert_eq!(&ex.stats, stats, "stats differ at P={p} chunk_rows={chunk}");
                        assert_eq!(
                            &metrics, metrics1,
                            "operator metrics differ at P={p} chunk_rows={chunk}"
                        );
                    }
                }
            }
        }
    });
}
