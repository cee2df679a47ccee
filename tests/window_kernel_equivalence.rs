//! Typed window kernels ≡ naive frame recomputation.
//!
//! The typed sliding-window kernels (`WindowEval::eval_partition`, which
//! write straight into typed columns) must produce **byte-identical** values
//! to the per-row `Value` recomputation oracle (`dc_oracle::NaiveWindow`)
//! for every aggregate, argument type, frame shape, and NULL mix — and the
//! whole-plan results must stay identical at any parallelism. The oracle is
//! the pre-optimization semantics, so these properties pin the kernels down
//! exactly. The accumulator-ops counter has no oracle to compare against;
//! the exhaustive table pins it to the totals the scalar kernels counted
//! before the typed ones replaced them.
//!
//! The offline build has no proptest; each property runs seeded random
//! cases from the vendored `rand` shim (failing seeds are printed).

use dc_oracle::NaiveWindow;
use dc_relational::prelude::*;
use dc_relational::sort::sort_batch;
use dc_relational::window::WindowEval;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 96;
const PARALLELISMS: [usize; 3] = [1, 2, 8];

fn check(name: &str, mut property: impl FnMut(&mut StdRng)) {
    for case in 0..CASES {
        let seed = 0xDCFE_0000 + case;
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

/// A random reads-shaped batch, pre-sorted by (epc, rtime) the way the
/// physical window operator receives its input. Both the order key and the
/// argument columns carry NULLs; `iv` is Int, `dv` Double (the Double sum
/// exercises the kernel's recompute fallback).
fn random_sorted_batch(rng: &mut StdRng) -> Batch {
    let schema = schema_ref(Schema::new(vec![
        Field::new("epc", DataType::Str),
        Field::new("rtime", DataType::Int),
        Field::new("iv", DataType::Int),
        Field::new("dv", DataType::Double),
    ]));
    let n = rng.gen_range(1..=80usize);
    let n_parts = rng.gen_range(1..=4u32);
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|_| {
            vec![
                Value::str(format!("e{}", rng.gen_range(0..n_parts))),
                if rng.gen_bool(0.15) {
                    Value::Null
                } else {
                    // A small domain makes RANGE peer groups frequent.
                    Value::Int(rng.gen_range(0..30i64))
                },
                if rng.gen_bool(0.2) {
                    Value::Null
                } else {
                    Value::Int(rng.gen_range(-50..50i64))
                },
                if rng.gen_bool(0.2) {
                    Value::Null
                } else {
                    Value::Double(rng.gen_range(-500..500i64) as f64 / 10.0)
                },
            ]
        })
        .collect();
    let b = Batch::from_rows(schema, &rows).unwrap();
    sort_batch(
        &b,
        &[
            SortKey::asc(Expr::col("epc")),
            SortKey::asc(Expr::col("rtime")),
        ],
    )
    .unwrap()
}

fn random_frame(rng: &mut StdRng, units_rows: bool) -> Frame {
    let bound = |rng: &mut StdRng, start: bool| match rng.gen_range(0..4u32) {
        0 => {
            if start {
                FrameBound::UnboundedPreceding
            } else {
                FrameBound::UnboundedFollowing
            }
        }
        1 => FrameBound::Preceding(rng.gen_range(0..12i64)),
        2 => FrameBound::CurrentRow,
        _ => FrameBound::Following(rng.gen_range(0..12i64)),
    };
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
            return if units_rows {
                Frame::rows(s, e)
            } else {
                Frame::range(s, e)
            };
        }
    }
}

fn random_exprs(rng: &mut StdRng, units_rows: bool) -> Vec<WindowExpr> {
    let n_exprs = rng.gen_range(1..=4usize);
    (0..n_exprs)
        .map(|i| {
            let (func, arg) = match rng.gen_range(0..7u32) {
                0 => (WindowFuncKind::Count, None),
                1 => (WindowFuncKind::Count, Some(Expr::col("dv"))),
                2 => (WindowFuncKind::Sum, Some(Expr::col("iv"))),
                3 => (WindowFuncKind::Sum, Some(Expr::col("dv"))),
                4 => (WindowFuncKind::Max, Some(Expr::col("iv"))),
                5 => (WindowFuncKind::Min, Some(Expr::col("dv"))),
                _ => (WindowFuncKind::Avg, Some(Expr::col("iv"))),
            };
            WindowExpr {
                func,
                arg,
                frame: random_frame(rng, units_rows),
                alias: format!("w{i}"),
            }
        })
        .collect()
}

/// The oracle over the suite's window shape: `PARTITION BY epc ORDER BY
/// rtime`, the same arguments every `WindowEval::prepare` here gets.
fn naive<'a>(batch: &Batch, exprs: &'a [WindowExpr]) -> NaiveWindow<'a> {
    NaiveWindow::prepare(batch, &[Expr::col("epc")], Some(&Expr::col("rtime")), exprs)
        .expect("prepare oracle")
}

/// The typed kernels' output for one partition, read back as the scalar
/// rows the oracle produces, plus the accumulator-ops count.
fn typed(ev: &WindowEval<'_>, range: (usize, usize)) -> Result<(Vec<Vec<Value>>, u64)> {
    let (cols, ops) = ev.eval_partition(range)?;
    Ok((cols.iter().map(|c| c.iter().collect()).collect(), ops))
}

/// Per-partition equivalence: the typed kernels return the exact values of
/// the naive oracle over random ROWS and RANGE frames.
#[test]
fn typed_kernels_match_naive_oracle() {
    check("typed ≡ naive", |rng| {
        let batch = random_sorted_batch(rng);
        let units_rows = rng.gen_bool(0.5);
        let exprs = random_exprs(rng, units_rows);
        // RANGE frames require the single numeric order key.
        let order_key = Expr::col("rtime");
        let ev = WindowEval::prepare(&batch, &[Expr::col("epc")], Some(&order_key), &exprs)
            .expect("prepare");
        let oracle = naive(&batch, &exprs);
        assert_eq!(ev.partitions(), oracle.partitions());
        for &range in ev.partitions() {
            let (got, _) = typed(&ev, range).expect("typed");
            let (naive, _) = oracle.eval_partition(range).expect("naive");
            assert_eq!(
                got,
                naive,
                "partition {range:?} of {} rows",
                batch.num_rows()
            );
        }
        // One call over all partitions stitches the same values and counts
        // the same ops as partition-at-a-time calls.
        let (whole, whole_ops) = ev
            .eval_partitions(ev.partitions(), &QueryBudget::unlimited())
            .expect("typed");
        let mut ops = 0;
        let mut rows: Vec<Vec<Value>> = vec![Vec::new(); exprs.len()];
        for &range in ev.partitions() {
            let (vals, o) = typed(&ev, range).expect("typed");
            ops += o;
            for (acc, v) in rows.iter_mut().zip(vals) {
                acc.extend(v);
            }
        }
        assert_eq!(whole_ops, ops);
        for (c, r) in whole.iter().zip(&rows) {
            assert_eq!(&c.iter().collect::<Vec<_>>(), r);
        }
    });
}

/// Whole-plan equivalence across parallelism: batches, merged stats (the
/// accumulator-ops counter included), and the deterministic metrics view
/// are identical at P = 1, 2, 8.
#[test]
fn results_and_ops_counter_parallelism_invariant() {
    check("parallelism invariance", |rng| {
        let batch = random_sorted_batch(rng);
        let cat = Catalog::new();
        cat.register(Table::new("r", batch));
        let units_rows = rng.gen_bool(0.5);
        let plan = LogicalPlan::Window {
            input: Box::new(LogicalPlan::scan("r")),
            partition_by: vec![Expr::col("epc")],
            order_by: vec![SortKey::asc(Expr::col("rtime"))],
            exprs: random_exprs(rng, units_rows),
            presorted: false,
        };
        let mut baseline: Option<(Vec<Vec<Value>>, ExecStats, Option<OperatorMetrics>)> = None;
        for &p in &PARALLELISMS {
            let mut ex = Executor::with_options(&cat, ExecOptions::with_parallelism(p));
            let b = ex.execute(&plan).unwrap();
            let rows: Vec<Vec<Value>> = (0..b.num_rows()).map(|i| b.row(i)).collect();
            let metrics = ex.metrics.as_ref().map(|m| m.deterministic());
            match &baseline {
                None => baseline = Some((rows, ex.stats, metrics)),
                Some((rows1, stats1, metrics1)) => {
                    assert_eq!(&rows, rows1, "rows differ at P={p}");
                    assert_eq!(&ex.stats, stats1, "stats differ at P={p}");
                    assert_eq!(&metrics, metrics1, "metrics differ at P={p}");
                }
            }
        }
    });
}

/// The RANGE NULL-peer-group edge case, pinned explicitly: rows whose order
/// key is NULL sort first and form one peer group — their frame is exactly
/// the NULL rows, never the numeric rows, whatever the bounds say. Includes
/// the corner where an UNBOUNDED PRECEDING frame over the non-NULL rows is
/// empty although the coverage window spans the NULL prefix.
#[test]
fn range_null_peer_group_edge_case() {
    let schema = schema_ref(Schema::new(vec![
        Field::new("epc", DataType::Str),
        Field::new("rtime", DataType::Int),
        Field::new("iv", DataType::Int),
    ]));
    let rows: Vec<Vec<Value>> = vec![
        vec![Value::str("e1"), Value::Null, Value::Int(100)],
        vec![Value::str("e1"), Value::Null, Value::Int(7)],
        vec![Value::str("e1"), Value::Int(10), Value::Int(1)],
        vec![Value::str("e1"), Value::Int(20), Value::Int(2)],
        vec![Value::str("e1"), Value::Int(30), Value::Int(4)],
    ];
    let batch = Batch::from_rows(schema, &rows).unwrap();
    let frames = [
        // The corner: for rtime=30 the frame [_, 30-25] admits no numeric
        // key, so the frame is empty even though UNBOUNDED PRECEDING makes
        // the coverage window span the NULL prefix.
        Frame::range(FrameBound::UnboundedPreceding, FrameBound::Preceding(25)),
        Frame::range(FrameBound::Preceding(10), FrameBound::CurrentRow),
        Frame::range(
            FrameBound::UnboundedPreceding,
            FrameBound::UnboundedFollowing,
        ),
        Frame::range(FrameBound::CurrentRow, FrameBound::Following(10)),
    ];
    for frame in frames {
        for func in [
            WindowFuncKind::Sum,
            WindowFuncKind::Min,
            WindowFuncKind::Max,
            WindowFuncKind::Count,
            WindowFuncKind::Avg,
        ] {
            let exprs = [WindowExpr {
                func,
                arg: Some(Expr::col("iv")),
                frame: frame.clone(),
                alias: "w".into(),
            }];
            let ev = WindowEval::prepare(
                &batch,
                &[Expr::col("epc")],
                Some(&Expr::col("rtime")),
                &exprs,
            )
            .unwrap();
            let (inc, _) = typed(&ev, (0, 5)).unwrap();
            let (naive, _) = naive(&batch, &exprs).eval_partition((0, 5)).unwrap();
            assert_eq!(inc, naive, "{func:?} over {frame:?}");
            // NULL-key rows aggregate their peer group only: for sum over
            // the two NULL rows that is always 107, whatever the bounds.
            if func == WindowFuncKind::Sum {
                assert_eq!(inc[0][0], Value::Int(107), "{frame:?}");
                assert_eq!(inc[0][1], Value::Int(107), "{frame:?}");
            }
        }
    }
    // And the corner itself: sum over [UNBOUNDED PRECEDING, 25 PRECEDING]
    // at rtime=30 is an empty frame -> NULL, not the NULL-prefix sum.
    let exprs = [WindowExpr {
        func: WindowFuncKind::Sum,
        arg: Some(Expr::col("iv")),
        frame: Frame::range(FrameBound::UnboundedPreceding, FrameBound::Preceding(25)),
        alias: "w".into(),
    }];
    let ev = WindowEval::prepare(
        &batch,
        &[Expr::col("epc")],
        Some(&Expr::col("rtime")),
        &exprs,
    )
    .unwrap();
    let (inc, _) = typed(&ev, (0, 5)).unwrap();
    assert_eq!(inc[0][4], Value::Null);
}

// ---------------------------------------------------------------------------
// Exhaustive table: every (function, argument type, frame, NULL mix) cell.
// ---------------------------------------------------------------------------

/// One partition per NULL mix, sorted by (epc, rtime NULLS FIRST). The
/// Double column carries −0.0 and a NaN so bit-exactness is visible.
fn table_batch() -> Batch {
    let schema = schema_ref(Schema::new(vec![
        Field::new("epc", DataType::Str),
        Field::new("rtime", DataType::Int),
        Field::new("iv", DataType::Int),
        Field::new("dv", DataType::Double),
        Field::new("sv", DataType::Str),
        Field::new("bv", DataType::Bool),
    ]));
    let full = |epc: &str, t: Option<i64>, k: i64| {
        vec![
            Value::str(epc),
            t.map_or(Value::Null, Value::Int),
            Value::Int(7 * k % 11 - 5),
            Value::Double(if k == 3 {
                -0.0
            } else {
                (5 * k % 7) as f64 / 4.0 - 0.5
            }),
            Value::str(format!("s{}", 3 * k % 5)),
            Value::Bool(k % 3 == 0),
        ]
    };
    let nulls = |epc: &str, t: Option<i64>| {
        let mut row = vec![Value::Null; 6];
        row[0] = Value::str(epc);
        row[1] = t.map_or(Value::Null, Value::Int);
        row
    };
    let mut rows = Vec::new();
    // a: no NULLs; duplicate order keys make RANGE peer groups.
    for (k, t) in [10, 20, 20, 25, 40, 41].into_iter().enumerate() {
        rows.push(full("a", Some(t), k as i64));
    }
    // b: some NULL arguments, and a NaN.
    for (k, t) in [5, 6, 8, 8, 30].into_iter().enumerate() {
        rows.push(if k % 2 == 1 {
            nulls("b", Some(t))
        } else {
            full("b", Some(t), k as i64 + 1)
        });
    }
    rows[6 + 4][3] = Value::Double(f64::NAN);
    // c: every argument NULL.
    for t in [1, 2, 3] {
        rows.push(nulls("c", Some(t)));
    }
    // d: a NULL order-key prefix, with and without NULL arguments.
    rows.push(full("d", None, 2));
    rows.push(nulls("d", None));
    for (k, t) in [7, 9, 9, 15].into_iter().enumerate() {
        rows.push(full("d", Some(t), k as i64 + 4));
    }
    // e: a single row. f: every order key NULL.
    rows.push(full("e", Some(3), 9));
    rows.push(full("f", None, 1));
    rows.push(full("f", None, 6));
    Batch::from_rows(schema, &rows).unwrap()
}

use FrameBound::{CurrentRow as Cur, Following as Fol, Preceding as Pre};
const UNB_PRE: FrameBound = FrameBound::UnboundedPreceding;
const UNB_FOL: FrameBound = FrameBound::UnboundedFollowing;

/// Frame shapes (start, end) with the accumulator ops the scalar kernels
/// counted over the whole table for ROWS and for RANGE frames: 1-row,
/// bounded, unbounded and always-empty frames.
const FRAME_TABLE: [(FrameBound, FrameBound, u64, u64); 12] = [
    (Pre(1), Pre(1), 481, 178),
    (Fol(1), Fol(1), 560, 220),
    (Cur, Cur, 666, 633),
    (Pre(2), Pre(2), 328, 165),
    (Pre(2), Fol(1), 615, 606),
    (Fol(1), Fol(3), 600, 346),
    (Pre(5), Cur, 491, 606),
    (UNB_PRE, Cur, 491, 523),
    (Cur, UNB_FOL, 754, 695),
    (UNB_PRE, UNB_FOL, 579, 585),
    (UNB_PRE, Pre(4), 89, 307),
    (Pre(1), Pre(3), 0, 68),
];

/// {count(*), count, sum, avg, min, max} × {Int, Double, Str, Bool} ×
/// {ROWS, RANGE} × `FRAME_TABLE` × the NULL mixes of `table_batch`: typed
/// kernels and oracle agree on every value — or fail with the same error
/// (`sum`/`avg` over Str/Bool) — and the ops counter is the pinned one.
#[test]
fn exhaustive_table_matches_oracle_and_pins_ops() {
    let batch = table_batch();
    let funcs = [
        WindowFuncKind::Count,
        WindowFuncKind::Sum,
        WindowFuncKind::Avg,
        WindowFuncKind::Min,
        WindowFuncKind::Max,
    ];
    let mut actual = FRAME_TABLE;
    for (cell, &(start, end, _, _)) in actual.iter_mut().zip(&FRAME_TABLE) {
        for rows_units in [true, false] {
            let frame = if rows_units {
                Frame::rows(start, end)
            } else {
                Frame::range(start, end)
            };
            let mut exprs: Vec<WindowExpr> = vec![WindowExpr {
                func: WindowFuncKind::Count,
                arg: None,
                frame: frame.clone(),
                alias: "count_star".into(),
            }];
            for arg in ["iv", "dv", "sv", "bv"] {
                exprs.extend(funcs.iter().map(|&func| WindowExpr {
                    func,
                    arg: Some(Expr::col(arg)),
                    frame: frame.clone(),
                    alias: format!("{func}_{arg}"),
                }));
            }
            let mut ops = 0;
            // One expression at a time, so an erroring cell fails alone.
            for we in exprs.chunks(1) {
                let ev =
                    WindowEval::prepare(&batch, &[Expr::col("epc")], Some(&Expr::col("rtime")), we)
                        .unwrap();
                assert_eq!(ev.partitions().len(), 6);
                let oracle = naive(&batch, we);
                assert_eq!(ev.partitions(), oracle.partitions());
                for &range in ev.partitions() {
                    let what = format!("{} partition {range:?}", we[0]);
                    match (typed(&ev, range), oracle.eval_partition(range)) {
                        (Ok((got, o)), Ok((naive, _))) => {
                            assert_eq!(got, naive, "{what}");
                            ops += o;
                        }
                        (Err(e), Err(naive)) => {
                            assert_eq!(e.to_string(), naive.to_string(), "{what}")
                        }
                        (got, naive) => panic!("{what}: typed {got:?} vs naive {naive:?}"),
                    }
                }
            }
            if rows_units {
                cell.2 = ops;
            } else {
                cell.3 = ops;
            }
        }
    }
    assert_eq!(
        actual, FRAME_TABLE,
        "accumulator ops per frame (ROWS, RANGE)"
    );
}

/// The two corners the sum kernels handle specially. Integer sums run in
/// i128 and only the emitted frame total is held to the i64 range: a frame
/// whose prefix overflows but whose total does not is fine, one whose total
/// overflows is an error on both paths. Double sums are re-added per frame
/// in row order, so they carry the oracle's exact rounding.
#[test]
fn sum_corners_i128_running_sum_and_double_recompute() {
    let schema = schema_ref(Schema::new(vec![
        Field::new("epc", DataType::Str),
        Field::new("rtime", DataType::Int),
        Field::new("iv", DataType::Int),
        Field::new("dv", DataType::Double),
    ]));
    let big = i64::MAX;
    let rows: Vec<Vec<Value>> = [
        (big, 1e16),
        (big, 1.0),
        (-big, -1e16),
        (-big, 3.0),
        (5, 0.1),
        (7, 0.2),
    ]
    .into_iter()
    .enumerate()
    .map(|(t, (i, d))| {
        vec![
            Value::str("e"),
            Value::Int(t as i64),
            Value::Int(i),
            Value::Double(d),
        ]
    })
    .collect();
    let batch = Batch::from_rows(schema, &rows).unwrap();
    let eval = |func, arg: &str, frame: Frame| {
        let exprs = [WindowExpr {
            func,
            arg: Some(Expr::col(arg)),
            frame,
            alias: "w".into(),
        }];
        let ev = WindowEval::prepare(
            &batch,
            &[Expr::col("epc")],
            Some(&Expr::col("rtime")),
            &exprs,
        )
        .unwrap();
        let got = typed(&ev, (0, 6)).map(|(v, _)| v[0].clone());
        let naive = naive(&batch, &exprs)
            .eval_partition((0, 6))
            .map(|(v, _)| v[0].clone());
        (got, naive)
    };
    // Entering the whole-partition frame row by row passes 2·i64::MAX; the
    // frame total is 12.
    let whole = Frame::rows(UNB_PRE, UNB_FOL);
    let (got, naive) = eval(WindowFuncKind::Sum, "iv", whole.clone());
    let got = got.unwrap();
    assert_eq!(got, naive.unwrap());
    assert_eq!(got, vec![Value::Int(12); 6]);
    let (got, naive) = eval(WindowFuncKind::Avg, "iv", whole);
    assert_eq!(got.unwrap(), naive.unwrap());
    // A frame total out of range fails the same way on both paths; avg,
    // which never narrows, does not fail at all.
    let (got, naive) = eval(WindowFuncKind::Sum, "iv", Frame::rows(Pre(1), Cur));
    assert_eq!(got.unwrap_err().to_string(), naive.unwrap_err().to_string());
    let (got, naive) = eval(WindowFuncKind::Avg, "iv", Frame::rows(Pre(1), Cur));
    assert_eq!(got.unwrap(), naive.unwrap());
    // (1e16 + 1.0) − 1e16 ≠ 1.0 in f64: a running add/subtract sum would
    // drift from the per-frame one. Bit-identical to the oracle instead.
    for func in [WindowFuncKind::Sum, WindowFuncKind::Avg] {
        for frame in [
            Frame::rows(Pre(1), Cur),
            Frame::rows(Pre(2), Fol(1)),
            Frame::range(Pre(2), Cur),
            Frame::rows(UNB_PRE, UNB_FOL),
        ] {
            let (got, naive) = eval(func, "dv", frame.clone());
            assert_eq!(got.unwrap(), naive.unwrap(), "{func} {frame}");
        }
    }
}
