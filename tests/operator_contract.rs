//! The operator contract, swept: one plan holding all 12 physical operators
//! runs at every chunk size × parallelism × abort position.
//!
//! Every run is `Ok` or a typed `Error::Aborted`; the metrics tree it leaves
//! behind is well formed (the reference run's tree, or a prefix of it when
//! the run stopped early), accounts for exactly the rows charged to the
//! row budget, and folds to exactly the executor's work counters; and an
//! immediate unbudgeted re-run returns the reference rows, so an abort
//! corrupts nothing.

use dc_oracle::rows_of;
use dc_relational::prelude::*;
use dc_relational::sql::{parse_query, plan_query};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

const CHUNK_ROWS: [usize; 4] = [0, 1, 7, 1024];
const PARALLELISMS: [usize; 2] = [1, 2];

/// r(epc, rtime, loc, reader): 48 reads of 6 tags at 4 locations, some with
/// a NULL location; d(gln, site): 3 of the 4 locations, two of them at one
/// site; i(epc, product, descr): 5 of the 6 tags.
fn catalog() -> Catalog {
    let reads = schema_ref(Schema::new(vec![
        Field::new("epc", DataType::Str),
        Field::new("rtime", DataType::Int),
        Field::new("loc", DataType::Str),
        Field::new("reader", DataType::Str),
    ]));
    let rows: Vec<Vec<Value>> = (0..48i64)
        .map(|i| {
            vec![
                Value::str(format!("e{}", (i * 7) % 6)),
                Value::Int((i * 37) % 101),
                if i % 11 == 0 {
                    Value::Null
                } else {
                    Value::str(format!("loc{}", (i * 5) % 4))
                },
                Value::str(format!("reader{}", i % 3)),
            ]
        })
        .collect();
    let dims = schema_ref(Schema::new(vec![
        Field::new("gln", DataType::Str),
        Field::new("site", DataType::Str),
    ]));
    let dim_rows = [("loc0", "north"), ("loc1", "north"), ("loc2", "south")]
        .map(|(g, s)| vec![Value::str(g), Value::str(s)]);
    let info = schema_ref(Schema::new(vec![
        Field::new("epc", DataType::Str),
        Field::new("product", DataType::Str),
        Field::new("descr", DataType::Str),
    ]));
    let info_rows: Vec<Vec<Value>> = (0..5)
        .map(|t| {
            vec![
                Value::str(format!("e{t}")),
                Value::str(format!("product{}", t % 2)),
                Value::str(format!("tag number {t}")),
            ]
        })
        .collect();
    let cat = Catalog::new();
    cat.register(Table::new("r", Batch::from_rows(reads, &rows).unwrap()));
    cat.register(Table::new("d", Batch::from_rows(dims, &dim_rows).unwrap()));
    cat.register(Table::new("i", Batch::from_rows(info, &info_rows).unwrap()));
    cat
}

/// Limit ← Distinct ← Union of
///   Aggregate ← HashJoin(Window ← [Sort] ← Filter ← Scan r, Scan d) and
///   Project ← SubqueryAlias ← SemiJoin(Scan r, Scan d).
fn plan() -> LogicalPlan {
    let running_count = WindowExpr {
        func: WindowFuncKind::Count,
        arg: None,
        frame: Frame::rows(FrameBound::UnboundedPreceding, FrameBound::CurrentRow),
        alias: "n".into(),
    };
    let per_site = LogicalPlan::scan("r")
        .filter(Expr::col("rtime").lt(Expr::lit(90i64)))
        .window(
            vec![Expr::col("epc")],
            vec![SortKey::asc(Expr::col("rtime"))],
            vec![running_count],
        )
        .join(
            LogicalPlan::scan("d"),
            vec![Expr::col("loc")],
            vec![Expr::col("gln")],
            JoinType::Inner,
        )
        .aggregate(
            vec![(Expr::col("site"), "site".into())],
            vec![AggExpr {
                func: AggFunc::Sum(Expr::col("n")),
                alias: "total".into(),
            }],
        );
    let per_read = LogicalPlan::scan_as("r", "x")
        .join(
            LogicalPlan::scan("d"),
            vec![Expr::col("x.loc")],
            vec![Expr::col("gln")],
            JoinType::LeftSemi,
        )
        .alias("v")
        .project(vec![
            (Expr::col("v.loc"), "site".into()),
            (Expr::col("v.rtime"), "total".into()),
        ]);
    LogicalPlan::Union {
        inputs: vec![per_site, per_read],
    }
    .distinct()
    .limit(20)
}

const OPERATORS: [&str; 12] = [
    "AggregateExec",
    "DistinctExec",
    "FilterExec",
    "HashJoinExec",
    "LimitExec",
    "ProjectExec",
    "ScanExec",
    "SemiJoinExec",
    "SortExec",
    "SubqueryAliasExec",
    "UnionExec",
    "WindowExec",
];

fn walk<'m>(m: &'m OperatorMetrics, out: &mut Vec<&'m OperatorMetrics>) {
    out.push(m);
    for c in &m.children {
        walk(c, out);
    }
}

fn nodes(m: &OperatorMetrics) -> Vec<&OperatorMetrics> {
    let mut out = Vec::new();
    walk(m, &mut out);
    out
}

/// Rows charged to the row budget, read back from the tree: every operator
/// is charged exactly the rows it emitted.
fn rows_charged(m: &OperatorMetrics) -> u64 {
    nodes(m).iter().map(|n| n.rows_out).sum()
}

/// `got` is `full` cut short: the same operator at every node it has, its
/// children a leading run of `full`'s.
fn is_prefix_of(got: &OperatorMetrics, full: &OperatorMetrics) -> bool {
    got.label == full.label
        && got.children.len() <= full.children.len()
        && got
            .children
            .iter()
            .zip(&full.children)
            .all(|(g, f)| is_prefix_of(g, f))
}

/// Chunk size moves only the chunk-bookkeeping counters.
fn sans_chunking(mut m: OperatorMetrics) -> OperatorMetrics {
    m.stats.batches_processed = 0;
    m.stats.selection_avoided_copies = 0;
    m.children = m.children.into_iter().map(sans_chunking).collect();
    m
}

fn run(
    cat: &Catalog,
    options: ExecOptions,
    budget: QueryBudget,
) -> (Result<Batch>, Option<OperatorMetrics>, ExecStats) {
    let mut ex = Executor::with_budget(cat, options, budget);
    let out = ex.execute(&plan());
    (out, ex.metrics, ex.stats)
}

#[test]
fn the_plan_holds_every_physical_operator() {
    let cat = catalog();
    let (out, metrics, _) = run(&cat, ExecOptions::default(), QueryBudget::unlimited());
    let mut names: Vec<String> = nodes(&metrics.unwrap())
        .iter()
        .map(|n| n.name.clone())
        .collect();
    names.sort();
    names.dedup();
    assert_eq!(names, OPERATORS);
    // The limit really cuts, and the reference agrees on which rows survive.
    let out = out.unwrap();
    assert_eq!(out.num_rows(), 20);
    assert_eq!(
        rows_of(&out),
        rows_of(&dc_oracle::execute(&plan(), &cat).unwrap())
    );
}

#[test]
fn every_abort_position_leaves_a_well_formed_tree_and_a_clean_rerun() {
    let cat = catalog();
    let expected = rows_of(&dc_oracle::execute(&plan(), &cat).unwrap());
    let mut across_configs: Option<OperatorMetrics> = None;
    for chunk_rows in CHUNK_ROWS {
        let mut across_p: Option<OperatorMetrics> = None;
        for p in PARALLELISMS {
            let options = ExecOptions::with_parallelism(p).with_chunk_rows(chunk_rows);
            let at = format!("chunk_rows={chunk_rows} P={p}");

            let (out, full, stats) = run(&cat, options, QueryBudget::unlimited());
            assert_eq!(rows_of(&out.unwrap()), expected, "{at}");
            let full = full.expect("an executed plan has metrics");
            assert_eq!(
                stats,
                full.total_stats(),
                "{at}: counters are the tree's fold"
            );
            let det = full.deterministic();
            assert_eq!(*across_p.get_or_insert(det.clone()), det, "{at}");
            let norm = sans_chunking(det);
            assert_eq!(*across_configs.get_or_insert(norm.clone()), norm, "{at}");

            let total = rows_charged(&full);
            assert!(total > 100, "{at}: the sweep should have positions to hit");
            for k in 0..=total + 1 {
                let (out, tree, stats) =
                    run(&cat, options, QueryBudget::unlimited().with_row_limit(k));
                let tree = tree.expect("a row budget trips inside the plan, never before it");
                let at = format!("{at} row_limit={k}");
                assert!(is_prefix_of(&tree, &full), "{at}: malformed tree");
                // Aborted or not, every counter recorded lands in the tree.
                assert_eq!(
                    stats,
                    tree.total_stats(),
                    "{at}: counters are the tree's fold"
                );
                match out {
                    // Within budget: nothing changes, down to the counters.
                    Ok(batch) => {
                        assert!(k >= total, "{at}: charged {total} rows but did not abort");
                        assert_eq!(rows_of(&batch), expected, "{at}");
                        assert_eq!(tree.deterministic(), full.deterministic(), "{at}");
                    }
                    // Over budget: the tree holds the rows charged up to and
                    // including the chunk that tripped it — each row once.
                    Err(Error::Aborted(AbortReason::RowLimitExceeded)) => {
                        assert!(k < total, "{at}: aborted within budget");
                        let charged = rows_charged(&tree);
                        assert!(k < charged && charged <= total, "{at}: charged {charged}");
                    }
                    Err(e) => panic!("{at}: not a typed abort: {e}"),
                }
                let (again, _, _) = run(&cat, options, QueryBudget::unlimited());
                assert_eq!(rows_of(&again.unwrap()), expected, "{at}: re-run");
            }
        }
    }
}

#[test]
fn a_budget_tripped_before_the_plan_starts_enters_no_operator() {
    let cat = catalog();
    let expected = rows_of(&dc_oracle::execute(&plan(), &cat).unwrap());
    let expired = QueryBudget::unlimited().with_deadline(Duration::ZERO);
    std::thread::sleep(Duration::from_millis(2));
    let cases = [
        (
            QueryBudget::unlimited().with_cancel(Arc::new(AtomicBool::new(true))),
            AbortReason::Cancelled,
        ),
        (expired, AbortReason::DeadlineExceeded),
    ];
    for chunk_rows in CHUNK_ROWS {
        for p in PARALLELISMS {
            let options = ExecOptions::with_parallelism(p).with_chunk_rows(chunk_rows);
            for (budget, reason) in &cases {
                let (out, tree, _) = run(&cat, options, budget.clone());
                match out {
                    Err(Error::Aborted(r)) => assert_eq!(r, *reason),
                    other => panic!("expected {reason:?}, got {:?}", other.map(|b| b.num_rows())),
                }
                assert!(tree.is_none(), "no operator was entered");
                let (again, _, _) = run(&cat, options, QueryBudget::unlimited());
                assert_eq!(rows_of(&again.unwrap()), expected);
            }
        }
    }
}

/// The error path the hand-rolled streams used to unwind by hand: a
/// projection whose output schema cannot be derived fails in `open`, after
/// its child was opened. The failed subtree still attaches, child included,
/// with no rows charged.
#[test]
fn project_open_failure_keeps_the_opened_child_in_the_tree() {
    let cat = catalog();
    let bad = LogicalPlan::scan("r")
        .filter(Expr::col("rtime").lt(Expr::lit(50i64)))
        .project(vec![(Expr::col("no_such_column"), "x".into())])
        .limit(5);
    for chunk_rows in CHUNK_ROWS {
        let options = ExecOptions::default().with_chunk_rows(chunk_rows);
        let mut ex = Executor::with_options(&cat, options);
        let err = ex.execute(&bad).unwrap_err();
        assert!(!matches!(err, Error::Aborted(_)), "{err}");
        let tree = ex.metrics.expect("the failed plan still reports its tree");
        let names: Vec<&str> = nodes(&tree).iter().map(|n| n.name.as_str()).collect();
        assert_eq!(
            names,
            ["LimitExec", "ProjectExec", "FilterExec", "ScanExec"],
            "chunk_rows={chunk_rows}"
        );
        assert_eq!(rows_charged(&tree), 0);
        // The scan fetched its rows while opening; nothing was pulled.
        assert_eq!(tree.children[0].children[0].children[0].rows_in, 48);
        assert!(nodes(&tree).iter().all(|n| n.stats.batches_processed == 0));
    }
}

/// Lowering hands every operator only the columns read above it. Each case
/// names the labels the physical plan must (and must not) carry, and runs
/// against the reference interpreter, which knows nothing of pruning.
#[test]
fn only_the_columns_a_plan_reads_are_scanned_and_joined() {
    let cat = catalog();
    let col = |name: &str| (Expr::col(name), name.to_string());
    let tags = || {
        LogicalPlan::scan_as("r", "c").join(
            LogicalPlan::scan_as("i", "i"),
            vec![Expr::col("c.epc")],
            vec![Expr::col("i.epc")],
            JoinType::Inner,
        )
    };
    let prev_time = WindowExpr {
        func: WindowFuncKind::Max,
        arg: Some(Expr::col("rtime")),
        frame: Frame::rows(FrameBound::Preceding(1), FrameBound::Preceding(1)),
        alias: "prev".into(),
    };
    let renamed = LogicalPlan::scan("i").project(vec![
        (Expr::col("descr"), "a".into()),
        (Expr::lit(7i64), "b".into()),
        (Expr::col("product"), "c".into()),
        (Expr::col("epc"), "d".into()),
    ]);
    // (name, plan, labels present, labels absent)
    let cases: Vec<(&str, LogicalPlan, Vec<&str>, Vec<&str>)> = vec![
        (
            "a column only the scan filter reads is not emitted",
            LogicalPlan::Scan {
                table: "r".into(),
                alias: None,
                filter: Some(Expr::col("rtime").lt(Expr::lit(50i64))),
            }
            .project(vec![col("epc")]),
            vec!["filter=(rtime < 50) columns=[epc]"],
            vec![],
        ),
        (
            "c.epc read, i.epc only a join key",
            tags().project(vec![col("c.epc"), col("i.product")]),
            vec![
                "emit=[c.epc, i.product]",
                "ScanExec: r AS c columns=[epc]",
                "ScanExec: i AS i columns=[epc, product]",
            ],
            vec![],
        ),
        (
            "i.epc read, c.epc only a join key",
            tags().project(vec![col("i.epc"), col("c.rtime")]),
            vec![
                "emit=[i.epc, c.rtime]",
                "ScanExec: r AS c columns=[epc, rtime]",
                "ScanExec: i AS i columns=[epc]",
            ],
            vec![],
        ),
        (
            "count(*) reads no column and still counts rows",
            tags().aggregate(
                vec![],
                vec![AggExpr {
                    func: AggFunc::CountStar,
                    alias: "n".into(),
                }],
            ),
            vec!["emit=[]", "ScanExec: r AS c columns=[epc]"],
            vec![],
        ),
        (
            "Union inputs stay full-width and positional",
            LogicalPlan::Union {
                inputs: vec![LogicalPlan::scan("r"), renamed],
            }
            .project(vec![col("rtime")]),
            vec!["ScanExec: r\n"],
            vec!["ScanExec: r columns"],
        ),
        (
            "Distinct sees whole rows",
            LogicalPlan::scan("r")
                .project(vec![col("epc"), col("loc")])
                .distinct()
                .project(vec![col("epc")]),
            vec!["ScanExec: r columns=[epc, loc]"],
            vec![],
        ),
        (
            "Distinct directly over a scan pins it",
            LogicalPlan::scan("d").distinct().project(vec![col("site")]),
            vec!["ScanExec: d\n"],
            vec!["columns="],
        ),
        (
            "a cleansing chain under a join",
            LogicalPlan::scan("r")
                .window(
                    vec![Expr::col("epc")],
                    vec![SortKey::asc(Expr::col("rtime"))],
                    vec![prev_time],
                )
                .filter(Expr::IsNull {
                    expr: Box::new(Expr::col("prev")),
                    negated: true,
                })
                .project(vec![
                    col("epc"),
                    col("loc"),
                    (
                        Expr::binary(Expr::col("rtime"), BinaryOp::Minus, Expr::col("prev")),
                        "gap".into(),
                    ),
                ])
                .join(
                    LogicalPlan::scan("d"),
                    vec![Expr::col("loc")],
                    vec![Expr::col("gln")],
                    JoinType::Inner,
                )
                .aggregate(
                    vec![col("site")],
                    vec![AggExpr {
                        func: AggFunc::Sum(Expr::col("gap")),
                        alias: "total".into(),
                    }],
                ),
            vec!["emit=[site, gap]", "ScanExec: r columns=[epc, rtime, loc]"],
            vec![],
        ),
        (
            "SELECT * reads every column",
            plan_query(
                &parse_query("select * from r where rtime < 50").unwrap(),
                &cat,
            )
            .unwrap(),
            vec![],
            vec!["columns="],
        ),
        (
            "the root keeps every column",
            LogicalPlan::scan("r").filter(Expr::col("rtime").lt(Expr::lit(50i64))),
            vec!["ScanExec: r\n"],
            vec!["columns="],
        ),
    ];
    for (name, plan, present, absent) in &cases {
        let physical = display_physical(lower(plan, &cat).unwrap().as_ref());
        for label in present {
            assert!(
                physical.contains(label),
                "{name}: no '{label}' in\n{physical}"
            );
        }
        for label in absent {
            assert!(
                !physical.contains(label),
                "{name}: '{label}' in\n{physical}"
            );
        }
        let expected = rows_of(&dc_oracle::execute(plan, &cat).unwrap());
        assert!(!expected.is_empty(), "{name}: a case should return rows");
        for chunk_rows in CHUNK_ROWS {
            let options = ExecOptions::default().with_chunk_rows(chunk_rows);
            let got = Executor::with_options(&cat, options).execute(plan).unwrap();
            assert_eq!(rows_of(&got), expected, "{name} chunk_rows={chunk_rows}");
        }
    }

    // A reference two inputs could answer stays ambiguous although lowering
    // kept only the columns it names — on both sides, so neither was lost.
    let ambiguous = tags().project(vec![col("epc")]);
    let physical = display_physical(lower(&ambiguous, &cat).unwrap().as_ref());
    assert!(physical.contains("r AS c columns=[epc]") && physical.contains("i AS i columns=[epc]"));
    let err = Executor::new(&cat).execute(&ambiguous).unwrap_err();
    assert!(err.to_string().contains("ambiguous"), "{err}");
    assert!(dc_oracle::execute(&ambiguous, &cat).is_err());
}
