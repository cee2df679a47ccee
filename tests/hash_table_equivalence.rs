//! Normalized-key hash machinery vs the `Vec<Value>`-keyed reference.
//!
//! The vectorized hash path (batch key encoding + [`RawKeyTable`]) must be
//! *transparent*: for any plan built from joins, GROUP BY aggregation, and
//! DISTINCT, the engine produces rows identical to the
//! `HashMap<Vec<Value>, _>` operators of `dc-oracle` at every chunk size,
//! every selection density the filters induce, and every NULL mix — and the
//! hash path stays parallelism-invariant at P ∈ {1, 2, 8} with identical
//! deterministic operator metrics. A direct adversarial test drives
//! [`RawKeyTable`] with distinct keys sharing one 64-bit hash and checks
//! that memcmp disambiguates while the collision counter ticks.

use dc_oracle::rows_of;
use dc_relational::agg::hash_aggregate;
use dc_relational::join::{hash_join, JoinEmit};
use dc_relational::physical::DEFAULT_CHUNK_ROWS;
use dc_relational::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// 0 is one unbounded chunk; the rest are morsel sizes.
const CHUNK_SIZES: [usize; 4] = [0, 1, 7, DEFAULT_CHUNK_ROWS];
const PARALLELISMS: [usize; 3] = [1, 2, 8];
const CASES: u64 = 48;

/// The chunk-bookkeeping counters differ across chunk sizes by design;
/// every other counter (the hash-kernel ones included) must match.
fn sans_chunking(mut s: ExecStats) -> ExecStats {
    s.batches_processed = 0;
    s.selection_avoided_copies = 0;
    s
}

/// Run `property` for `CASES` deterministic seeds, reporting the failing
/// seed on panic (mirrors tests/vectorized_equivalence.rs).
fn check(name: &str, mut property: impl FnMut(&mut StdRng)) {
    for case in 0..CASES {
        let seed = 0x4a5b_3c00 + case;
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

fn reads_schema() -> SchemaRef {
    schema_ref(Schema::new(vec![
        Field::new("epc", DataType::Str),
        Field::new("rtime", DataType::Int),
        Field::new("weight", DataType::Double),
        Field::new("qty", DataType::Int),
        Field::new("ok", DataType::Bool),
    ]))
}

fn dim_schema() -> SchemaRef {
    schema_ref(Schema::new(vec![
        Field::new("gln", DataType::Str),
        Field::new("code", DataType::Int),
        Field::new("descr", DataType::Str),
    ]))
}

/// Random fact rows: every key-typed column carries NULLs so join keys hit
/// the non-joinable path and group keys hit NULL-as-its-own-group.
fn random_reads(rng: &mut StdRng, n: usize) -> Vec<Vec<Value>> {
    (0..n)
        .map(|_| {
            vec![
                if rng.gen_bool(0.06) {
                    Value::Null
                } else {
                    Value::str(format!("e{}", rng.gen_range(0..7u32)))
                },
                if rng.gen_bool(0.1) {
                    Value::Null
                } else {
                    Value::Int(rng.gen_range(0..300i64))
                },
                if rng.gen_bool(0.15) {
                    Value::Null
                } else {
                    Value::Double(rng.gen_range(0..400i64) as f64 / 8.0)
                },
                Value::Int(rng.gen_range(0..9i64)),
                if rng.gen_bool(0.08) {
                    Value::Null
                } else {
                    Value::Bool(rng.gen_bool(0.5))
                },
            ]
        })
        .collect()
}

fn random_catalog(rng: &mut StdRng) -> Catalog {
    // Sometimes bigger than a default morsel so 1024-row chunking splits.
    let n = if rng.gen_bool(0.2) {
        rng.gen_range(1100..1500usize)
    } else {
        rng.gen_range(0..=250usize)
    };
    let reads = random_reads(rng, n);
    let dims: Vec<Vec<Value>> = (0..rng.gen_range(0..12u32))
        .map(|i| {
            vec![
                if rng.gen_bool(0.1) {
                    Value::Null
                } else {
                    Value::str(format!("e{}", i % 9))
                },
                Value::Int((i % 10) as i64),
                Value::str(format!("site {i}")),
            ]
        })
        .collect();
    let cat = Catalog::new();
    cat.register(Table::new(
        "r",
        Batch::from_rows(reads_schema(), &reads).unwrap(),
    ));
    cat.register(Table::new(
        "d",
        Batch::from_rows(dim_schema(), &dims).unwrap(),
    ));
    cat
}

/// A random filter to induce selection vectors of varying density on the
/// hash operators' inputs.
fn random_filter(rng: &mut StdRng) -> Expr {
    match rng.gen_range(0..4u32) {
        0 => Expr::col("rtime").lt(Expr::lit(rng.gen_range(0..300i64))),
        1 => Expr::col("qty").gt(Expr::lit(rng.gen_range(0..9i64))),
        2 => Expr::IsNull {
            expr: Box::new(Expr::col("weight")),
            negated: true,
        },
        _ => Expr::col("epc").eq(Expr::lit(format!("e{}", rng.gen_range(0..7u32)))),
    }
}

/// A random plan exercising one of the hash consumers: inner join, semi
/// join, GROUP BY aggregation (Str / Int / Double / Bool and multi-column
/// keys), or DISTINCT.
fn random_hash_plan(rng: &mut StdRng) -> LogicalPlan {
    let mut plan = LogicalPlan::scan("r");
    if rng.gen_bool(0.6) {
        plan = plan.filter(random_filter(rng));
    }
    match rng.gen_range(0..7u32) {
        // Str join keys (NULLs on both sides).
        0 => plan.join(
            LogicalPlan::scan("d"),
            vec![Expr::col("epc")],
            vec![Expr::col("gln")],
            JoinType::Inner,
        ),
        // Int join keys.
        1 => plan.join(
            LogicalPlan::scan("d"),
            vec![Expr::col("qty")],
            vec![Expr::col("code")],
            JoinType::Inner,
        ),
        2 => plan.join(
            LogicalPlan::scan("d"),
            vec![Expr::col("epc")],
            vec![Expr::col("gln")],
            JoinType::LeftSemi,
        ),
        // Multi-column compound join key.
        3 => plan.join(
            LogicalPlan::scan("d"),
            vec![Expr::col("epc"), Expr::col("qty")],
            vec![Expr::col("gln"), Expr::col("code")],
            JoinType::Inner,
        ),
        4 => {
            let keys: Vec<(Expr, String)> = match rng.gen_range(0..4u32) {
                0 => vec![(Expr::col("epc"), "epc".into())],
                1 => vec![(Expr::col("weight"), "weight".into())],
                2 => vec![(Expr::col("ok"), "ok".into())],
                _ => vec![
                    (Expr::col("epc"), "epc".into()),
                    (Expr::col("qty"), "qty".into()),
                    (Expr::col("ok"), "ok".into()),
                ],
            };
            plan.aggregate(
                keys,
                vec![
                    AggExpr {
                        func: AggFunc::CountStar,
                        alias: "n".into(),
                    },
                    AggExpr {
                        func: AggFunc::Sum(Expr::col("rtime")),
                        alias: "s".into(),
                    },
                    AggExpr {
                        func: AggFunc::Min(Expr::col("weight")),
                        alias: "m".into(),
                    },
                ],
            )
        }
        // Global aggregate (zero key columns).
        5 => plan.aggregate(
            vec![],
            vec![AggExpr {
                func: AggFunc::CountStar,
                alias: "n".into(),
            }],
        ),
        // DISTINCT over all columns (mixed types + NULLs).
        _ => {
            if rng.gen_bool(0.5) {
                plan = plan.project(vec![
                    (Expr::col("epc"), "epc".into()),
                    (Expr::col("qty"), "qty".into()),
                ]);
            }
            plan.distinct()
        }
    }
}

/// The normalized-key path produces rows identical to the `Vec<Value>`
/// oracle at every chunk size, with all work counters — hash-kernel ones
/// included — equal across chunk sizes. The hash path engages whenever a
/// hash operator sees input.
#[test]
fn hash_path_matches_oracle_on_random_plans() {
    check("hash path vs Vec<Value> oracle", |rng| {
        let cat = random_catalog(rng);
        let plan = random_hash_plan(rng);
        let expected = rows_of(
            &dc_oracle::execute(&plan, &cat)
                .unwrap_or_else(|e| panic!("oracle failed: {e}\n{}", plan.display_indent())),
        );
        let mut baseline: Option<ExecStats> = None;
        for &chunk in &CHUNK_SIZES {
            let opts = ExecOptions::with_parallelism(1).with_chunk_rows(chunk);
            let mut vectorized = Executor::with_options(&cat, opts);
            let got = vectorized.execute(&plan).unwrap_or_else(|e| {
                panic!(
                    "hash path failed at chunk_rows={chunk}: {e}\n{}",
                    plan.display_indent()
                )
            });
            assert_eq!(
                rows_of(&got),
                expected,
                "rows differ at chunk_rows={chunk}\n{}",
                plan.display_indent()
            );
            let stats = *baseline.get_or_insert(vectorized.stats);
            assert_eq!(
                sans_chunking(vectorized.stats),
                sans_chunking(stats),
                "work counters differ at chunk_rows={chunk}\n{}",
                plan.display_indent()
            );
        }
    });
}

/// A wide batch of `n` rows with int, str, and NULL-bearing key columns.
fn wide(n: usize, null_every: usize, salt: i64) -> Batch {
    let schema = schema_ref(Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("s", DataType::Str),
    ]));
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|i| {
            let k = if null_every > 0 && i % null_every == 0 {
                Value::Null
            } else {
                Value::Int((i as i64 * salt) % 97)
            };
            vec![k, Value::str(format!("s{}", i % 13))]
        })
        .collect();
    Batch::from_rows(schema, &rows).unwrap()
}

/// `hash_join` called directly on compound (Int, Str) keys with NULLs on
/// either side: rows identical to the oracle's, one probe per left row, and
/// the hash kernels engaged whenever there is a row to hash.
#[test]
fn hash_join_matches_oracle_on_wide_keys() {
    let budget = QueryBudget::unlimited();
    for jt in [JoinType::Inner, JoinType::LeftSemi] {
        for (l, r) in [
            (wide(200, 7, 3), wide(40, 0, 5)),
            (wide(50, 0, 1), wide(50, 3, 1)),
            (wide(0, 0, 1), wide(10, 0, 1)),
        ] {
            let keys = [Expr::col("k"), Expr::col("s")];
            let (got, work) = hash_join(&l, &r, &keys, &keys, jt, None, &budget).unwrap();
            let expected = dc_oracle::join(&l, &r, &keys, &keys, jt).unwrap();
            assert_eq!(rows_of(&got), rows_of(&expected), "{jt}");
            assert_eq!(work.probes, l.num_rows() as u64, "{jt} probes");
            assert!(work.hash.hash_ops > 0);
        }
    }
}

/// The seven aggregate functions over the argument column `x`.
fn every_aggregate() -> Vec<AggFunc> {
    let x = || Expr::col("x");
    vec![
        AggFunc::CountStar,
        AggFunc::Count(x()),
        AggFunc::CountDistinct(x()),
        AggFunc::Sum(x()),
        AggFunc::Avg(x()),
        AggFunc::Min(x()),
        AggFunc::Max(x()),
    ]
}

/// Row `i`'s argument value of type `dt`: few distinct values, so groups
/// see repeats and ties; doubles include both zeros and a NaN.
fn arg_value(dt: DataType, i: usize) -> Value {
    match dt {
        DataType::Bool => Value::Bool(i.is_multiple_of(3)),
        DataType::Int => Value::Int([5, -3, 5, 40, 0, -3, 17][i % 7]),
        DataType::Double => Value::Double([0.5, -0.0, 0.0, f64::NAN, -7.25, 0.5][i % 6]),
        DataType::Str => Value::str(["pear", "fig", "", "pear", "apple"][i % 5]),
    }
}

/// Function × argument type × NULL mix × grouping shape, every cell against
/// `dc_oracle::aggregate`: the same rows in the same (first-seen) order
/// under the same schema, or an error on both sides (`sum`/`avg` over a
/// non-numeric value).
#[test]
fn aggregate_table_matches_oracle() {
    let budget = QueryBudget::unlimited();
    type NullMix = fn(usize) -> bool;
    let null_mixes: [(&str, NullMix); 3] = [
        ("no NULLs", |_| false),
        ("some NULLs", |i| i % 4 == 1),
        ("all NULL", |_| true),
    ];
    // (name, rows, group key of row i; `None` = no GROUP BY).
    type Key = Option<fn(usize) -> Value>;
    let shapes: [(&str, usize, Key); 6] = [
        ("global", 23, None),
        ("one group", 23, Some(|_| Value::str("k"))),
        (
            "many groups",
            23,
            Some(|i| Value::str(format!("k{}", (i * 5) % 7))),
        ),
        (
            "NULL group key",
            23,
            Some(|i| match i % 3 {
                0 => Value::Null,
                r => Value::str(format!("k{r}")),
            }),
        ),
        ("empty input", 0, Some(|i| Value::str(format!("k{i}")))),
        ("empty input, global", 0, None),
    ];
    let mut cells = 0;
    let mut type_errors = 0;
    for dt in [
        DataType::Bool,
        DataType::Int,
        DataType::Double,
        DataType::Str,
    ] {
        for (mix, is_null) in null_mixes {
            for (shape, n, key) in &shapes {
                let schema = schema_ref(Schema::new(vec![
                    Field::new("g", DataType::Str),
                    Field::new("x", dt),
                ]));
                let rows: Vec<Vec<Value>> = (0..*n)
                    .map(|i| {
                        let g = key.map_or(Value::Null, |k| k(i));
                        let x = if is_null(i) {
                            Value::Null
                        } else {
                            arg_value(dt, i)
                        };
                        vec![g, x]
                    })
                    .collect();
                let input = Batch::from_rows(schema, &rows).unwrap();
                let group_by: Vec<(Expr, String)> = key
                    .iter()
                    .map(|_| (Expr::col("g"), "g".to_string()))
                    .collect();
                for func in every_aggregate() {
                    let at = format!("{func} over {dt}, {mix}, {shape}");
                    let aggs = [AggExpr {
                        func,
                        alias: "a".into(),
                    }];
                    let mut stats = HashStats::default();
                    let got = hash_aggregate(&input, &group_by, &aggs, &budget, &mut stats);
                    let expected = dc_oracle::aggregate(&input, &group_by, &aggs);
                    cells += 1;
                    match (got, expected) {
                        (Ok(got), Ok(expected)) => {
                            assert_eq!(got.schema(), expected.schema(), "{at}");
                            assert_eq!(rows_of(&got), rows_of(&expected), "{at}");
                        }
                        (Err(Error::Execution(_)), Err(Error::Execution(_))) => type_errors += 1,
                        (got, expected) => panic!(
                            "{at}: engine {:?} vs oracle {:?}",
                            got.map(|b| rows_of(&b)),
                            expected.map(|b| rows_of(&b))
                        ),
                    }
                }
            }
        }
    }
    assert_eq!(cells, 4 * 3 * 6 * 7);
    // sum and avg over Bool and Str fail wherever a group holds a value:
    // 2 functions x 2 types x 2 NULL mixes x 4 non-empty shapes.
    assert_eq!(type_errors, 2 * 2 * 2 * 4);
}

/// Integer sums are overflow-checked per group; an overflowing group fails
/// the aggregation on both sides, and `avg` of the same values does not
/// overflow (it sums in 128 bits).
#[test]
fn aggregate_sum_overflow_matches_oracle() {
    let schema = schema_ref(Schema::new(vec![
        Field::new("g", DataType::Int),
        Field::new("x", DataType::Int),
    ]));
    let rows =
        [(1, i64::MAX), (2, 7), (1, 1), (2, -7)].map(|(g, x)| vec![Value::Int(g), Value::Int(x)]);
    let input = Batch::from_rows(schema, &rows).unwrap();
    let group_by = [(Expr::col("g"), "g".to_string())];
    let run = |func: AggFunc| {
        let aggs = [AggExpr {
            func,
            alias: "a".into(),
        }];
        let got = hash_aggregate(
            &input,
            &group_by,
            &aggs,
            &QueryBudget::unlimited(),
            &mut HashStats::default(),
        );
        (got, dc_oracle::aggregate(&input, &group_by, &aggs))
    };
    let (got, expected) = run(AggFunc::Sum(Expr::col("x")));
    assert!(
        matches!(got, Err(Error::Execution(ref m)) if m.contains("overflow")),
        "{got:?}"
    );
    assert!(expected.is_err());
    let (got, expected) = run(AggFunc::Avg(Expr::col("x")));
    assert_eq!(rows_of(&got.unwrap()), rows_of(&expected.unwrap()));
}

/// What `hash_join` gathers, case by case, against `dc_oracle::join`
/// projected to the emitted columns: the probe side passed through when
/// every probe row matched exactly once (its output columns share the input
/// payload), gathered otherwise; the probe side arriving under a selection
/// vector; a semi-join returning its left input under a selection.
#[test]
fn join_emit_cases_match_oracle() {
    let budget = QueryBudget::unlimited();
    let probe = |keys: &[Option<i64>]| {
        let schema = schema_ref(Schema::new(vec![
            Field::qualified("c", "fk", DataType::Int),
            Field::qualified("c", "epc", DataType::Str),
            Field::qualified("c", "w", DataType::Double),
        ]));
        let rows: Vec<Vec<Value>> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| {
                vec![
                    k.map_or(Value::Null, Value::Int),
                    Value::str(format!("e{i}")),
                    Value::Double(i as f64 / 4.0),
                ]
            })
            .collect();
        Batch::from_rows(schema, &rows).unwrap()
    };
    let build = |keys: &[Option<i64>]| {
        let schema = schema_ref(Schema::new(vec![
            Field::qualified("l", "k", DataType::Int),
            Field::qualified("l", "site", DataType::Str),
        ]));
        let rows: Vec<Vec<Value>> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| {
                vec![
                    k.map_or(Value::Null, Value::Int),
                    Value::str(format!("s{i}")),
                ]
            })
            .collect();
        Batch::from_rows(schema, &rows).unwrap()
    };
    let some = |ks: &[i64]| ks.iter().map(|&k| Some(k)).collect::<Vec<_>>();
    let fk_complete = probe(&some(&[2, 0, 1, 2, 2, 0]));
    // (name, probe side, build keys, does the probe side pass through?)
    let cases: Vec<(&str, Batch, Vec<Option<i64>>, bool)> = vec![
        ("FK-complete", fk_complete.clone(), some(&[0, 1, 2]), true),
        ("partial match", fk_complete.clone(), some(&[0, 2]), false),
        (
            "1-to-many build keys",
            fk_complete.clone(),
            some(&[0, 1, 2, 1]),
            false,
        ),
        (
            "NULL keys on both sides",
            probe(&[Some(0), None, Some(1), None]),
            vec![Some(0), None, Some(1)],
            false,
        ),
        (
            "probe side under a selection, all of it matching",
            fk_complete.with_selection(vec![4, 1, 2]),
            some(&[0, 1, 2]),
            false, // a reordering selection is gathered once, by `flatten`
        ),
        (
            "probe side under an all-rows selection",
            fk_complete.with_selection(vec![0, 1, 2, 3, 4, 5]),
            some(&[0, 1, 2]),
            true,
        ),
        ("empty probe side", probe(&[]), some(&[0, 1]), true),
        ("empty build side", fk_complete.clone(), vec![], false),
    ];
    let (lk, rk) = ([Expr::col("c.fk")], [Expr::col("l.k")]);
    // Every column, then a narrow emit list that leaves out both keys.
    let emits = [
        None,
        Some(JoinEmit {
            left: vec![2, 1],
            right: vec![1],
        }),
        Some(JoinEmit {
            left: vec![],
            right: vec![1],
        }),
    ];
    for (name, left, build_keys, passes_through) in &cases {
        let right = build(build_keys);
        let oracle = dc_oracle::join(left, &right, &lk, &rk, JoinType::Inner).unwrap();
        for emit in &emits {
            let at = format!("{name}, emit {emit:?}");
            let (got, work) = hash_join(
                left,
                &right,
                &lk,
                &rk,
                JoinType::Inner,
                emit.as_ref(),
                &budget,
            )
            .unwrap();
            let (lcols, rcols): (Vec<usize>, Vec<usize>) = match emit {
                Some(e) => (e.left.clone(), e.right.clone()),
                None => ((0..3).collect(), (0..2).collect()),
            };
            let expect_cols: Vec<usize> = lcols
                .iter()
                .copied()
                .chain(rcols.iter().map(|c| 3 + c))
                .collect();
            assert_eq!(
                rows_of(&got),
                rows_of(&oracle.project(&expect_cols)),
                "{at}"
            );
            assert_eq!(got.schema(), oracle.project(&expect_cols).schema(), "{at}");
            assert_eq!(work.probes, left.num_rows() as u64, "{at}");
            for (out, &c) in lcols.iter().enumerate() {
                let shared = std::ptr::eq(got.column(out).data(), left.column(c).data());
                assert_eq!(shared, *passes_through, "{at}: probe column {c}");
            }
        }
        // The semi-join keeps the left schema and order, shares every
        // column, and resolves its survivors through the selection.
        let (semi, _) =
            hash_join(left, &right, &lk, &rk, JoinType::LeftSemi, None, &budget).unwrap();
        let oracle = dc_oracle::join(left, &right, &lk, &rk, JoinType::LeftSemi).unwrap();
        assert_eq!(rows_of(&semi), rows_of(&oracle), "{name}: semi");
        assert_eq!(semi.schema(), left.schema(), "{name}: semi");
        for c in 0..3 {
            assert!(
                std::ptr::eq(semi.column(c).data(), left.column(c).data()),
                "{name}: semi"
            );
        }
    }
    // An emit list naming no column still carries the row count, in the
    // first left column.
    let nothing = JoinEmit {
        left: vec![],
        right: vec![],
    };
    let right = build(&some(&[0, 2]));
    let (got, _) = hash_join(
        &fk_complete,
        &right,
        &lk,
        &rk,
        JoinType::Inner,
        Some(&nothing),
        &budget,
    )
    .unwrap();
    let oracle = dc_oracle::join(&fk_complete, &right, &lk, &rk, JoinType::Inner).unwrap();
    assert_eq!(rows_of(&got), rows_of(&oracle.project(&[0])));
}

/// The hash path stays parallelism-invariant: rows, merged stats (hash
/// counters included), and deterministic per-operator metrics are
/// identical at P ∈ {1, 2, 8} for each chunk size.
#[test]
fn hash_path_parallelism_invariant() {
    check("hash path parallelism invariance", |rng| {
        let cat = random_catalog(rng);
        let plan = random_hash_plan(rng);
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

/// Distinct keys that share one 64-bit hash land in distinct slots: the
/// memcmp on the normalized bytes disambiguates, every disambiguation is
/// counted as a collision, and lookups still find the right entry.
#[test]
fn equal_hash_distinct_keys_disambiguate_by_memcmp() {
    let mut stats = HashStats::default();
    let mut table = RawKeyTable::with_capacity(4);
    const H: u64 = 0xdead_beef_cafe_f00d;
    let keys: Vec<Vec<u8>> = (0..32u8).map(|i| vec![i, i ^ 0x55, 7, i]).collect();
    for (i, k) in keys.iter().enumerate() {
        let (slot, fresh) = table.insert(H, k, &mut stats).unwrap();
        assert!(fresh, "key {i} wrongly matched an earlier key");
        assert_eq!(slot, i, "slots must follow first-insert order");
    }
    for (i, k) in keys.iter().enumerate() {
        assert_eq!(
            table.get(H, k, &mut stats),
            Some(i),
            "lookup of colliding key {i} found the wrong slot"
        );
    }
    assert_eq!(table.get(H, b"absent", &mut stats), None);
    assert!(
        stats.hash_collisions > 0,
        "hash-equal, byte-unequal probes must be counted as collisions"
    );
    assert!(
        stats.probe_memcmps as usize >= keys.len(),
        "every successful probe pays at least one memcmp"
    );
}
