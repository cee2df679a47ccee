//! The missing-read compensation pipeline (paper §4.3 Example 5 / §6.3),
//! including the *query-time derived input*: instead of materializing
//! caseR ∪ R′, the application registers a plan computing it, and every
//! rewrite evaluates (and filters!) that plan on the fly — σ_ec pushes into
//! both union branches.

use deferred_cleansing::relational::agg::{AggExpr, AggFunc};
use deferred_cleansing::relational::prelude::*;
use deferred_cleansing::rewrite::Strategy;
use deferred_cleansing::service::{
    DurableOptions, QueryRequest, QueryService, ServiceConfig, ShardConfig, SubscribeOptions,
};
use deferred_cleansing::DeferredCleansingSystem;
use std::sync::Arc;

fn reads_schema() -> SchemaRef {
    schema_ref(Schema::new(vec![
        Field::new("epc", DataType::Str),
        Field::new("rtime", DataType::Int),
        Field::new("biz_loc", DataType::Str),
    ]))
}

/// caseR: case c1 travels L1 -> L2 -> L3 with its pallet, but its read at L2
/// is MISSING. palletR has all three pallet reads. parent links c1 -> p1.
fn catalog() -> Arc<Catalog> {
    let catalog = Arc::new(Catalog::new());
    let case_rows = vec![
        vec![Value::str("c1"), Value::Int(1_010), Value::str("L1")],
        // (missing read at L2, t≈5_000)
        vec![Value::str("c1"), Value::Int(9_010), Value::str("L3")],
        // A fully-read case for contrast.
        vec![Value::str("c2"), Value::Int(1_020), Value::str("L1")],
        vec![Value::str("c2"), Value::Int(5_020), Value::str("L2")],
        vec![Value::str("c2"), Value::Int(9_020), Value::str("L3")],
    ];
    let mut caser = Table::new(
        "caser",
        Batch::from_rows(reads_schema(), &case_rows).unwrap(),
    );
    caser.create_index("rtime").unwrap();
    caser.create_index("epc").unwrap();
    catalog.register(caser);

    let pallet_rows = vec![
        vec![Value::str("p1"), Value::Int(1_000), Value::str("L1")],
        vec![Value::str("p1"), Value::Int(5_000), Value::str("L2")],
        vec![Value::str("p1"), Value::Int(9_000), Value::str("L3")],
    ];
    let mut palletr = Table::new(
        "palletr",
        Batch::from_rows(reads_schema(), &pallet_rows).unwrap(),
    );
    palletr.create_index("rtime").unwrap();
    catalog.register(palletr);

    let parent_schema = schema_ref(Schema::new(vec![
        Field::new("child_epc", DataType::Str),
        Field::new("parent_epc", DataType::Str),
    ]));
    catalog.register(Table::new(
        "parent",
        Batch::from_rows(
            parent_schema,
            &[
                vec![Value::str("c1"), Value::str("p1")],
                vec![Value::str("c2"), Value::str("p1")],
            ],
        )
        .unwrap(),
    ));
    catalog
}

/// The derived input as a *plan*: caseR (is_pallet=0) UNION the expected
/// case reads from palletR ⋈ parent (is_pallet=1, epc := child_epc).
fn derived_input_plan() -> LogicalPlan {
    let cases = LogicalPlan::scan("caser").project(vec![
        (Expr::col("epc"), "epc".into()),
        (Expr::col("rtime"), "rtime".into()),
        (Expr::col("biz_loc"), "biz_loc".into()),
        (Expr::lit(0i64), "is_pallet".into()),
    ]);
    let expected = LogicalPlan::scan("palletr")
        .join(
            LogicalPlan::scan("parent"),
            vec![Expr::col("epc")],
            vec![Expr::col("parent_epc")],
            JoinType::Inner,
        )
        .project(vec![
            (Expr::col("child_epc"), "epc".into()),
            (Expr::col("rtime"), "rtime".into()),
            (Expr::col("biz_loc"), "biz_loc".into()),
            (Expr::lit(1i64), "is_pallet".into()),
        ]);
    LogicalPlan::Union {
        inputs: vec![cases, expected],
    }
}

const R1: &str = "DEFINE missing_r1 ON caseR FROM r_union CLUSTER BY epc SEQUENCE BY rtime \
    AS (X, A, Y) \
    WHERE A.is_pallet = 1 and \
      ((X.is_pallet = 0 and A.biz_loc = X.biz_loc and X.rtime - A.rtime < 1 mins) or \
       (Y.is_pallet = 0 and A.biz_loc = Y.biz_loc and Y.rtime - A.rtime < 1 mins)) \
    ACTION MODIFY A.has_case_nearby = 1";
const R2: &str = "DEFINE missing_r2 ON caseR FROM r_union CLUSTER BY epc SEQUENCE BY rtime \
    AS (A, *B) \
    WHERE A.is_pallet = 0 or (A.has_case_nearby = 0 and B.has_case_nearby = 1) \
    ACTION KEEP A";

fn system() -> DeferredCleansingSystem {
    let catalog = catalog();
    // Register an empty stand-in table so rule validation can check the
    // derived input's schema, then register the real plan with the engine.
    let union_schema = schema_ref(Schema::new(vec![
        Field::new("epc", DataType::Str),
        Field::new("rtime", DataType::Int),
        Field::new("biz_loc", DataType::Str),
        Field::new("is_pallet", DataType::Int),
    ]));
    catalog.register(Table::new("r_union", Batch::empty(union_schema)));
    let sys = DeferredCleansingSystem::with_catalog(catalog);
    sys.register_derived_input("r_union", derived_input_plan());
    sys.define_rule("app", R1).unwrap();
    sys.define_rule("app", R2).unwrap();
    sys
}

#[test]
fn missing_read_is_compensated() {
    let sys = system();
    // Dirty: c1 has 2 reads. Cleansed: 3 — the pallet read at L2 survives as
    // the compensating "expected" read, because c1 is seen with p1 again
    // later (so it was missed, not stolen).
    let sql = "select epc, count(*) as n from caser group by epc order by epc";
    let dirty = sys.query_dirty(sql).unwrap();
    assert_eq!(dirty.row(0), vec![Value::str("c1"), Value::Int(2)]);
    let clean = sys.query("app", sql).unwrap();
    assert_eq!(clean.row(0), vec![Value::str("c1"), Value::Int(3)]);
    // c2 was fully read: all pallet copies have cases nearby and are
    // dropped, so the count stays 3.
    assert_eq!(clean.row(1), vec![Value::str("c2"), Value::Int(3)]);
}

/// The derived input's plan lives only in the system's rewrite engine. A
/// one-shard in-memory service keeps the system, so it answers as
/// `sys.query` does; a shard split or a durable log would rebuild systems
/// from catalog + rules JSON and cleanse over the empty stand-in table, so
/// both refuse, naming the input.
#[test]
fn derived_input_survives_one_shard_and_is_refused_beyond() {
    let sql = "select epc, count(*) as n from caser group by epc order by epc";
    let want = system().query("app", sql).unwrap();
    assert_eq!(want.row(0), vec![Value::str("c1"), Value::Int(3)]);
    let one_shard = || {
        QueryService::start_sharded(
            system(),
            ServiceConfig::default(),
            ShardConfig::new(1, "epc"),
        )
    };
    for svc in [
        QueryService::start(system(), ServiceConfig::default()),
        one_shard().unwrap(),
    ] {
        let got = svc.execute(QueryRequest::new("app", sql)).unwrap();
        let rows = |b: &Batch| (0..b.num_rows()).map(|i| b.row(i)).collect::<Vec<_>>();
        assert_eq!(rows(&got.batch), rows(&want));
    }

    let dir = std::env::temp_dir().join(format!("dc-derived-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let two_shards = QueryService::start_sharded(
        system(),
        ServiceConfig::default(),
        ShardConfig::new(2, "epc"),
    );
    let durable = QueryService::start_sharded_durable(
        system(),
        ServiceConfig::default(),
        ShardConfig::new(1, "epc"),
        DurableOptions::new(&dir),
    );
    for refused in [two_shards, durable] {
        match refused {
            Err(Error::Plan(msg)) => assert!(msg.contains("'r_union'"), "got: {msg}"),
            Err(other) => panic!("expected a plan error, got: {other}"),
            Ok(_) => panic!("a derived rule input must not be copied or logged"),
        }
    }
    assert!(!dir.join("MANIFEST.log").exists(), "refusal wrote a log");
}

/// A standing query over rules that read a derived input maintains by
/// recompute-and-diff: a pallet read changes the rows of its cases, whose
/// keys are not the appended one. Its feed follows appends to every table
/// the derived plan reads, not only to caseR.
#[test]
fn subscription_over_derived_input_follows_its_sources() {
    let sql = "select epc, count(*) as n from caser group by epc order by epc";
    let svc = QueryService::start(system(), ServiceConfig::default());
    let h = svc
        .subscribe("app", sql, SubscribeOptions::default())
        .unwrap();
    assert_eq!(h.mode(), "fallback");
    assert!(
        h.fallback_reason().is_some_and(|r| r.contains("'r_union'")),
        "{:?}",
        h.fallback_reason()
    );
    let rows = |b: &Batch| (0..b.num_rows()).map(|i| b.row(i)).collect::<Vec<_>>();
    let mut fold = rows(h.initial());
    let read = |epc: &str, t: i64, loc: &str| vec![Value::str(epc), Value::Int(t), Value::str(loc)];
    // p1 at L4 with no case read nearby: an expected read for c1 and c2.
    for (table, row) in [
        ("palletr", read("p1", 13_000, "L4")),
        ("caser", read("c2", 13_020, "L4")),
    ] {
        svc.append(table, Batch::from_rows(reads_schema(), &[row]).unwrap())
            .unwrap();
        let cs = h
            .try_next()
            .unwrap()
            .unwrap_or_else(|| panic!("no change set for an append to {table}"));
        cs.apply(&mut fold).unwrap();
        let mut cold = rows(&svc.execute(QueryRequest::new("app", sql)).unwrap().batch);
        let mut folded = fold.clone();
        cold.sort_by(|a, b| a[0].total_cmp(&b[0]));
        folded.sort_by(|a, b| a[0].total_cmp(&b[0]));
        assert_eq!(folded, cold, "after an append to {table}");
    }
    assert_eq!(fold.len(), 2);
}

#[test]
fn compensated_read_carries_pallet_location() {
    let sys = system();
    let clean = sys
        .query("app", "select rtime, biz_loc from caser where epc = 'c1'")
        .unwrap();
    let rows = clean.sorted_rows();
    assert_eq!(rows.len(), 3);
    // The middle read is the compensating pallet read at L2, t=5000.
    assert_eq!(rows[1], vec![Value::Int(5_000), Value::str("L2")]);
}

#[test]
fn all_strategies_agree_over_derived_input() {
    let sys = system();
    let sql = "select epc, rtime, biz_loc from caser where rtime >= 4000";
    let mut results = Vec::new();
    for strategy in [Strategy::Auto, Strategy::Naive, Strategy::JoinBack] {
        let (batch, _) = sys.query_with_strategy("app", sql, strategy).unwrap();
        results.push(batch.sorted_rows());
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[1], results[2]);
    // The compensated L2 read at t=5000 is in range and present.
    assert!(results[0]
        .iter()
        .any(|r| r[0] == Value::str("c1") && r[1] == Value::Int(5_000)));
}

#[test]
fn filter_pushes_into_union_branches() {
    // σ_ec over the derived input must reach both branch scans (caseR and
    // palletR) through the Union and the Projects — otherwise deferred
    // cleansing over derived inputs would always scan everything.
    let catalog = catalog();
    let plan = derived_input_plan().filter(Expr::col("rtime").lt(Expr::lit(2_000i64)));
    let optimized = optimize_default(plan, &catalog);
    let rendered = optimized.display_indent();
    // Both base scans carry a pushed rtime bound.
    let pushed_scans = rendered
        .lines()
        .filter(|l| l.contains("Scan") && l.contains("pushed") && l.contains("rtime"))
        .count();
    assert_eq!(pushed_scans, 2, "plan:\n{rendered}");
    // And the scan uses the index: only 3 of 8 rows fetched.
    let mut ex = Executor::new(&catalog);
    let out = ex.execute(&optimized).unwrap();
    // c1@1010, c2@1020, and p1@1000 expanded once per child (c1, c2) = 4.
    assert_eq!(out.num_rows(), 4);
}

#[test]
fn dirty_aggregate_vs_clean_aggregate() {
    // A q1-flavoured check: average dwell per location pair changes once the
    // missing read is compensated.
    let sys = system();
    let sql = "with v1 as (select epc, rtime, \
        max(rtime) over (partition by epc order by rtime \
          rows between 1 preceding and 1 preceding) as prev \
        from caser) \
        select count(*) as hops, avg(rtime - prev) as dwell from v1 \
        where prev is not null";
    let dirty = sys.query_dirty(sql).unwrap();
    let clean = sys.query("app", sql).unwrap();
    // Dirty: c1 contributes one 8000-second hop; clean: two 4000-ish hops.
    assert_eq!(dirty.row(0)[0], Value::Int(3));
    assert_eq!(clean.row(0)[0], Value::Int(4));
    let dirty_dwell = dirty.row(0)[1].as_double().unwrap();
    let clean_dwell = clean.row(0)[1].as_double().unwrap();
    assert!(clean_dwell < dirty_dwell);
}

#[test]
fn aggregate_helper_types() {
    // Guard against accidental API regressions used by this test file.
    let _ = AggExpr {
        func: AggFunc::CountStar,
        alias: "n".into(),
    };
}
