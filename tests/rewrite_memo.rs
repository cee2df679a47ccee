//! The shape memo is exact: a rewrite reused from it equals a fresh
//! `RewriteEngine::rewrite_plan` field by field — plan, chosen label,
//! bit-identical candidate costs, ec, cc, notes and the cleanse-cache spec
//! including its fingerprint — over every SQL family the benchmark sends
//! (pedigree traces for present and absent EPCs and for EPCs equal to rule
//! constants, dashboards, q1, q2, `epc IN` lists of 1–5) and the standing
//! query pool of `tests/stream_maintenance.rs`. An append, an index or a
//! rule defined in between forces a miss.

use deferred_cleansing::relational::prelude::*;
use deferred_cleansing::relational::sql::{parse_query, plan_query};
use deferred_cleansing::rewrite::{RewriteEngine, Rewritten, Strategy};
use deferred_cleansing::rfidgen::{generate_into, Dataset, GenConfig};
use deferred_cleansing::DeferredCleansingSystem;
use std::sync::Arc;

const STRATEGIES: [Strategy; 4] = [
    Strategy::Auto,
    Strategy::JoinBack,
    Strategy::Expanded,
    Strategy::Naive,
];

/// A scale-2 RFIDGen database with the benchmark's five rule sets.
fn rfid_system() -> (DeferredCleansingSystem, Dataset) {
    let catalog = Arc::new(Catalog::new());
    let cfg = GenConfig {
        scale: 2,
        seed: 2006,
        ..GenConfig::default()
    };
    let ds = generate_into(&catalog, cfg).unwrap();
    ds.materialize_missing_input(&catalog).unwrap();
    let sys = DeferredCleansingSystem::with_catalog(catalog);
    for n in 1..=5 {
        for text in ds.benchmark_rules(n) {
            sys.define_rule(&format!("rules-{n}"), &text).unwrap();
        }
    }
    (sys, ds)
}

/// Distinct EPCs present in `caser`, in table order.
fn present_epcs(sys: &DeferredCleansingSystem, n: usize) -> Vec<String> {
    let batch = sys.query_dirty("select epc from caser").unwrap();
    let mut out: Vec<String> = Vec::new();
    for i in 0..batch.num_rows() {
        let Value::Str(s) = &batch.row(i)[0] else {
            continue;
        };
        if !out.iter().any(|e| e.as_str() == s.as_ref()) {
            out.push(s.to_string());
        }
        if out.len() == n {
            break;
        }
    }
    out
}

fn trace(epc: &str) -> String {
    format!("select epc, rtime, biz_loc, biz_step from caser where epc = '{epc}' order by rtime")
}

fn in_list(epcs: &[String]) -> String {
    let list: Vec<String> = epcs.iter().map(|e| format!("'{e}'")).collect();
    format!(
        "select epc, rtime, biz_loc from caser where epc in ({}) and rtime >= 0",
        list.join(", ")
    )
}

/// Field-by-field equality of two rewrites (`memo_hit` aside).
fn assert_same(got: &Rewritten, fresh: &Rewritten, ctx: &str) {
    assert_eq!(got.plan, fresh.plan, "{ctx}: plan");
    assert_eq!(got.chosen, fresh.chosen, "{ctx}: chosen");
    assert_eq!(got.candidates.len(), fresh.candidates.len(), "{ctx}");
    for (a, b) in got.candidates.iter().zip(&fresh.candidates) {
        assert_eq!(a.label, b.label, "{ctx}: candidate label");
        assert_eq!(
            a.cost.to_bits(),
            b.cost.to_bits(),
            "{ctx}: {} cost",
            a.label
        );
        assert_eq!(
            a.est_rows.to_bits(),
            b.est_rows.to_bits(),
            "{ctx}: {}",
            a.label
        );
    }
    assert_eq!(
        got.expanded_condition, fresh.expanded_condition,
        "{ctx}: ec"
    );
    assert_eq!(got.context_condition, fresh.context_condition, "{ctx}: cc");
    assert_eq!(got.notes, fresh.notes, "{ctx}: notes");
    match (&got.cache_spec, &fresh.cache_spec) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            assert_eq!(a.fingerprint, b.fingerprint, "{ctx}: fingerprint");
            assert_eq!(a.reads_table, b.reads_table, "{ctx}");
            assert_eq!(a.alias, b.alias, "{ctx}");
            assert_eq!(a.ckey, b.ckey, "{ctx}");
            assert_eq!(a.seqset, b.seqset, "{ctx}: seqset");
            assert_eq!(a.ec, b.ec, "{ctx}: spec ec");
            assert_eq!(a.placeholder, b.placeholder, "{ctx}");
            assert_eq!(a.tail, b.tail, "{ctx}: tail");
            assert_eq!(a.rules.len(), b.rules.len(), "{ctx}");
            assert!(a.rules.iter().zip(&b.rules).all(|(x, y)| Arc::ptr_eq(x, y)));
        }
        _ => panic!("{ctx}: one rewrite has a cache spec, the other none"),
    }
}

/// Rewrite `sql` through the system (after rewriting `prime` twice, when
/// given) and compare it with a fresh rewrite. Returns whether it was a
/// memo hit.
fn check(
    sys: &DeferredCleansingSystem,
    app: &str,
    sql: &str,
    strategy: Strategy,
    prime: Option<&str>,
) -> bool {
    let cat = sys.catalog();
    // A shape is stored the second time it is seen.
    for p in prime.into_iter().chain(prime) {
        let _ = sys.rewrite_snapshot(cat, app, p, strategy);
    }
    let ctx = format!("{app} {strategy:?} {sql}");
    let got = sys.rewrite_snapshot(cat, app, sql, strategy);
    let user = plan_query(&parse_query(sql).unwrap(), cat).unwrap();
    let fresh =
        RewriteEngine::new().rewrite_plan(&user, &sys.rules().rules_for(app), cat, strategy);
    match (got, fresh) {
        (Ok(got), Ok(fresh)) => {
            assert_same(&got, &fresh, &ctx);
            got.memo_hit.is_some()
        }
        (Err(a), Err(b)) => {
            assert_eq!(a.to_string(), b.to_string(), "{ctx}");
            false
        }
        (a, b) => panic!("{ctx}: memoized {:?} vs fresh {:?}", a.err(), b.err()),
    }
}

#[test]
fn benchmark_families_hit_exactly() {
    let (sys, ds) = rfid_system();
    let present = present_epcs(&sys, 6);
    assert_eq!(present.len(), 6);
    let absent = "urn:epc:id:sgtin:0.0.absent".to_string();
    // Traces: present, absent, and equal to the rules' constants.
    let mut traced = present[..3].to_vec();
    traced.extend([
        absent.clone(),
        "readerX".into(),
        ds.loc1.clone(),
        ds.loc_a.clone(),
    ]);
    let mut hits = 0;
    for n in [1, 3, 5] {
        let app = format!("rules-{n}");
        for strategy in STRATEGIES {
            for epc in &traced {
                // A trace of another EPC primes the shape: this one hits.
                let hit = check(&sys, &app, &trace(epc), strategy, Some(&trace(&present[5])));
                assert!(
                    hit || strategy == Strategy::Expanded,
                    "{app} {strategy:?} {epc}"
                );
                hits += usize::from(hit);
            }
            for len in 1..=5 {
                let other: Vec<String> = present.iter().rev().take(len).cloned().collect();
                let mut keys = present[..len.min(3)].to_vec();
                keys.extend((keys.len()..len).map(|i| format!("{absent}{i}")));
                hits += usize::from(check(
                    &sys,
                    &app,
                    &in_list(&keys),
                    strategy,
                    Some(&in_list(&other)),
                ));
            }
        }
        // Families whose literals stay in the key: the same text hits.
        let dashboards = [
            format!(
                "select epc, rtime, biz_loc from caser where rtime >= {} and rtime < {} \
                 order by rtime, epc, biz_loc limit 20",
                ds.rtime_quantile(0.9),
                ds.rtime_quantile(1.0)
            ),
            ds.q1(ds.rtime_quantile(0.05)),
            ds.q2(ds.rtime_quantile(0.9), 0),
            ds.q2_prime(ds.rtime_quantile(0.9), 1),
        ];
        for sql in &dashboards {
            assert!(
                check(&sys, &app, sql, Strategy::Auto, Some(sql)),
                "{app} {sql}"
            );
            hits += 1;
        }
    }
    assert!(hits > 100, "only {hits} memo hits");
}

#[test]
fn appends_indexes_and_rules_force_a_miss() {
    let (sys, _) = rfid_system();
    let present = present_epcs(&sys, 2);
    let (sql, primer) = (trace(&present[0]), trace(&present[1]));
    let app = "rules-3";
    assert!(check(&sys, app, &sql, Strategy::Auto, Some(&primer)));

    // An append to the reads table.
    let caser = sys.catalog().get("caser").unwrap();
    let row = sys
        .query_dirty(&format!("select * from caser where epc = '{}'", present[0]))
        .unwrap()
        .take(&[0]);
    sys.catalog()
        .append("caser", row.with_schema(caser.schema().clone()).unwrap())
        .unwrap();
    assert!(!check(&sys, app, &sql, Strategy::Auto, None), "append");
    assert!(check(&sys, app, &sql, Strategy::Auto, None));

    // A new index on a dimension table, registered as the same handle.
    let mut locs = (*sys.catalog().get("locs").unwrap()).clone();
    let before = locs.version();
    let unindexed = locs
        .schema()
        .fields()
        .iter()
        .map(|f| f.name.clone())
        .find(|c| locs.index(c).is_none())
        .unwrap();
    locs.create_index(&unindexed).unwrap();
    assert_ne!(locs.version(), before);
    sys.catalog().register_shared(Arc::new(locs));
    assert!(
        !check(&sys, app, &sql, Strategy::Auto, None),
        "create_index"
    );
    assert!(check(&sys, app, &sql, Strategy::Auto, None));

    // A rule defined for the application.
    sys.define_rule(
        app,
        "DEFINE dup100 ON caseR CLUSTER BY epc SEQUENCE BY rtime AS (A, B) \
         WHERE A.biz_loc = B.biz_loc and B.rtime - A.rtime < 100 mins ACTION DELETE B",
    )
    .unwrap();
    assert!(!check(&sys, app, &sql, Strategy::Auto, None), "define_rule");
    assert!(check(&sys, app, &sql, Strategy::Auto, Some(&primer)));

    // EXPLAIN says when it reused a rewrite; a rule-less application never does.
    let text = sys.explain(app, &sql, Strategy::Auto).unwrap();
    assert!(
        text.contains("-- rewrite: memo hit (same rules, strategy, plan shape and"),
        "{text}"
    );
    assert!(!check(&sys, "no-rules", &sql, Strategy::Auto, Some(&sql)));
}

const DUP: &str = "DEFINE duplicate ON caseR CLUSTER BY epc SEQUENCE BY rtime AS (A, B) \
    WHERE A.biz_loc = B.biz_loc and B.rtime - A.rtime < 5 mins ACTION DELETE B";

/// The standing-query pool of `tests/stream_maintenance.rs`, over its
/// catalog shape, plus the key-scoped forms its maintenance used to run.
#[test]
fn standing_query_pool_hits_exactly() {
    let reads = schema_ref(Schema::new(vec![
        Field::new("epc", DataType::Str),
        Field::new("rtime", DataType::Int),
        Field::new("biz_loc", DataType::Str),
    ]));
    let rows: Vec<Vec<Value>> = (0..60)
        .map(|i| {
            vec![
                Value::str(format!("e{}", i % 8)),
                Value::Int((i * 37) % 2000),
                Value::str(format!("loc{}", i % 3)),
            ]
        })
        .collect();
    let catalog = Arc::new(Catalog::new());
    let mut caser = Table::new("caser", Batch::from_rows(reads, &rows).unwrap());
    caser.create_index("epc").unwrap();
    catalog.register(caser);
    let sys = DeferredCleansingSystem::with_catalog(catalog);
    sys.define_rule("app", DUP).unwrap();
    let pool = [
        "select epc, rtime from caser",
        "select epc, rtime, biz_loc from caser where rtime < 900",
        "select epc, rtime from caser order by rtime, epc limit 7",
        "select count(*) as n from caser",
        "select biz_loc, count(*) as n, sum(rtime) as s from caser group by biz_loc",
        "select avg(rtime) as a from caser",
        "select distinct epc from caser",
        "select epc, count(*) as n from caser group by epc order by epc",
        "select epc, rtime from caser where epc = 'e3' and rtime < 900",
        "select epc, rtime from caser where epc in ('e1', 'e4') order by rtime",
        "select count(*) as n from caser where epc in ('e2', 'e5', 'e6')",
    ];
    for sql in pool {
        for strategy in STRATEGIES {
            let hit = check(&sys, "app", sql, strategy, Some(sql));
            let errs = sys
                .rewrite_snapshot(sys.catalog(), "app", sql, strategy)
                .is_err();
            assert!(hit || errs, "{strategy:?} {sql}");
        }
    }
    // Same shape, other keys: the slot binds them.
    assert!(check(
        &sys,
        "app",
        "select epc, rtime from caser where epc = 'e7' and rtime < 900",
        Strategy::Auto,
        None
    ));
    assert!(check(
        &sys,
        "app",
        "select count(*) as n from caser where epc in ('e0', 'e1', 'e9')",
        Strategy::JoinBack,
        None
    ));
    // Two conjuncts on the cluster key make no slot: another key misses.
    let two = |k: &str| format!("select epc from caser where epc = '{k}' and epc >= 'e0'");
    assert!(!check(
        &sys,
        "app",
        &two("e1"),
        Strategy::Auto,
        Some(&two("e2"))
    ));
}
