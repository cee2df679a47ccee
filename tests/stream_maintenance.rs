//! Seeded equivalence battery for standing queries (`dc-stream`).
//!
//! The subsystem's contract: folding a subscription's change feed over its
//! initial result reproduces a cold full re-execution at every epoch
//! vector. This suite drives K subscribers — covering all four maintenance
//! modes (scoped, ordered, aggregate, fallback) — through seeded random
//! append schedules on unsharded and sharded services, and after **every**
//! publish folds each subscriber's [`ChangeSet`] into its running
//! materialization and compares it against a cold re-execution of the same
//! query at that epoch vector. Appends to an irrelevant dimension table
//! must produce no notifications at all.
//!
//! Two failure-path cases ride along: a queue overflow must surface
//! [`StreamError::Lagged`] after the in-order prefix and recover through
//! [`QueryService::resync`]; unsubscribing mid-schedule must stop the feed
//! with [`StreamError::Closed`] while other subscriptions keep streaming.

use deferred_cleansing::core::Strategy;
use deferred_cleansing::relational::delta::scope_scans;
use deferred_cleansing::relational::prelude::*;
use deferred_cleansing::relational::sql::plan_sql;
use deferred_cleansing::service::{
    ChangeSet, EpochVector, QueryRequest, QueryService, ServiceConfig, ShardConfig, StreamError,
    SubscribeOptions, SubscriptionHandle,
};
use deferred_cleansing::DeferredCleansingSystem;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const DUP: &str = "DEFINE duplicate ON caseR CLUSTER BY epc SEQUENCE BY rtime AS (A, B) \
    WHERE A.biz_loc = B.biz_loc and B.rtime - A.rtime < 5 mins ACTION DELETE B";

/// Subscription pool spanning every maintenance mode. `expect_mode` is
/// asserted when `Some`; entries with `None` exercise shapes whose
/// classification is an implementation choice — only equivalence matters.
const SUBS: &[(&str, &str, Option<&str>)] = &[
    ("app", "select epc, rtime from caser", Some("scoped")),
    (
        "app",
        "select epc, rtime, biz_loc from caser where rtime < 900",
        Some("scoped"),
    ),
    (
        "app",
        "select epc, rtime from caser order by rtime, epc limit 7",
        Some("ordered"),
    ),
    ("app", "select count(*) as n from caser", Some("aggregate")),
    (
        "app",
        "select biz_loc, count(*) as n, sum(rtime) as s from caser group by biz_loc",
        Some("aggregate"),
    ),
    (
        "app",
        "select avg(rtime) as a from caser",
        Some("aggregate"),
    ),
    ("app", "select distinct epc from caser", Some("fallback")),
    // Pinned to one cluster key: the seed and the cold runs it is checked
    // against are routed to the key's owner on a sharded service.
    (
        "app",
        "select epc, rtime, biz_loc from caser where epc = 'e3'",
        Some("scoped"),
    ),
    (
        "app",
        "select epc, count(*) as n from caser group by epc order by epc",
        None,
    ),
    // Rule-free application: no cleansing target, forced recompute-and-diff.
    (
        "norules",
        "select epc, rtime from caser where rtime < 600",
        Some("fallback"),
    ),
    // Rules reading a materialized FROM table: a keyed run restricts its
    // scans as well as the reads table's.
    ("fromapp", "select epc, rtime from caser", Some("scoped")),
    (
        "fromapp",
        "select biz_loc, count(*) as n from caser group by biz_loc",
        Some("aggregate"),
    ),
];

/// DUP over the materialized input `rwp` instead of `caseR` itself.
const DUP_FROM: &str = "DEFINE duplicate_from ON caseR FROM rwp CLUSTER BY epc \
    SEQUENCE BY rtime AS (A, B) WHERE A.biz_loc = B.biz_loc and B.rtime - A.rtime < 5 mins \
    ACTION DELETE B";

/// The FROM table's seed: the first 40 reads, plus a near-duplicate of each
/// of the first ten (same key and place, 150 s later) for the rule to drop.
fn from_rows(reads: &[Vec<Value>]) -> Vec<Vec<Value>> {
    let mut rows = reads[..40].to_vec();
    for r in &reads[..10] {
        let Value::Int(t) = r[1] else { unreachable!() };
        rows.push(vec![r[0].clone(), Value::Int(t + 150), r[2].clone()]);
    }
    rows
}

fn reads_schema() -> SchemaRef {
    schema_ref(Schema::new(vec![
        Field::new("epc", DataType::Str),
        Field::new("rtime", DataType::Int),
        Field::new("biz_loc", DataType::Str),
    ]))
}

fn dim_schema() -> SchemaRef {
    schema_ref(Schema::new(vec![
        Field::new("loc", DataType::Str),
        Field::new("site", DataType::Str),
    ]))
}

fn seed_rows(rng: &mut StdRng, n: usize) -> Vec<Vec<Value>> {
    (0..n)
        .map(|_| {
            vec![
                Value::str(format!("e{}", rng.gen_range(0u8..8))),
                Value::Int(rng.gen_range(0i64..2000)),
                Value::str(format!("loc{}", rng.gen_range(0u8..3))),
            ]
        })
        .collect()
}

fn rows_of(batch: &Batch) -> Vec<Vec<Value>> {
    (0..batch.num_rows()).map(|i| batch.row(i)).collect()
}

fn canonical(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_by(|a, b| {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| !o.is_eq())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    rows
}

/// Which service topology a battery run drives.
#[derive(Clone, Copy)]
enum Topology {
    Unsharded,
    Sharded(usize),
    /// Sharded, every shard with a cleanse cache: a key-scoped run must
    /// not be answered through a cache spec built for the unscoped plan.
    ShardedCached(usize),
}

fn start_service(topology: Topology, rng: &mut StdRng) -> Arc<QueryService> {
    let catalog = Arc::new(Catalog::new());
    // Indexed on the cluster key, as a deployed reads table is: scoped
    // maintenance fetches the touched keys' rows through it.
    let reads = seed_rows(rng, 60);
    let mut caser = Table::new("caser", Batch::from_rows(reads_schema(), &reads).unwrap());
    caser.create_index("epc").unwrap();
    catalog.register(caser);
    let mut rwp = Table::new(
        "rwp",
        Batch::from_rows(reads_schema(), &from_rows(&reads)).unwrap(),
    );
    rwp.create_index("epc").unwrap();
    catalog.register(rwp);
    catalog.register(Table::new(
        "dim",
        Batch::from_rows(
            dim_schema(),
            &[vec![Value::str("loc0"), Value::str("siteA")]],
        )
        .unwrap(),
    ));
    let sys = DeferredCleansingSystem::with_catalog(catalog);
    sys.define_rule("app", DUP).unwrap();
    sys.define_rule("fromapp", DUP_FROM).unwrap();
    let config = ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    };
    Arc::new(match topology {
        Topology::Unsharded => QueryService::start(sys, config),
        Topology::Sharded(shards) => {
            QueryService::start_sharded(sys, config, ShardConfig::new(shards, "epc")).unwrap()
        }
        Topology::ShardedCached(shards) => {
            let shard_config = ShardConfig::new(shards, "epc").with_cleanse_cache(64);
            QueryService::start_sharded(sys, config, shard_config).unwrap()
        }
    })
}

fn cold(svc: &QueryService, app: &str, sql: &str) -> Vec<Vec<Value>> {
    rows_of(&svc.execute(QueryRequest::new(app, sql)).unwrap().batch)
}

/// Drain exactly one change set (the publish just happened synchronously
/// under the ingest lock, so it is already queued) and verify the feed is
/// then idle.
fn take_one(handle: &SubscriptionHandle, ctx: &str) -> ChangeSet {
    let cs = handle
        .try_next()
        .unwrap_or_else(|e| panic!("{ctx}: feed errored: {e}"))
        .unwrap_or_else(|| panic!("{ctx}: expected one change set, feed idle"));
    assert!(
        handle.try_next().unwrap().is_none(),
        "{ctx}: more than one change set for a single publish"
    );
    cs
}

/// Raw (uncleansed) rows of `table` whose `epc` is one of `keys`, by a
/// cold query of the rule-free application.
fn key_rows(svc: &QueryService, table: &str, keys: &[Value]) -> u64 {
    let list: Vec<String> = keys.iter().map(Value::to_string).collect();
    let sql = format!(
        "select count(*) as n from {table} where epc in ({})",
        list.join(", ")
    );
    match cold(svc, "norules", &sql)[0][0] {
        Value::Int(n) => n as u64,
        ref other => panic!("count(*) returned {other}"),
    }
}

/// Fold every change set a publish sent (exactly one for each subscription
/// of an application in `notified`, none for the rest) and check each fold
/// against a cold run.
fn check_folds(
    svc: &QueryService,
    handles: &[SubscriptionHandle],
    folds: &mut [Vec<Vec<Value>>],
    notified: &[&str],
    ctx: &str,
) {
    for (i, h) in handles.iter().enumerate() {
        let (app, sql, _) = SUBS[i];
        let ctx = format!("{ctx} sub {i} ({app}: {sql})");
        if !notified.contains(&app) {
            assert!(h.try_next().unwrap().is_none(), "{ctx}: notified");
            continue;
        }
        take_one(h, &ctx)
            .apply(&mut folds[i])
            .unwrap_or_else(|e| panic!("{ctx}: fold diverged: {e}"));
        assert_eq!(
            canonical(folds[i].clone()),
            canonical(cold(svc, app, sql)),
            "{ctx}: folded feed diverges from cold re-execution"
        );
    }
}

/// The battery: subscribe the whole pool, run a seeded append schedule
/// (mostly reads, occasionally the irrelevant dimension table, and every
/// third step the FROM table as well), and check fold-equals-cold for
/// every subscriber after every publish.
fn run_battery(topology: Topology, seed: u64, appends: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let svc = start_service(topology, &mut rng);

    let mut handles = Vec::new();
    let mut folds: Vec<Vec<Vec<Value>>> = Vec::new();
    for (app, sql, expect_mode) in SUBS {
        let h = svc
            .subscribe(
                app,
                sql,
                SubscribeOptions::default().with_queue_capacity(appends + 4),
            )
            .unwrap();
        if let Some(mode) = expect_mode {
            assert_eq!(h.mode(), *mode, "classification of {sql:?}");
        }
        assert_eq!(
            canonical(rows_of(h.initial())),
            canonical(cold(&svc, app, sql)),
            "initial result of {sql:?} diverges from cold execution"
        );
        folds.push(rows_of(h.initial()));
        handles.push(h);
    }
    assert_eq!(svc.counters().subscriptions, SUBS.len() as u64);

    let (mut reads_appends, mut from_appends) = (0u64, 0u64);
    for step in 0..appends {
        if rng.gen_range(0u8..5) == 0 {
            // Dimension-table publish: irrelevant to every subscription —
            // epochs advance, no notifications.
            let batch = Batch::from_rows(
                dim_schema(),
                &[vec![
                    Value::str(format!("loc{}", rng.gen_range(0u8..3))),
                    Value::str(format!("site{step}")),
                ]],
            )
            .unwrap();
            svc.append("dim", batch).unwrap();
            for (i, h) in handles.iter().enumerate() {
                assert!(
                    h.try_next().unwrap().is_none(),
                    "step {step}: sub {i} notified for an irrelevant table"
                );
            }
            continue;
        }

        let n = rng.gen_range(1usize..6);
        let rows = seed_rows(&mut rng, n);
        let mut keys: Vec<Value> = rows.iter().map(|r| r[0].clone()).collect();
        keys.sort_by(Value::total_cmp);
        keys.dedup();
        let prev_key_rows = key_rows(&svc, "caser", &keys);
        let batch = Batch::from_rows(reads_schema(), &rows).unwrap();
        let outcome = svc.append("caser", batch).unwrap();
        reads_appends += 1;
        let key_rows_both = prev_key_rows + key_rows(&svc, "caser", &keys);
        // The FROM table is not appended here: its rows of the keys are the
        // same in the prev and new snapshots.
        let from_key_rows_both = 2 * key_rows(&svc, "rwp", &keys);

        for (i, h) in handles.iter().enumerate() {
            let (app, sql, _) = SUBS[i];
            let ctx = format!("step {step} sub {i} ({sql})");
            let cs = take_one(h, &ctx);
            assert_eq!(cs.epochs, outcome.epochs, "{ctx}: epoch vector");
            let comment = cs.render_comment();
            assert!(
                comment.starts_with(&format!(
                    "-- stream: epochs={} mode={}",
                    outcome.epochs,
                    h.mode()
                )),
                "{ctx}: bad observability line: {comment}"
            );
            if h.mode() == "scoped" {
                // A keyed run covers every scoped shape, FROM table or not.
                assert!(!cs.stats.fallback, "{ctx}: {comment}");
            }
            if matches!(h.mode(), "scoped" | "aggregate") {
                // Scoped runs fetch the touched sequences through the epc
                // index: each scan of `caser` reads at most the touched
                // keys' rows of the prev and new snapshots. An expanded
                // rewrite scans `caser` once, a join-back twice (its
                // semi-join input and its outer arm). Rules reading `rwp`
                // also fetch its rows of the touched keys.
                let scoped_rows = cs.stats.exec.maintenance_scoped_rows;
                let key_rows_both = match app {
                    "fromapp" => key_rows_both + from_key_rows_both,
                    _ => key_rows_both,
                };
                assert!(
                    scoped_rows <= 2 * key_rows_both,
                    "{ctx}: scoped runs read {scoped_rows} rows, the touched keys hold \
                     {key_rows_both} in the prev and new snapshots together"
                );
            }
            cs.apply(&mut folds[i])
                .unwrap_or_else(|e| panic!("{ctx}: fold diverged: {e}"));
            assert_eq!(
                canonical(folds[i].clone()),
                canonical(cold(&svc, app, sql)),
                "{ctx}: folded feed diverges from cold re-execution at {}",
                outcome.epochs
            );
        }
        if step % 3 == 0 {
            // A FROM-table publish: only the rules reading it see it, and
            // maintain it by recompute-and-diff. Deterministic rows (a read
            // and its 100 s near-duplicate) keep the seeded schedule intact.
            let (epc, loc) = (format!("e{}", step % 8), format!("loc{}", step % 3));
            let t = 2000 + 10 * step as i64;
            let batch = Batch::from_rows(
                reads_schema(),
                &[
                    vec![Value::str(&epc), Value::Int(t), Value::str(&loc)],
                    vec![Value::str(&epc), Value::Int(t + 100), Value::str(&loc)],
                ],
            )
            .unwrap();
            svc.append("rwp", batch).unwrap();
            from_appends += 1;
            let ctx = format!("step {step} rwp");
            check_folds(&svc, &handles, &mut folds, &["fromapp"], &ctx);
        }
    }

    let from_subs = SUBS.iter().filter(|(app, ..)| *app == "fromapp").count() as u64;
    let counters = svc.counters();
    assert_eq!(
        counters.notifications,
        reads_appends * SUBS.len() as u64 + from_appends * from_subs
    );
    assert_eq!(counters.dropped_for_lag, 0);
    // Fallback-mode subscriptions recompute on every relevant publish.
    assert!(counters.fallbacks >= 2 * reads_appends);
}

#[test]
fn fold_matches_cold_unsharded() {
    run_battery(Topology::Unsharded, 0xDC08_0001, 14);
}

#[test]
fn fold_matches_cold_sharded_1() {
    run_battery(Topology::Sharded(1), 0xDC08_0002, 12);
}

#[test]
fn fold_matches_cold_sharded_4() {
    run_battery(Topology::Sharded(4), 0xDC08_0004, 14);
}

#[test]
fn fold_matches_cold_sharded_2_with_cleanse_cache() {
    run_battery(Topology::ShardedCached(2), 0xDC08_0C02, 14);
}

/// A rule defined after subscribe changes the cleansed result of rows no
/// append touches: e2's reads 990 s apart are no duplicates under DUP but
/// are under a 100-minute rule. The definition itself sends the full diff,
/// so the fold drops `(e2, 1000)` as a cold run does, before and after the
/// next append.
#[test]
fn rule_defined_after_subscribe_refolds_to_cold() {
    const DUP100: &str = "DEFINE duplicate100 ON caseR CLUSTER BY epc SEQUENCE BY rtime \
        AS (A, B) WHERE A.biz_loc = B.biz_loc and B.rtime - A.rtime < 100 mins ACTION DELETE B";
    let read = |epc: &str, t: i64, loc: &str| vec![Value::str(epc), Value::Int(t), Value::str(loc)];
    for shards in [1, 2] {
        let catalog = Arc::new(Catalog::new());
        let rows = [
            read("e1", 0, "shelf"),
            read("e1", 60, "shelf"),
            read("e2", 10, "dock"),
            read("e2", 1000, "dock"),
        ];
        let mut caser = Table::new("caser", Batch::from_rows(reads_schema(), &rows).unwrap());
        caser.create_index("epc").unwrap();
        catalog.register(caser);
        let sys = DeferredCleansingSystem::with_catalog(catalog);
        sys.define_rule("app", DUP).unwrap();
        let svc = QueryService::start_sharded(
            sys,
            ServiceConfig::default(),
            ShardConfig::new(shards, "epc"),
        )
        .unwrap();
        let sql = "select epc, rtime from caser";
        let h = svc
            .subscribe("app", sql, SubscribeOptions::default())
            .unwrap();
        let mut fold = rows_of(h.initial());
        let gone = vec![Value::str("e2"), Value::Int(1000)];
        assert!(fold.contains(&gone), "shards={shards}");

        svc.define_rule("app", DUP100).unwrap();
        let cs = take_one(&h, &format!("shards={shards} define_rule"));
        assert!(
            cs.stats.fallback,
            "shards={shards}: {}",
            cs.render_comment()
        );
        assert_eq!(cs.deleted, vec![gone.clone()], "shards={shards}");
        cs.apply(&mut fold).unwrap();
        assert_eq!(canonical(fold.clone()), canonical(cold(&svc, "app", sql)));

        let batch = Batch::from_rows(reads_schema(), &[read("e1", 9000, "shelf")]).unwrap();
        svc.append("caser", batch).unwrap();
        let cs = take_one(&h, &format!("shards={shards} append"));
        cs.apply(&mut fold).unwrap();
        assert_eq!(canonical(fold.clone()), canonical(cold(&svc, "app", sql)));
        assert!(!fold.contains(&gone), "shards={shards}");
    }
}

/// EXPLAIN of a scoped maintenance plan — the rewritten unscoped plan with
/// `epc IN K` ANDed into every reads scan: the join-back's outer scan, the
/// disjunction `s ∨ cc` restricted to K, carries an `epc` index candidate,
/// so it fetches the touched sequences instead of the table.
#[test]
fn scoped_join_back_outer_scan_has_an_epc_candidate() {
    let mut rng = StdRng::seed_from_u64(0xDC08_E791);
    let catalog = Arc::new(Catalog::new());
    let mut caser = Table::new(
        "caser",
        Batch::from_rows(reads_schema(), &seed_rows(&mut rng, 60)).unwrap(),
    );
    caser.create_index("epc").unwrap();
    catalog.register(caser);
    let sys = DeferredCleansingSystem::with_catalog(Arc::clone(&catalog));
    sys.define_rule("app", DUP).unwrap();
    let user = plan_sql(
        "select epc, rtime, biz_loc from caser where rtime >= 900",
        &catalog,
    )
    .unwrap();
    let strategy = Strategy::JoinBack;
    let mut rewritten = sys
        .rewrite_plan_snapshot(&catalog, "app", &user, strategy)
        .unwrap();
    let keys = [Value::str("e1"), Value::str("e2")];
    rewritten.plan = scope_scans(&rewritten.plan, &["caser"], "epc", &keys).unwrap();
    rewritten.cache_spec = None;
    let text = sys
        .explain_rewritten(&catalog, strategy, rewritten, None)
        .unwrap()
        .physical_text;
    let lines: Vec<&str> = text.lines().map(str::trim).collect();
    let semi = lines
        .iter()
        .position(|l| l.starts_with("SemiJoinExec"))
        .unwrap_or_else(|| panic!("no semi-join in the join-back plan:\n{text}"));
    let outer = lines[semi + 1];
    assert!(
        outer.starts_with("ScanExec: caser") && outer.contains(" OR "),
        "the semi-join's first input is the outer disjunction scan:\n{text}"
    );
    assert!(
        outer.contains("index_candidates=[epc"),
        "the outer scan has no epc candidate:\n{text}"
    );
}

/// Queue overflow: the in-order prefix is delivered, the gap surfaces as
/// [`StreamError::Lagged`], further maintenance is skipped (and counted)
/// while lagged, and a [`QueryService::resync`] restores the feed from a
/// fresh full result.
#[test]
fn lag_overflow_surfaces_then_resync_resumes() {
    let mut rng = StdRng::seed_from_u64(0x0DC0_81A6);
    let svc = start_service(Topology::Unsharded, &mut rng);
    let h = svc
        .subscribe(
            "app",
            "select epc, rtime from caser",
            SubscribeOptions::default().with_queue_capacity(1),
        )
        .unwrap();

    for _ in 0..4 {
        let batch = Batch::from_rows(reads_schema(), &seed_rows(&mut rng, 3)).unwrap();
        svc.append("caser", batch).unwrap();
    }

    // Capacity-1 queue: exactly one queued prefix survives, then the gap.
    let mut fold = rows_of(h.initial());
    let cs = h
        .try_next()
        .unwrap()
        .expect("queued prefix survives the lag");
    cs.apply(&mut fold).unwrap();
    assert!(matches!(h.try_next(), Err(StreamError::Lagged { missed }) if missed >= 1));
    assert!(h.is_lagged());
    assert!(svc.counters().dropped_for_lag >= 1);

    // Resync: fresh base equals a cold run at the current epoch vector.
    let (base, epochs) = svc.resync(&h).unwrap();
    assert_eq!(epochs, EpochVector(vec![4]));
    assert_eq!(
        canonical(rows_of(&base)),
        canonical(cold(&svc, "app", "select epc, rtime from caser"))
    );
    assert!(!h.is_lagged());

    // The feed resumes: the next publish delivers a change set that folds
    // the resynced base to the new cold result.
    let mut fold = rows_of(&base);
    let batch = Batch::from_rows(reads_schema(), &seed_rows(&mut rng, 2)).unwrap();
    let outcome = svc.append("caser", batch).unwrap();
    let cs = take_one(&h, "post-resync");
    assert_eq!(cs.epochs, outcome.epochs);
    cs.apply(&mut fold).unwrap();
    assert_eq!(
        canonical(fold),
        canonical(cold(&svc, "app", "select epc, rtime from caser"))
    );
}

/// Unsubscribing mid-schedule stops that feed with [`StreamError::Closed`]
/// while the surviving subscription keeps streaming correct deltas.
#[test]
fn unsubscribe_under_fire_stops_one_feed() {
    let mut rng = StdRng::seed_from_u64(0x0DC0_8F1E);
    let svc = start_service(Topology::Sharded(4), &mut rng);
    let keep = svc
        .subscribe(
            "app",
            "select biz_loc, count(*) as n from caser group by biz_loc",
            SubscribeOptions::default(),
        )
        .unwrap();
    let drop_me = svc
        .subscribe(
            "app",
            "select epc, rtime from caser",
            SubscribeOptions::default(),
        )
        .unwrap();

    let mut keep_fold = rows_of(keep.initial());
    let mut drop_fold = rows_of(drop_me.initial());
    for _ in 0..3 {
        let batch = Batch::from_rows(reads_schema(), &seed_rows(&mut rng, 4)).unwrap();
        svc.append("caser", batch).unwrap();
        take_one(&keep, "keep pre").apply(&mut keep_fold).unwrap();
        take_one(&drop_me, "drop pre")
            .apply(&mut drop_fold)
            .unwrap();
    }
    assert_eq!(
        canonical(drop_fold),
        canonical(cold(&svc, "app", "select epc, rtime from caser"))
    );

    svc.unsubscribe(&drop_me);
    let notifications_at_cut = svc.counters().notifications;

    for step in 0..3 {
        let batch = Batch::from_rows(reads_schema(), &seed_rows(&mut rng, 4)).unwrap();
        svc.append("caser", batch).unwrap();
        take_one(&keep, &format!("keep post {step}"))
            .apply(&mut keep_fold)
            .unwrap();
        assert!(matches!(drop_me.try_next(), Err(StreamError::Closed)));
    }
    assert_eq!(
        canonical(keep_fold),
        canonical(cold(
            &svc,
            "app",
            "select biz_loc, count(*) as n from caser group by biz_loc"
        ))
    );
    // Only the surviving subscription was notified after the cut.
    assert_eq!(svc.counters().notifications, notifications_at_cut + 3);
}
