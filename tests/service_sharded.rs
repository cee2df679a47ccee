//! Concurrency and scatter-gather equivalence suite for the query service,
//! one shard to many.
//!
//! K reader threads hammer an N-shard [`QueryService`] (per-shard cleanse
//! caches enabled, mixed strategies) while one appender publishes routed
//! epochs. Every reply records the [`EpochVector`] it ran against;
//! afterwards each reply is re-executed **serially and unsharded** on a
//! fresh, cache-free system over the union of the shard snapshots at that
//! exact epoch vector, and the rows must match — byte for byte under
//! ORDER BY and always with one shard (one shard's answer is not a
//! concatenation), as a canonical multiset otherwise (concatenation order
//! across shards is explicitly unspecified). That single oracle covers the
//! whole contract:
//!
//! * per-shard snapshot isolation — no shard executor ever sees a torn
//!   catalog or rows from a different epoch;
//! * publication order — epochs are dense, and with one shard the final
//!   catalog is the serial append order;
//! * scatter soundness — decomposed plans (partial aggregates, merge
//!   sorts, limit pushdown) reproduce the unsharded answer;
//! * shard-salted cache safety — a shard-local cleanse cache never serves
//!   rows cleansed on another shard or another epoch;
//! * routing totality — every appended row lands on exactly one shard and
//!   the union of the shards is the unsharded catalog.
//!
//! The replay and the live A/B run every cell of shards {1, 2, 4} ×
//! workers {1, 4}.

use deferred_cleansing::relational::prelude::*;
use deferred_cleansing::relational::scatter::PARTIALS;
use deferred_cleansing::rewrite::Strategy;
use deferred_cleansing::service::{
    DurableOptions, EpochVector, HashPartitioner, QueryRequest, QueryService, ServiceConfig,
    ServiceError, ShardConfig, Snapshot,
};
use deferred_cleansing::DeferredCleansingSystem;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

const DUP: &str = "DEFINE duplicate ON caseR CLUSTER BY epc SEQUENCE BY rtime AS (A, B) \
    WHERE A.biz_loc = B.biz_loc and B.rtime - A.rtime < 5 mins ACTION DELETE B";

/// Query pool spanning every scatter decomposition: shard-complete scans,
/// key-grouped aggregates (shard-complete), global aggregates (partial
/// lowering), ORDER BY (k-way merge), LIMIT pushdown, a rule-free
/// application, operators with no shard-side form that run in the
/// gather plan over shipped rows: a global and a grouped
/// `count(distinct)`, a non-key window, and a non-key self-join (two shard
/// plans; rule-free, as a rewrite takes one reference to the reads table),
/// and a pedigree trace pinned to one cluster key (routed to its owner).
const POOL: &[(&str, &str)] = &[
    ("app", "select epc, rtime from caser"),
    ("app", "select epc, rtime from caser where rtime < 900"),
    (
        "app",
        "select epc, rtime, biz_loc from caser where rtime < 1500",
    ),
    (
        "app",
        "select epc, count(*) as n from caser group by epc order by epc",
    ),
    ("app", "select epc, rtime from caser order by rtime, epc"),
    (
        "app",
        "select count(*) as n, sum(rtime) as s, avg(rtime) as a from caser",
    ),
    (
        "app",
        "select epc, rtime from caser where rtime < 1500 order by rtime, epc limit 7",
    ),
    ("app", "select count(distinct epc) as n from caser"),
    ("norules", "select epc, rtime from caser where rtime < 600"),
    (
        "norules",
        "select a.epc, b.epc as other, a.rtime from caser a, caser b where a.rtime = b.rtime",
    ),
    (
        "app",
        "select epc, rtime, count(*) over (partition by biz_loc \
         rows between unbounded preceding and unbounded following) as n from caser",
    ),
    (
        "app",
        "select biz_loc, count(distinct epc) as e, count(distinct rtime) as r from caser \
         group by biz_loc",
    ),
    // Pinned to one cluster key: with shards, routed to its owner.
    (
        "app",
        "select epc, rtime, biz_loc from caser where epc = 'e3' order by rtime, biz_loc",
    ),
];

const STRATEGIES: &[Strategy] = &[Strategy::Auto, Strategy::Expanded, Strategy::JoinBack];

/// A rule that gives some reads another cluster key: a query pinned to
/// `e3` must then see rows that live on other shards.
const RELABEL: &str = "DEFINE relabel ON caseR CLUSTER BY epc SEQUENCE BY rtime AS (A) \
    WHERE A.biz_loc = 'loc1' ACTION MODIFY A.epc = 'e3'";

/// A rule clustered by location, not by the shard key: whether an `e3`
/// read survives depends on other EPCs' reads at its location, which live
/// on other shards.
const BY_LOC: &str = "DEFINE crowded ON caseR CLUSTER BY biz_loc SEQUENCE BY rtime AS (A, B) \
    WHERE B.rtime - A.rtime < 40 ACTION DELETE B";

fn locs_schema() -> SchemaRef {
    schema_ref(Schema::new(vec![
        Field::new("loc", DataType::Str),
        Field::new("site", DataType::Str),
    ]))
}

/// The note a query's route leaves at `shards` shards: `pins` are the
/// cluster keys it is pinned to, `None` when it must not route.
fn route_note(shards: usize, pins: Option<&[String]>) -> String {
    let owners: BTreeSet<usize> = pins
        .unwrap_or_default()
        .iter()
        .map(|k| HashPartitioner.shard_of(&Value::str(k), shards))
        .collect();
    match pins {
        Some(keys) if owners.len() == 1 => format!(
            "scatter: routed to shard {} of {shards} ({} keys)",
            owners.first().unwrap(),
            keys.len()
        ),
        Some(keys) if owners.len() < shards => format!(
            "scatter: {} of {shards} shards ({} keys)",
            owners.len(),
            keys.len()
        ),
        _ => format!("scatter: {shards} shards"),
    }
}

/// Key-routing cases at `shards` shards: (application, SQL, the keys the
/// query must route on or `None`). `traced` is a key whose sequence the
/// appends extended.
fn routing_cases(shards: usize, traced: &str) -> Vec<(&'static str, String, Option<Vec<String>>)> {
    let keys: Vec<String> = (0..8).map(|i| format!("e{i}")).collect();
    let owner = |k: &String| HashPartitioner.shard_of(&Value::str(k), shards);
    let pairs: Vec<(&String, &String)> = keys
        .iter()
        .enumerate()
        .flat_map(|(i, a)| keys[i + 1..].iter().map(move |b| (a, b)))
        .collect();
    let (same_a, same_b) = *pairs.iter().find(|(a, b)| owner(a) == owner(b)).unwrap();
    let spanning = pairs.iter().find(|(a, b)| owner(a) != owner(b));
    let pinned = |ks: &[&String]| Some(ks.iter().map(|k| k.to_string()).collect());
    let mut cases = vec![
        (
            "app",
            "select epc, rtime, biz_loc from caser where epc = 'e3'".to_string(),
            pinned(&[&keys[3]]),
        ),
        (
            "app",
            "select epc, rtime from caser where epc = 'e99'".to_string(),
            Some(vec!["e99".to_string()]),
        ),
        (
            "app",
            format!("select epc, rtime from caser where epc in ('{same_a}', '{same_b}')"),
            pinned(&[same_a, same_b]),
        ),
        (
            "app",
            "select c.epc, c.rtime, l.site from caser c, locs l \
             where c.biz_loc = l.loc and c.epc = 'e5'"
                .to_string(),
            pinned(&[&keys[5]]),
        ),
        (
            "app",
            format!("select epc, rtime, biz_loc from caser where epc = '{traced}' order by rtime"),
            Some(vec![traced.to_string()]),
        ),
        // Must not route: an unpinned self-join side, a filter above a
        // LIMIT or a GROUP BY, a rule that assigns the cluster key, and a
        // rule clustered by another column.
        (
            "norules",
            "select a.epc, b.rtime from caser a, caser b where a.epc = b.epc and a.epc = 'e3'"
                .to_string(),
            None,
        ),
        (
            "app",
            "with v as (select epc, rtime from caser order by rtime, epc limit 30) \
             select v.epc, v.rtime from v where v.epc = 'e3'"
                .to_string(),
            None,
        ),
        (
            "app",
            "with g as (select epc, count(*) as n from caser group by epc) \
             select g.epc, g.n from g where g.epc = 'e3'"
                .to_string(),
            None,
        ),
        (
            "modapp",
            "select epc, rtime, biz_loc from caser where epc = 'e3'".to_string(),
            None,
        ),
        (
            "locapp",
            "select epc, rtime, biz_loc from caser where epc = 'e3'".to_string(),
            None,
        ),
    ];
    if let Some((a, b)) = spanning {
        cases.push((
            "app",
            format!("select epc, rtime from caser where epc in ('{a}', '{b}', 'e99')"),
            Some(vec![a.to_string(), b.to_string(), "e99".to_string()]),
        ));
    } else {
        assert_eq!(shards, 1, "e0..e7 all hash to one of {shards} shards");
    }
    cases
}

/// The (shards, workers) cells the replay and the live A/B run.
const CELLS: [(usize, usize); 6] = [(1, 1), (1, 4), (2, 1), (2, 4), (4, 1), (4, 4)];

fn reads_schema() -> SchemaRef {
    schema_ref(Schema::new(vec![
        Field::new("epc", DataType::Str),
        Field::new("rtime", DataType::Int),
        Field::new("biz_loc", DataType::Str),
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

/// One observed reply: which query, which strategy, which epoch vector,
/// what rows.
struct Observation {
    pool_idx: usize,
    strategy: Strategy,
    epochs: EpochVector,
    rows: Vec<Vec<Value>>,
}

/// The unsharded catalog equivalent to the shard snapshots at one epoch
/// vector: shard-major concatenation of the partitioned table over shared
/// dimension tables. This is exactly the data the scattered query saw.
fn union_catalog(snaps: &[Arc<Snapshot>]) -> CatalogRef {
    let cat = snaps[0].catalog.overlay();
    let parts: Vec<Batch> = snaps
        .iter()
        .map(|s| s.catalog.get("caser").unwrap().data().clone())
        .collect();
    cat.register(Table::new("caser", Batch::concat(&parts).unwrap()));
    Arc::new(cat)
}

/// Serial oracle: a fresh, cache-free, **unsharded** system over the union
/// of the recorded shard snapshots.
fn serial_replay(union: &CatalogRef, pool_idx: usize, strategy: Strategy) -> Vec<Vec<Value>> {
    let sys = DeferredCleansingSystem::with_catalog(Arc::clone(union));
    sys.define_rule("app", DUP).unwrap();
    let (app, sql) = POOL[pool_idx];
    let (batch, _) = sys.query_with_strategy(app, sql, strategy).unwrap();
    rows_of(&batch)
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

fn run_session(shards: usize, workers: usize, seed: u64, total_rounds: usize, appends: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let catalog = Arc::new(Catalog::new());
    catalog.register(Table::new(
        "caser",
        Batch::from_rows(reads_schema(), &seed_rows(&mut rng, 60)).unwrap(),
    ));
    let sys = DeferredCleansingSystem::with_catalog(catalog);
    sys.define_rule("app", DUP).unwrap();

    let svc = Arc::new(
        QueryService::start_sharded(
            sys,
            ServiceConfig {
                workers,
                queue_capacity: 2 * workers + appends,
                ..ServiceConfig::default()
            },
            ShardConfig::new(shards, "epc").with_cleanse_cache(256),
        )
        .unwrap(),
    );
    assert_eq!(svc.shard_count(), shards);

    // Per-shard snapshot registries, epoch -> frozen snapshot. The
    // appender is the only publisher, so after each append it can record
    // every shard's current snapshot without missing an epoch.
    let registries: Arc<Vec<Mutex<Vec<Arc<Snapshot>>>>> = Arc::new(
        (0..shards)
            .map(|i| Mutex::new(vec![svc.shard_snapshot(i)]))
            .collect(),
    );

    // The appender: publishes `appends` routed batches, recording each
    // shard's snapshot history and the rows it appended.
    let appender = {
        let svc = Arc::clone(&svc);
        let registries = Arc::clone(&registries);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA11E_17D0);
        std::thread::spawn(move || {
            let mut appended = Vec::new();
            for _ in 0..appends {
                let n = rng.gen_range(1usize..6);
                let rows = seed_rows(&mut rng, n);
                let batch = Batch::from_rows(reads_schema(), &rows).unwrap();
                svc.append("caser", batch).unwrap();
                for (i, reg) in registries.iter().enumerate() {
                    let snap = svc.shard_snapshot(i);
                    let mut reg = reg.lock().unwrap();
                    if reg.last().unwrap().epoch < snap.epoch {
                        reg.push(snap);
                    }
                }
                appended.push(rows);
                std::thread::yield_now();
            }
            appended
        })
    };

    // K readers, each issuing its share of the seeded rounds.
    let rounds_per_reader = total_rounds.div_ceil(workers);
    let readers: Vec<_> = (0..workers)
        .map(|r| {
            let svc = Arc::clone(&svc);
            let mut rng = StdRng::seed_from_u64(seed ^ (0xBEAD_0000 + r as u64));
            std::thread::spawn(move || {
                let mut observed = Vec::new();
                for _ in 0..rounds_per_reader {
                    let pool_idx = rng.gen_range(0usize..POOL.len());
                    // The expanded rewrite needs a selective predicate to
                    // derive a context condition; unfiltered queries only
                    // run under Auto / JoinBack.
                    let strategy = if POOL[pool_idx].1.contains("where") {
                        STRATEGIES[rng.gen_range(0usize..STRATEGIES.len())]
                    } else {
                        [Strategy::Auto, Strategy::JoinBack][rng.gen_range(0usize..2)]
                    };
                    let (app, sql) = POOL[pool_idx];
                    let resp = svc
                        .execute(QueryRequest::new(app, sql).with_strategy(strategy))
                        .unwrap();
                    assert_eq!(resp.service.epochs.shards(), svc.shard_count());
                    observed.push(Observation {
                        pool_idx,
                        strategy,
                        epochs: resp.service.epochs.clone(),
                        rows: rows_of(&resp.batch),
                    });
                }
                observed
            })
        })
        .collect();

    let appended = appender.join().unwrap();
    let observations: Vec<Observation> = readers
        .into_iter()
        .flat_map(|r| r.join().unwrap())
        .collect();
    assert!(observations.len() >= total_rounds);
    assert_eq!(svc.counters().appends, appends as u64);

    // Per-shard epochs are dense and fully recorded; one shard publishes
    // every append, so its history is exactly 0..=appends.
    if shards == 1 {
        assert_eq!(svc.epoch(), appends as u64);
        assert_eq!(registries[0].lock().unwrap().len(), appends + 1);
    }
    for (i, reg) in registries.iter().enumerate() {
        let reg = reg.lock().unwrap();
        assert_eq!(reg.last().unwrap().epoch, svc.shard_snapshot(i).epoch);
        for (e, s) in reg.iter().enumerate() {
            assert_eq!(s.epoch, e as u64, "shard {i} epoch history not dense");
        }
    }

    // The oracle: every concurrent reply must match a serial, unsharded,
    // cache-free re-execution at its recorded epoch vector.
    for (i, obs) in observations.iter().enumerate() {
        let snaps: Vec<Arc<Snapshot>> = obs
            .epochs
            .0
            .iter()
            .enumerate()
            .map(|(s, &e)| Arc::clone(&registries[s].lock().unwrap()[e as usize]))
            .collect();
        let union = union_catalog(&snaps);
        let expected = serial_replay(&union, obs.pool_idx, obs.strategy);
        let (_, sql) = POOL[obs.pool_idx];
        if shards == 1 || sql.contains("order by") {
            assert_eq!(
                obs.rows, expected,
                "reply {i} diverged from serial replay (exact order): \
                 shards={shards} workers={workers} seed={seed} epochs={} \
                 query={:?} strategy={:?}",
                obs.epochs, POOL[obs.pool_idx], obs.strategy
            );
        } else {
            assert_eq!(
                canonical(obs.rows.clone()),
                canonical(expected),
                "reply {i} diverged from serial replay (canonical): \
                 shards={shards} workers={workers} seed={seed} epochs={} \
                 query={:?} strategy={:?}",
                obs.epochs,
                POOL[obs.pool_idx],
                obs.strategy
            );
        }
    }

    // Routing totality: the final union of the shards equals the seed rows
    // plus every appended batch, as a canonical multiset — and with one
    // shard, row for row in the serial append order.
    let finals: Vec<Arc<Snapshot>> = (0..shards).map(|i| svc.shard_snapshot(i)).collect();
    let union = union_catalog(&finals);
    let got = rows_of(union.get("caser").unwrap().data());
    let mut want_rows = {
        let mut rng = StdRng::seed_from_u64(seed);
        seed_rows(&mut rng, 60)
    };
    for rows in &appended {
        want_rows.extend(rows.iter().cloned());
    }
    if shards == 1 {
        assert_eq!(
            got, want_rows,
            "final catalog is not the serial append order"
        );
    }
    assert_eq!(canonical(got), canonical(want_rows));
}

#[test]
fn sharded_replay_matches_serial_oracle() {
    for (shards, workers) in CELLS {
        run_session(shards, workers, 0xDC07_0000 + shards as u64, 60, 10);
    }
}

/// The N = 1 row at the worker counts of the former concurrency suite:
/// with one shard every reply must match the serial replay row for row.
#[test]
fn one_shard_replay_matches_serial_oracle_at_2_4_8_workers() {
    for workers in [2, 4, 8] {
        run_session(1, workers, 0xDC05_0000 + workers as u64, 100, 12);
    }
}

/// Live A/B: an N-shard service and [`QueryService::start`] fed identical
/// appends must agree on every pool query at quiescence. N = 1 *is* the
/// unsharded service: same rows in the same order, same work counters,
/// same notes, and the same EXPLAIN ANALYZE with no shard lines.
#[test]
fn sharded_and_unsharded_services_agree_live() {
    for (shards, workers) in CELLS {
        let seed = 0xDC07_AB00 + shards as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = seed_rows(&mut rng, 80);
        let build = || {
            let catalog = Arc::new(Catalog::new());
            catalog.register(Table::new(
                "caser",
                Batch::from_rows(reads_schema(), &rows).unwrap(),
            ));
            let locs: Vec<Vec<Value>> = (0..3)
                .map(|i| {
                    vec![
                        Value::str(format!("loc{i}")),
                        Value::str(format!("site{i}")),
                    ]
                })
                .collect();
            catalog.register(Table::new(
                "locs",
                Batch::from_rows(locs_schema(), &locs).unwrap(),
            ));
            let mut sys = DeferredCleansingSystem::with_catalog(catalog);
            sys.define_rule("app", DUP).unwrap();
            sys.define_rule("modapp", RELABEL).unwrap();
            sys.define_rule("locapp", BY_LOC).unwrap();
            sys.enable_cleanse_cache(128);
            sys
        };
        let config = || ServiceConfig {
            workers,
            ..ServiceConfig::default()
        };
        let shard = ShardConfig::new(shards, "epc").with_cleanse_cache(128);
        let sharded = QueryService::start_sharded(build(), config(), shard).unwrap();
        let unsharded = QueryService::start(build(), config());
        let mut traced = String::new();
        for _ in 0..4 {
            let extra = seed_rows(&mut rng, 7);
            traced = extra[6][0].as_str().unwrap().to_string();
            let batch = Batch::from_rows(reads_schema(), &extra).unwrap();
            sharded.append("caser", batch.clone()).unwrap();
            unsharded.append("caser", batch).unwrap();
        }
        for (pool_idx, (app, sql)) in POOL.iter().enumerate() {
            let a = sharded.execute(QueryRequest::new(*app, *sql)).unwrap();
            let b = unsharded.execute(QueryRequest::new(*app, *sql)).unwrap();
            let ctx = format!("shards={shards} workers={workers} pool={pool_idx}");
            assert_eq!(a.batch.schema(), b.batch.schema(), "{ctx}");
            let explain = |svc: &QueryService| {
                let text = svc.explain_analyze(&QueryRequest::new(*app, *sql)).unwrap();
                // Drop the `-- service:` line: it carries wall-clock times.
                text.split_once('\n').unwrap().1.to_string()
            };
            if shards == 1 {
                assert_eq!(rows_of(&a.batch), rows_of(&b.batch), "{ctx}");
                assert_eq!(a.report.stats, b.report.stats, "{ctx}");
                assert_eq!(a.report.notes, b.report.notes, "{ctx}");
                let text = explain(&sharded);
                assert!(!text.contains("-- shard"), "{ctx}: {text}");
                assert_eq!(text, explain(&unsharded), "{ctx}");
            } else if pool_idx == 0 {
                // The run it executed, shard lines and combined metrics.
                let text = explain(&sharded);
                assert!(text.contains("mode=scatter"), "{ctx}: {text}");
                assert!(text.contains("rows_out="), "{ctx}: {text}");
            }
            if sql.contains("order by") {
                assert_eq!(rows_of(&a.batch), rows_of(&b.batch), "{ctx}");
            } else {
                let (a, b) = (canonical(rows_of(&a.batch)), canonical(rows_of(&b.batch)));
                assert_eq!(a, b, "{ctx}");
            }
        }
        // Key routing: a pinned query runs on its keys' owners only, and
        // every answer is the one-shard service's.
        for (app, sql, pins) in routing_cases(shards, &traced) {
            let a = sharded.execute(QueryRequest::new(app, &sql)).unwrap();
            let b = unsharded.execute(QueryRequest::new(app, &sql)).unwrap();
            let ctx = format!("shards={shards} workers={workers} {app}: {sql}");
            assert_eq!(a.batch.schema(), b.batch.schema(), "{ctx}");
            assert_eq!(
                canonical(rows_of(&a.batch)),
                canonical(rows_of(&b.batch)),
                "{ctx}"
            );
            if sql.contains("order by rtime") {
                assert_eq!(rows_of(&a.batch), rows_of(&b.batch), "{ctx}");
            }
            if shards == 1 {
                assert_eq!(a.report.notes, b.report.notes, "{ctx}");
                continue;
            }
            let note = route_note(shards, pins.as_deref());
            assert!(
                a.report.notes.iter().any(|n| n.starts_with(&note)),
                "{ctx}: want {note:?}, got {:?}",
                a.report.notes
            );
            let tree = a.report.metrics.as_ref().unwrap();
            if note.starts_with("scatter: routed") {
                // The owner's own run: no partials, no merge.
                assert_ne!(tree.name, "GatherExec", "{ctx}");
                assert_eq!(a.report.stats.shard_rows_merged, 0, "{ctx}");
            } else {
                assert_eq!(tree.name, "GatherExec", "{ctx}");
            }
        }
    }
}

/// Shard-local cleanse caches warm up and stay correct: the same join-back
/// query twice must hit at least one shard cache the second time, and both
/// replies must agree with an uncached run.
#[test]
fn shard_caches_warm_and_stay_correct() {
    let mut rng = StdRng::seed_from_u64(0xDC07_CACE);
    let rows = seed_rows(&mut rng, 60);
    let catalog = Arc::new(Catalog::new());
    catalog.register(Table::new(
        "caser",
        Batch::from_rows(reads_schema(), &rows).unwrap(),
    ));
    let sys = DeferredCleansingSystem::with_catalog(catalog);
    sys.define_rule("app", DUP).unwrap();
    let svc = QueryService::start_sharded(
        sys,
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
        ShardConfig::new(3, "epc").with_cleanse_cache(256),
    )
    .unwrap();

    let req = || {
        QueryRequest::new("app", "select epc, rtime from caser where rtime < 1200")
            .with_strategy(Strategy::JoinBack)
    };
    let cold = svc.execute(req()).unwrap();
    let warm = svc.execute(req()).unwrap();
    assert_eq!(
        canonical(rows_of(&cold.batch)),
        canonical(rows_of(&warm.batch))
    );
    let hits: u64 = (0..svc.shard_count())
        .map(|i| {
            svc.shard_system(i)
                .cleanse_cache_stats()
                .map_or(0, |s| s.hits)
        })
        .sum();
    assert!(hits > 0, "warm run should hit at least one shard cache");
    // Warm replies agree with the hit counters' own run.
    assert!(warm.report.stats.seq_cache_hits > 0);
}

/// The cleanse cache must keep epochs apart even when the *same* join-back
/// query alternates between two snapshots — the ping-pong pattern that
/// would expose a key collision across epochs.
#[test]
fn cache_epoch_ping_pong_stays_correct() {
    let mut rng = StdRng::seed_from_u64(0xDC05_CAFE);
    let catalog = Arc::new(Catalog::new());
    catalog.register(Table::new(
        "caser",
        Batch::from_rows(reads_schema(), &seed_rows(&mut rng, 30)).unwrap(),
    ));
    let mut sys = DeferredCleansingSystem::with_catalog(catalog);
    sys.define_rule("app", DUP).unwrap();
    sys.enable_cleanse_cache(256);
    let svc = QueryService::start(sys, ServiceConfig::default());

    let old = svc.snapshot();
    svc.append(
        "caser",
        Batch::from_rows(reads_schema(), &seed_rows(&mut rng, 5)).unwrap(),
    )
    .unwrap();
    let new = svc.snapshot();
    assert_eq!((old.epoch, new.epoch), (0, 1));

    let sql = "select epc, rtime from caser where rtime < 1200";
    let expect_at = |snap: &Snapshot| {
        let fresh = DeferredCleansingSystem::with_catalog(Arc::clone(&snap.catalog));
        fresh.define_rule("app", DUP).unwrap();
        rows_of(&fresh.query("app", sql).unwrap())
    };
    let (want_old, want_new) = (expect_at(&old), expect_at(&new));
    assert_ne!(want_old, want_new, "append must change the answer");

    // Alternate epochs through the shared cache: each probe must validate
    // against its own snapshot's segments and never serve the other's.
    for _ in 0..4 {
        for (snap, want) in [(&old, &want_old), (&new, &want_new)] {
            let (batch, _) = svc
                .system()
                .query_snapshot(
                    &snap.catalog,
                    "app",
                    sql,
                    Strategy::JoinBack,
                    deferred_cleansing::core::QueryBudget::unlimited(),
                )
                .unwrap();
            assert_eq!(&rows_of(&batch), want);
        }
    }
}

/// Time-travel equivalence on a durable service: for **every** committed
/// global epoch `E` — one, two and four shards, per-shard cleanse caches
/// on — `query_as_of(E)` and the SQL `... AS OF EPOCH E` form must
/// both equal the serial, unsharded, cache-free oracle over the union of
/// the shard snapshots recorded at `E`'s epoch vector. The same holds
/// after the service restarts via [`QueryService::recover`], whose
/// historical catalogs are rebuilt from segment files instead of live
/// memory. Before the restart no `AS OF` decodes a segment file.
#[test]
fn as_of_queries_match_serial_replay_at_every_epoch() {
    for shards in [1usize, 2, 4] {
        let seed = 0xDC07_A50F + shards as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        let catalog = Arc::new(Catalog::new());
        catalog.register(Table::new(
            "caser",
            Batch::from_rows(reads_schema(), &seed_rows(&mut rng, 40)).unwrap(),
        ));
        let sys = DeferredCleansingSystem::with_catalog(catalog);
        sys.define_rule("app", DUP).unwrap();

        let dir = std::env::temp_dir().join(format!("dc-asof-{shards}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = || ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        };
        let svc = QueryService::start_sharded_durable(
            sys,
            config(),
            ShardConfig::new(shards, "epc").with_cleanse_cache(64),
            DurableOptions::new(&dir),
        )
        .unwrap();

        // Record each shard's dense snapshot history plus the epoch
        // vector bound to every global commit — the appender is the only
        // publisher, so nothing is missed.
        let mut registries: Vec<Vec<Arc<Snapshot>>> =
            (0..shards).map(|i| vec![svc.shard_snapshot(i)]).collect();
        let mut vectors: Vec<EpochVector> = vec![svc.epoch_vector()];
        for _ in 0..6 {
            let rows = seed_rows(&mut rng, 3);
            svc.append("caser", Batch::from_rows(reads_schema(), &rows).unwrap())
                .unwrap();
            for (i, reg) in registries.iter_mut().enumerate() {
                let snap = svc.shard_snapshot(i);
                if reg.last().unwrap().epoch < snap.epoch {
                    reg.push(snap);
                }
            }
            vectors.push(svc.epoch_vector());
        }

        let check = |svc: &QueryService, phase: &str| {
            for (e, vector) in vectors.iter().enumerate() {
                let snaps: Vec<Arc<Snapshot>> = vector
                    .0
                    .iter()
                    .enumerate()
                    .map(|(s, &se)| Arc::clone(&registries[s][se as usize]))
                    .collect();
                let union = union_catalog(&snaps);
                for (pool_idx, (app, sql)) in POOL.iter().enumerate() {
                    let expected = serial_replay(&union, pool_idx, Strategy::Auto);
                    let via_api = svc
                        .query_as_of(&QueryRequest::new(*app, *sql), e as u64)
                        .unwrap();
                    let via_sql = svc
                        .execute(QueryRequest::new(*app, format!("{sql} as of epoch {e}")))
                        .unwrap();
                    if shards > 1 && sql.contains("epc = 'e3'") {
                        // Time travel routes on the historical snapshots.
                        for notes in [&via_api.report.notes, &via_sql.report.notes] {
                            assert!(
                                notes
                                    .iter()
                                    .any(|n| n.starts_with("scatter: routed to shard")),
                                "{phase}: shards={shards} epoch={e}: {notes:?}"
                            );
                        }
                    }
                    for (form, rows) in [
                        ("query_as_of", rows_of(&via_api.batch)),
                        ("AS OF sql", rows_of(&via_sql.batch)),
                    ] {
                        let ctx =
                            format!("{phase} {form}: shards={shards} epoch={e} pool={pool_idx}");
                        if sql.contains("order by") {
                            assert_eq!(rows, expected, "{ctx}");
                        } else {
                            assert_eq!(canonical(rows), canonical(expected.clone()), "{ctx}");
                        }
                    }
                }
            }
            // One past the committed history is a typed refusal.
            let beyond = vectors.len() as u64;
            assert!(svc
                .query_as_of(&QueryRequest::new("app", POOL[0].1), beyond)
                .is_err());
        };
        check(&svc, "live");
        // The live service serves every epoch from the segments it logged.
        assert_eq!(svc.durable_stats().unwrap().segments_loaded_lazy, 0);
        drop(svc);

        let recovered = QueryService::recover(DurableOptions::new(&dir), config()).unwrap();
        assert_eq!(recovered.shard_count(), shards);
        assert_eq!(
            recovered.durable_stats().unwrap().epochs_recovered,
            vectors.len() as u64
        );
        check(&recovered, "recovered");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Rows an executor moved: the sum of its operators' `rows_out`, the
/// quantity a row budget bounds.
fn rows_moved(m: &OperatorMetrics) -> u64 {
    m.rows_out + m.children.iter().map(rows_moved).sum::<u64>()
}

/// The row budget reaches the gather: a limit that every shard's own run
/// stays under but the coordinator's merge exceeds aborts the query with
/// no rows, and without the limit the same query matches the unsharded
/// answer. Runs at two and four shards.
#[test]
fn row_budget_bounds_the_gather() {
    for shards in [2, 4] {
        let rows: Vec<Vec<Value>> = (0..120)
            .map(|i| {
                vec![
                    Value::str(format!("e{}", i % 40)),
                    Value::Int((i * 37) % 1000),
                    Value::str(format!("loc{}", i % 3)),
                ]
            })
            .collect();
        let build = || {
            let catalog = Arc::new(Catalog::new());
            catalog.register(Table::new(
                "caser",
                Batch::from_rows(reads_schema(), &rows).unwrap(),
            ));
            let sys = DeferredCleansingSystem::with_catalog(catalog);
            sys.define_rule("app", DUP).unwrap();
            sys
        };
        let sharded = QueryService::start_sharded(
            build(),
            ServiceConfig::default(),
            ShardConfig::new(shards, "epc"),
        )
        .unwrap();
        let unsharded = QueryService::start(build(), ServiceConfig::default());
        let sql = "select epc, rtime from caser order by rtime, epc";
        let req = || QueryRequest::new("norules", sql);
        let ctx = format!("shards={shards}");

        let full = sharded.execute(req()).unwrap();
        let want = unsharded.execute(req()).unwrap();
        assert_eq!(rows_of(&full.batch), rows_of(&want.batch), "{ctx}");
        assert_eq!(full.batch.schema(), want.batch.schema(), "{ctx}");

        // Each shard runs the same plan over its own rows.
        let shard_rows = (0..shards)
            .map(|i| {
                let (_, report) = sharded
                    .shard_system(i)
                    .query_with_strategy("norules", sql, Strategy::Auto)
                    .unwrap();
                rows_moved(&report.metrics.unwrap())
            })
            .max()
            .unwrap();
        match sharded.execute(req().with_row_limit(shard_rows)) {
            Err(ServiceError::Aborted {
                reason: AbortReason::RowLimitExceeded,
                ..
            }) => {}
            other => panic!("{ctx}: expected a row-limit abort, got {other:?}"),
        }
        // It was the gather that moved more rows than any shard.
        let tree = full.report.metrics.expect("a scatter run has a tree");
        assert_eq!(tree.name, "GatherExec", "{ctx}");
        let gather_rows = rows_moved(&tree.children[0]);
        assert!(
            shard_rows < gather_rows,
            "{ctx}: {shard_rows} vs {gather_rows}"
        );
        assert!(sharded.execute(req().with_row_limit(gather_rows)).is_ok());
    }
}

/// Is `m` the gather plan, i.e. does its tree scan the shard partials?
fn scans_partials(m: &OperatorMetrics) -> bool {
    m.label.starts_with(&format!("ScanExec: {PARTIALS}")) || m.children.iter().any(scans_partials)
}

/// A scatter run's work counters are the fold of its metrics tree: the
/// `GatherExec` node, the gather plan and the shard trees, combined when
/// the shards ran the same operator shape and side by side when they did
/// not (here: a cleanse cache warm on every shard but one).
#[test]
fn scatter_stats_are_the_fold_of_the_run_tree() {
    for shards in [2, 4] {
        let mut rng = StdRng::seed_from_u64(0xDC07_F01D + shards as u64);
        let catalog = Arc::new(Catalog::new());
        catalog.register(Table::new(
            "caser",
            Batch::from_rows(reads_schema(), &seed_rows(&mut rng, 60)).unwrap(),
        ));
        let sys = DeferredCleansingSystem::with_catalog(catalog);
        sys.define_rule("app", DUP).unwrap();
        let svc = QueryService::start_sharded(
            sys,
            ServiceConfig::default(),
            ShardConfig::new(shards, "epc").with_cleanse_cache(256),
        )
        .unwrap();
        let cached = || {
            QueryRequest::new("app", "select epc, rtime from caser where rtime < 1200")
                .with_strategy(Strategy::JoinBack)
        };
        let mut split_trees = 0;
        let mut check = |req: QueryRequest| {
            let resp = svc.execute(req).unwrap();
            let tree = resp.report.metrics.expect("a scatter run has a tree");
            assert_eq!(tree.name, "GatherExec", "shards={shards}");
            assert_eq!(resp.report.stats, tree.total_stats(), "shards={shards}");
            let shard_side = tree.children.iter().filter(|c| !scans_partials(c)).count();
            if shard_side > 1 {
                split_trees += 1;
            }
        };
        check(cached());
        check(QueryRequest::new(
            "app",
            "select biz_loc, count(*) as n, avg(rtime) as a from caser group by biz_loc \
             order by n desc, biz_loc limit 2",
        ));
        check(QueryRequest::new(
            "app",
            "select distinct biz_loc from caser",
        ));
        // One new sequence lands on one shard: that shard misses on it,
        // every other shard answers from its warm cache.
        svc.append(
            "caser",
            Batch::from_rows(
                reads_schema(),
                &[vec![Value::str("fresh"), Value::Int(5), Value::str("loc0")]],
            )
            .unwrap(),
        )
        .unwrap();
        check(cached());
        assert!(
            split_trees > 0,
            "shards={shards}: no run had shard trees of different shapes"
        );
    }
}
