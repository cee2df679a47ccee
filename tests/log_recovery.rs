//! Fault-injection battery for the durable commit log.
//!
//! Every test follows the same script: run a fixed bootstrap + append
//! workload against a durable [`QueryService`] whose write path is wired
//! to a tick-budgeted [`FailPoint`], kill the writer after N ticks, then
//! recover the directory with a clean log handle and hold the result to
//! the durability contract:
//!
//! * recovery never panics — it either restores a consistent service or
//!   fails with a typed log error (only possible while bootstrap itself
//!   was still in flight);
//! * the recovered global epoch `E` satisfies `acked ≤ E ≤ attempted`:
//!   no acknowledged append is ever lost, and at most the one in-flight
//!   append may survive (its bytes were written but not yet fsynced —
//!   the test filesystem keeps written bytes, as a kind crash would);
//! * the recovered table is **byte-identical** to the in-memory oracle's
//!   first `E` epochs, and `query_as_of(e)` reproduces every earlier
//!   prefix `e ≤ E`;
//! * cleansing rules survive the restart, and the reopened log accepts
//!   new appends.
//!
//! The crash points are not guessed: a measurement run with an unlimited
//! fail point counts the ticks (1 per byte written, 1 per fsync / rename /
//! directory sync) each workload phase consumes, and the sweep then covers
//! **every** tick of the first append — hitting every boundary class
//! (mid-segment-file, between fsync and rename, mid-log-record, the
//! commit fsync, the manifest write) by construction — plus strided points
//! through bootstrap and the remaining appends.
//!
//! Scratch directories live under `DC_RECOVERY_WORKDIR` (CI points this at
//! a tmpfs) or the system temp dir; a per-crash-point TSV report lands in
//! `DC_RECOVERY_ARTIFACT_DIR` (default `target/repro/recovery`) for CI to
//! upload.

use deferred_cleansing::relational::prelude::*;
use deferred_cleansing::rewrite::Strategy;
use deferred_cleansing::service::{
    DurableOptions, FailPoint, QueryRequest, QueryService, ServiceConfig, ShardConfig,
};
use deferred_cleansing::DeferredCleansingSystem;
use std::path::PathBuf;
use std::sync::Arc;

const DUP: &str = "DEFINE duplicate ON caseR CLUSTER BY epc SEQUENCE BY rtime AS (A, B) \
    WHERE A.biz_loc = B.biz_loc and B.rtime - A.rtime < 5 mins ACTION DELETE B";

/// Full-width scan used for oracle comparisons (column order matches the
/// schema, so rows compare byte-for-byte against the oracle rows).
const SCAN: &str = "select epc, rtime, biz_loc from caser";

/// Appends in the scripted workload, two rows each.
const APPENDS: usize = 4;

fn reads_schema() -> SchemaRef {
    schema_ref(Schema::new(vec![
        Field::new("epc", DataType::Str),
        Field::new("rtime", DataType::Int),
        Field::new("biz_loc", DataType::Str),
    ]))
}

fn seed_rows() -> Vec<Vec<Value>> {
    vec![
        vec![Value::str("e1"), Value::Int(0), Value::str("shelf")],
        vec![Value::str("e1"), Value::Int(60), Value::str("shelf")], // duplicate of row 0
        vec![Value::str("e2"), Value::Int(10), Value::str("dock")],
        vec![Value::str("e3"), Value::Int(500), Value::str("gate")],
        vec![Value::str("e2"), Value::Int(1900), Value::str("dock")],
        vec![Value::str("e4"), Value::Int(120), Value::str("shelf")],
    ]
}

/// The rows of append number `i` (0-based), deterministic so the oracle
/// and every crash-point run agree on the byte stream.
fn append_rows(i: usize) -> Vec<Vec<Value>> {
    vec![
        vec![
            Value::str(format!("e{}", i % 5)),
            Value::Int(200 * i as i64 + 17),
            Value::str("locA"),
        ],
        vec![
            Value::str(format!("e{}", (i + 2) % 5)),
            Value::Int(200 * i as i64 + 41),
            Value::str("locB"),
        ],
    ]
}

/// Raw rows the table must hold after `e` committed appends.
fn oracle_rows(e: usize) -> Vec<Vec<Value>> {
    let mut rows = seed_rows();
    for i in 0..e {
        rows.extend(append_rows(i));
    }
    rows
}

fn batch(rows: &[Vec<Value>]) -> Batch {
    Batch::from_rows(reads_schema(), rows).unwrap()
}

fn rows_of(b: &Batch) -> Vec<Vec<Value>> {
    (0..b.num_rows()).map(|i| b.row(i)).collect()
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

fn build_system() -> DeferredCleansingSystem {
    let catalog = Arc::new(Catalog::new());
    catalog.register(Table::new("caser", batch(&seed_rows())));
    let sys = DeferredCleansingSystem::with_catalog(catalog);
    sys.define_rule("app", DUP).unwrap();
    sys
}

fn config() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    }
}

/// The duplicate-cleansed answer over the first `e` epochs, computed on a
/// fresh, cache-free, never-crashed system.
fn cleansed_oracle(e: usize) -> Vec<Vec<Value>> {
    let catalog = Arc::new(Catalog::new());
    catalog.register(Table::new("caser", batch(&oracle_rows(e))));
    let sys = DeferredCleansingSystem::with_catalog(catalog);
    sys.define_rule("app", DUP).unwrap();
    let (b, _) = sys
        .query_with_strategy("app", SCAN, Strategy::Auto)
        .unwrap();
    rows_of(&b)
}

fn scratch(tag: &str) -> PathBuf {
    let base = std::env::var("DC_RECOVERY_WORKDIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| std::env::temp_dir());
    base.join(format!("dc-recovery-{tag}-{}", std::process::id()))
}

fn assert_injected(e: &impl std::fmt::Display, what: &str, ticks: u64) {
    let msg = e.to_string();
    assert!(
        msg.contains("durable log"),
        "{what} at tick {ticks} must fail with a typed log error, got: {msg}"
    );
}

/// One crash point's outcome, a line in the battery artifact.
struct PointReport {
    ticks: u64,
    boot_crashed: bool,
    acked: u64,
    attempted: u64,
    /// Recovered global epoch; `None` when recovery itself (correctly)
    /// refused a half-bootstrapped directory.
    recovered: Option<u64>,
}

fn write_artifact(name: &str, reports: &[PointReport]) {
    let dir = std::env::var("DC_RECOVERY_ARTIFACT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("target/repro/recovery"));
    let mut out = String::from("ticks\tboot_crashed\tacked\tattempted\trecovered\n");
    for r in reports {
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\n",
            r.ticks,
            r.boot_crashed,
            r.acked,
            r.attempted,
            r.recovered.map_or("refused".to_string(), |e| e.to_string()),
        ));
    }
    // Artifacts are best-effort: a read-only checkout must not fail the
    // battery itself.
    let _ = std::fs::create_dir_all(&dir);
    let _ = std::fs::write(dir.join(format!("{name}.tsv")), out);
}

/// `None` is one unkeyed shard without a cleanse cache (the manifest of an
/// unsharded service: `key = ""`), `Some(n)` n shards keyed on `epc` with
/// per-shard caches.
fn shard_config(shards: Option<usize>) -> ShardConfig {
    match shards {
        None => ShardConfig::new(1, ""),
        Some(n) => ShardConfig::new(n, "epc").with_cleanse_cache(32),
    }
}

/// Tick checkpoints of the uninjected workload: ticks consumed by
/// bootstrap, then cumulative ticks after each append. The sweep domain.
fn measure(tag: &str, shards: Option<usize>) -> Vec<u64> {
    let dir = scratch(&format!("{tag}-measure"));
    let _ = std::fs::remove_dir_all(&dir);
    let fp = FailPoint::unlimited();
    let opts = DurableOptions::new(&dir).with_failpoint(Arc::clone(&fp));
    let svc =
        QueryService::start_sharded_durable(build_system(), config(), shard_config(shards), opts)
            .unwrap();
    let mut checkpoints = vec![fp.ticks_requested()];
    for i in 0..APPENDS {
        svc.append("caser", batch(&append_rows(i))).unwrap();
        checkpoints.push(fp.ticks_requested());
    }
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
    checkpoints
}

/// The crash-point domain for one battery: every tick of the first append
/// (all boundary classes for the append path), strided coverage of
/// bootstrap and the later appends, and one uninjected control point.
fn sweep_points(checkpoints: &[u64], first_window_stride: usize) -> Vec<u64> {
    let t_boot = checkpoints[0];
    let t_first = checkpoints[1];
    let t_total = *checkpoints.last().unwrap();
    let mut points: Vec<u64> = Vec::new();
    points.extend((0..=t_boot).step_by((t_boot as usize / 16).max(1)));
    points.extend(((t_boot + 1)..=t_first).step_by(first_window_stride.max(1)));
    points.extend(((t_first + 1)..t_total).step_by(((t_total - t_first) as usize / 24).max(1)));
    points.push(t_total + 1_000); // control: never fires
    points.sort_unstable();
    points.dedup();
    points
}

/// Run the scripted workload with a crash after `ticks`, recover, and
/// check the durability contract. `shards: None` drives the unsharded
/// service with byte-identical prefix checks; `Some(n)` drives a sharded
/// one, comparing the shard union as a canonical multiset (concatenation
/// order across shards is unspecified).
fn crash_point(tag: &str, ticks: u64, shards: Option<usize>) -> PointReport {
    let dir = scratch(&format!("{tag}-p{ticks}"));
    let _ = std::fs::remove_dir_all(&dir);
    let fp = FailPoint::after_ticks(ticks);
    let opts = DurableOptions::new(&dir).with_failpoint(Arc::clone(&fp));
    let started =
        QueryService::start_sharded_durable(build_system(), config(), shard_config(shards), opts);

    let (boot_crashed, acked, attempted) = match started {
        Err(e) => {
            assert_injected(&e, "bootstrap crash", ticks);
            (true, 0u64, 0u64)
        }
        Ok(svc) => {
            let mut acked = 0u64;
            let mut crashed = false;
            for i in 0..APPENDS {
                match svc.append("caser", batch(&append_rows(i))) {
                    Ok(_) => acked += 1,
                    Err(e) => {
                        assert_injected(&e, "append crash", ticks);
                        crashed = true;
                        break;
                    }
                }
            }
            if shards.is_none() {
                // Published epochs track acknowledged appends exactly: a
                // failed commit must publish nothing.
                assert_eq!(svc.epoch(), acked, "tick {ticks}: unpublished ack");
            }
            drop(svc);
            (false, acked, acked + crashed as u64)
        }
    };

    // Recovery runs on a clean handle — the "process" restarted.
    let recovered = QueryService::recover(DurableOptions::new(&dir), config());
    let report = if boot_crashed {
        match recovered {
            Err(e) => {
                assert_injected(&e, "recovery of a half-bootstrapped dir", ticks);
                PointReport {
                    ticks,
                    boot_crashed,
                    acked,
                    attempted,
                    recovered: None,
                }
            }
            Ok(svc) => {
                // Bootstrap's final record hit the disk before the crash
                // (written but unsynced): the service must come back as
                // exactly epoch 0, nothing more, nothing less.
                let stats = svc.durable_stats().unwrap();
                assert_eq!(stats.durable_epoch, 0, "tick {ticks}");
                check_recovered(&svc, 0, ticks, shards);
                PointReport {
                    ticks,
                    boot_crashed,
                    acked,
                    attempted,
                    recovered: Some(0),
                }
            }
        }
    } else {
        let svc = recovered.unwrap_or_else(|e| {
            panic!("tick {ticks} (acked {acked}): a crashed append must stay recoverable: {e}")
        });
        let stats = svc.durable_stats().unwrap();
        let e = stats.durable_epoch;
        assert!(
            acked <= e && e <= attempted,
            "tick {ticks}: recovered epoch {e} outside acked {acked} ..= attempted {attempted}"
        );
        assert_eq!(
            stats.epochs_recovered,
            e + 1,
            "tick {ticks}: history not dense"
        );
        assert!(stats.log_records_replayed > 0, "tick {ticks}");
        check_recovered(&svc, e, ticks, shards);

        // The reopened log accepts new appends, and the new epoch is
        // immediately time-travel-visible.
        svc.append(
            "caser",
            batch(&[vec![
                Value::str("ex"),
                Value::Int(9_999),
                Value::str("locX"),
            ]]),
        )
        .unwrap();
        let after = svc
            .query_as_of(&QueryRequest::new("norules", SCAN), e + 1)
            .unwrap();
        assert_eq!(
            after.batch.num_rows(),
            oracle_rows(e as usize).len() + 1,
            "tick {ticks}: post-recovery append not visible at epoch {}",
            e + 1
        );
        PointReport {
            ticks,
            boot_crashed,
            acked,
            attempted,
            recovered: Some(e),
        }
    };
    let _ = std::fs::remove_dir_all(&dir);
    report
}

/// Contract checks on a recovered service at global epoch `e`: the live
/// data equals the oracle prefix, rules survived, and every earlier epoch
/// is still queryable `AS OF`.
fn check_recovered(svc: &QueryService, e: u64, ticks: u64, shards: Option<usize>) {
    let want = oracle_rows(e as usize);
    let live: Vec<Vec<Value>> = (0..svc.shard_count())
        .flat_map(|i| rows_of(svc.shard_snapshot(i).catalog.get("caser").unwrap().data()))
        .collect();
    if shards.is_none() {
        // Unsharded recovery must reproduce the exact byte sequence of
        // the oracle prefix — same rows, same order.
        assert_eq!(
            live, want,
            "tick {ticks}: recovered prefix not byte-identical"
        );
    } else {
        assert_eq!(
            canonical(live),
            canonical(want.clone()),
            "tick {ticks}: recovered union diverged from the oracle prefix"
        );
    }

    // Cleansing rules were recovered from the log, not re-declared.
    let got = svc.execute(QueryRequest::new("app", SCAN)).unwrap();
    assert_eq!(
        canonical(rows_of(&got.batch)),
        canonical(cleansed_oracle(e as usize)),
        "tick {ticks}: cleansed answer diverged after recovery"
    );

    // Time travel across the whole recovered history — from the segments
    // recovery already decoded: no file is decoded twice.
    let loaded = svc.durable_stats().unwrap().segments_loaded_lazy;
    for past in 0..=e {
        let resp = svc
            .query_as_of(&QueryRequest::new("norules", SCAN), past)
            .unwrap();
        assert_eq!(
            canonical(rows_of(&resp.batch)),
            canonical(oracle_rows(past as usize)),
            "tick {ticks}: AS OF epoch {past} diverged from the oracle prefix"
        );
    }
    assert_eq!(
        svc.durable_stats().unwrap().segments_loaded_lazy,
        loaded,
        "tick {ticks}: an AS OF query after recovery decoded a segment file again"
    );
    // One past the durable epoch must be a typed refusal, not data.
    let beyond = svc.query_as_of(&QueryRequest::new("norules", SCAN), e + 1);
    assert!(
        beyond.is_err(),
        "tick {ticks}: epoch {} should not exist yet",
        e + 1
    );
}

/// Shared battery driver: sweep the crash points, check the contract at
/// each, assert the sweep actually exercised every outcome class, and
/// drop the per-point report where CI can archive it.
fn run_battery(tag: &str, shards: Option<usize>, first_window_stride: usize) {
    let checkpoints = measure(tag, shards);
    let points = sweep_points(&checkpoints, first_window_stride);
    assert!(
        points.len() >= 48,
        "{tag}: {} crash points is too sparse a battery (checkpoints {checkpoints:?})",
        points.len()
    );

    let reports: Vec<PointReport> = points
        .iter()
        .map(|&n| crash_point(tag, n, shards))
        .collect();
    write_artifact(tag, &reports);

    // The sweep must have produced bootstrap crashes, first-append
    // crashes, late crashes, and the clean control — otherwise the tick
    // accounting regressed and the battery is shadow-boxing.
    assert!(
        reports.iter().any(|r| r.boot_crashed),
        "{tag}: no crash point landed inside bootstrap"
    );
    assert!(
        reports
            .iter()
            .any(|r| !r.boot_crashed && r.acked == 0 && r.attempted == 1),
        "{tag}: no crash point landed inside the first append"
    );
    assert!(
        reports.iter().any(|r| r.recovered == Some(APPENDS as u64)),
        "{tag}: the control point should recover the full history"
    );
    let distinct: std::collections::BTreeSet<u64> =
        reports.iter().filter_map(|r| r.recovered).collect();
    assert!(
        distinct.len() >= 3,
        "{tag}: recovered epochs {distinct:?} span too little of the history"
    );
}

/// Unsharded battery: every tick of the first append plus strided
/// bootstrap / tail coverage, byte-identical prefix recovery at each.
#[test]
fn crash_battery_recovers_longest_durable_prefix() {
    run_battery("unsharded", None, 1);
}

/// Two-shard battery: the same contract over per-shard logs bound by the
/// manifest's global commits, with the shard union as the oracle. The
/// first-append window is strided — the unsharded battery already visits
/// every byte boundary, this one adds the cross-log commit orderings.
#[test]
fn sharded_crash_battery_recovers_consistent_union() {
    run_battery("sharded", Some(2), 7);
}
