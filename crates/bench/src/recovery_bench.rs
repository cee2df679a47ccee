//! `repro recovery` — durable-log recovery and time travel.
//!
//! Not part of the paper (the 2006 evaluation has no durability story);
//! this figure characterizes the durable segment log: bootstrap a durable
//! service from the generated workload, publish `appends` epochs, drop the
//! process state, and recover from the logs alone. Reported per append
//! count: the replayed record count, epochs restored, segment files
//! decoded lazily (recovery + one `AS OF` midpoint query), and a cold
//! zone-map scan straight off the recovered log showing how many segment
//! files a selective predicate opens versus refutes without a read.
//!
//! Everything except `recover_ms` is deterministic for a fixed
//! (scale, seed, appends), so `bench-gate` watches the work counters.

use crate::harness::setup;
use dc_core::durable::{recover_shard, SegmentStore};
use dc_json::Json;
use dc_log::LogDir;
use dc_relational::batch::Batch;
use dc_relational::prelude::Value;
use dc_service::{DurableOptions, QueryRequest, QueryService, ServiceConfig, ShardConfig};
use dc_storage::{ZoneBound, ZonePredicate};
use std::path::Path;
use std::time::Instant;

/// One measured point of the recovery figure.
#[derive(Debug, Clone)]
pub struct RecoveryBenchRow {
    /// Epochs published after bootstrap (each one global append).
    pub appends: u64,
    /// Global epochs restored by recovery (bootstrap + appends).
    pub epochs_recovered: u64,
    /// Log records replayed across the manifest and the shard log.
    pub log_records_replayed: u64,
    /// Segment files decoded by recovery plus the midpoint `AS OF` query.
    pub segments_loaded_lazy: u64,
    /// caser segment files a cold `rtime >= p90` scan actually opened.
    pub segments_opened_cold: u64,
    /// caser segment files that scan refuted from logged zone maps alone.
    pub segments_pruned_unopened: u64,
    /// Rows of the cleansed midpoint `AS OF` query (answer stability).
    pub as_of_rows: u64,
    /// Wall clock of `QueryService::recover` (machine-dependent).
    pub recover_ms: f64,
}

impl RecoveryBenchRow {
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("appends", self.appends)
            .set("epochs_recovered", self.epochs_recovered)
            .set("log_records_replayed", self.log_records_replayed)
            .set("segments_loaded_lazy", self.segments_loaded_lazy)
            .set("segments_opened_cold", self.segments_opened_cold)
            .set("segments_pruned_unopened", self.segments_pruned_unopened)
            .set("as_of_rows", self.as_of_rows)
            .set("recover_ms", Json::Num(self.recover_ms))
    }

    pub fn render(&self) -> String {
        format!(
            "appends={:>2}  recovered {:>2} epochs from {:>4} records in {:>7.1}ms  \
             loaded={:>4} cold_open={:>3} pruned={:>3} as_of_rows={:>5}",
            self.appends,
            self.epochs_recovered,
            self.log_records_replayed,
            self.recover_ms,
            self.segments_loaded_lazy,
            self.segments_opened_cold,
            self.segments_pruned_unopened,
            self.as_of_rows
        )
    }
}

/// The recovery figure: one durable bootstrap + crash-free restart per
/// append count, with scratch directories rooted under `scratch`.
pub fn recovery_figure(
    scale: usize,
    seed: u64,
    appends_list: &[usize],
    scratch: &Path,
) -> Vec<RecoveryBenchRow> {
    appends_list
        .iter()
        .map(|&appends| run_point(scale, seed, appends, scratch))
        .collect()
}

fn run_point(scale: usize, seed: u64, appends: usize, scratch: &Path) -> RecoveryBenchRow {
    let dir = scratch.join(format!("recovery-s{scale}-a{appends}"));
    let _ = std::fs::remove_dir_all(&dir);
    let env = setup(scale, 10.0, seed);
    let t_low = env.dataset.rtime_quantile(0.10);
    let t_high = env.dataset.rtime_quantile(0.90);
    let q1 = env.dataset.q1(t_low);

    // A small schema-consistent batch for the append epochs, cut from the
    // generated reads themselves.
    let seed_batch = {
        let table = env.system.catalog().get("caser").expect("caser exists");
        let data = table.data();
        let rows: Vec<Vec<_>> = (0..5.min(data.num_rows())).map(|i| data.row(i)).collect();
        Batch::from_rows(data.schema().clone(), &rows).expect("append batch")
    };

    let config = || ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    };
    let svc = QueryService::start_sharded_durable(
        env.system,
        config(),
        ShardConfig::new(1, ""),
        DurableOptions::new(&dir),
    )
    .expect("durable service");
    for _ in 0..appends {
        svc.append("caser", seed_batch.clone()).expect("append");
    }
    drop(svc);

    let start = Instant::now();
    let svc = QueryService::recover(DurableOptions::new(&dir), config()).expect("recover");
    let recover_ms = start.elapsed().as_secs_f64() * 1e3;

    // Time travel to the midpoint epoch materializes one historical
    // snapshot on top of the live catalog recovery already loaded.
    let mid = appends as u64 / 2;
    let resp = svc
        .query_as_of(&QueryRequest::new("rules-3", &q1), mid)
        .expect("as-of query");
    let as_of_rows = resp.batch.num_rows() as u64;
    let stats = svc.durable_stats().expect("durable stats");
    drop(svc);

    // Cold zone-map scan straight off the recovered shard log: only the
    // caser segment files whose logged zone maps admit `rtime >= p90`
    // are opened; the rest are refuted without a read.
    let shard = LogDir::create(dir.join("shard-0")).expect("shard dir");
    let rec = recover_shard(&shard).expect("shard recovery");
    let caser: Vec<_> = rec
        .segments
        .iter()
        .filter(|e| e.table == "caser")
        .cloned()
        .collect();
    let store = SegmentStore::new(shard);
    let pred = ZonePredicate::range(
        1,
        ZoneBound::Inclusive(Value::Int(t_high)),
        ZoneBound::Unbounded,
    );
    let opened = store.open_pruned(&caser, &[pred]).expect("pruned open");

    let row = RecoveryBenchRow {
        appends: appends as u64,
        epochs_recovered: stats.epochs_recovered,
        log_records_replayed: stats.log_records_replayed,
        segments_loaded_lazy: stats.segments_loaded_lazy,
        segments_opened_cold: opened.len() as u64,
        segments_pruned_unopened: store.segments_pruned(),
        as_of_rows,
        recover_ms,
    };
    let _ = std::fs::remove_dir_all(&dir);
    row
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_counters_are_deterministic_and_prune() {
        let scratch = std::env::temp_dir().join(format!("dc-bench-rec-{}", std::process::id()));
        let a = recovery_figure(2, 7, &[2, 4], &scratch);
        let b = recovery_figure(2, 7, &[2, 4], &scratch);
        let _ = std::fs::remove_dir_all(&scratch);
        assert_eq!(a.len(), 2);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.appends + 1, x.epochs_recovered);
            assert_eq!(x.epochs_recovered, y.epochs_recovered);
            assert_eq!(x.log_records_replayed, y.log_records_replayed);
            assert_eq!(x.segments_loaded_lazy, y.segments_loaded_lazy);
            assert_eq!(x.segments_opened_cold, y.segments_opened_cold);
            assert_eq!(x.segments_pruned_unopened, y.segments_pruned_unopened);
            assert_eq!(x.as_of_rows, y.as_of_rows);
        }
        // More appends replay more records, and the selective cold scan
        // must refute at least one file from zone maps alone.
        assert!(a[1].log_records_replayed > a[0].log_records_replayed);
        assert!(a.iter().all(|r| r.segments_pruned_unopened > 0));
    }
}
