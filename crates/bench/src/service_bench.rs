//! `repro service` — throughput of the concurrent snapshot query service.
//!
//! Not part of the paper (the 2006 evaluation is single-client); this
//! figure characterizes the PR-5 service layer: K client threads issuing
//! cleansed queries through [`QueryService`] while one ingest thread
//! publishes append epochs. Reported per worker count: wall clock,
//! queries/second, mean queue wait and execution time, and the final
//! epoch — demonstrating that readers never block on the writer.
//!
//! Wall-clock based and machine-dependent, so this figure is **not** in
//! the `all` list and is never gated by `bench-gate`.

use crate::harness::setup;
use dc_json::Json;
use dc_relational::batch::Batch;
use dc_service::{QueryRequest, QueryService, ServiceConfig, ShardConfig};
use std::sync::Arc;
use std::time::Instant;

/// One measured point of the service figure.
#[derive(Debug, Clone)]
pub struct ServiceBenchRow {
    /// Worker-pool size (also the number of client threads).
    pub workers: usize,
    pub queries: u64,
    pub appends: u64,
    /// Queries answered by coalescing onto an identical concurrent
    /// execution (0 at one worker: coalescing needs overlap).
    pub coalesced: u64,
    pub wall_ms: f64,
    pub queries_per_sec: f64,
    pub mean_queue_wait_us: f64,
    pub mean_exec_us: f64,
    pub final_epoch: u64,
}

impl ServiceBenchRow {
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("workers", self.workers)
            .set("queries", self.queries)
            .set("appends", self.appends)
            .set("coalesced", self.coalesced)
            .set("wall_ms", Json::Num(self.wall_ms))
            .set("queries_per_sec", Json::Num(self.queries_per_sec))
            .set("mean_queue_wait_us", Json::Num(self.mean_queue_wait_us))
            .set("mean_exec_us", Json::Num(self.mean_exec_us))
            .set("final_epoch", self.final_epoch)
    }

    pub fn render(&self) -> String {
        format!(
            "workers={:>2}  {:>4} queries + {:>2} appends in {:>8.1}ms  \
             ({:>7.1} q/s, {:>3} coalesced, queue {:>7.1}us, exec {:>8.1}us, epoch {})",
            self.workers,
            self.queries,
            self.appends,
            self.wall_ms,
            self.queries_per_sec,
            self.coalesced,
            self.mean_queue_wait_us,
            self.mean_exec_us,
            self.final_epoch
        )
    }
}

/// Measure the service at each worker count: `queries_per_client` cleansed
/// queries per client thread under the 3-rule application, with one ingest
/// thread publishing `appends` epochs concurrently.
pub fn service_throughput(scale: usize, seed: u64, workers_list: &[usize]) -> Vec<ServiceBenchRow> {
    let mut rows = Vec::new();
    for &workers in workers_list {
        rows.push(run_point(scale, seed, workers, 16, 8));
    }
    rows
}

fn run_point(
    scale: usize,
    seed: u64,
    workers: usize,
    queries_per_client: usize,
    appends: usize,
) -> ServiceBenchRow {
    let env = setup(scale, 10.0, seed);
    let t_low = env.dataset.rtime_quantile(0.10);
    let t_high = env.dataset.rtime_quantile(0.90);
    let pool = [env.dataset.q1(t_low), env.dataset.q2(t_high, 2)];

    // A small schema-consistent batch for the ingest thread, cut from the
    // generated reads themselves.
    let seed_batch = {
        let table = env.system.catalog().get("caser").expect("caser exists");
        let data = table.data();
        let rows: Vec<Vec<_>> = (0..5.min(data.num_rows())).map(|i| data.row(i)).collect();
        Batch::from_rows(data.schema().clone(), &rows).expect("append batch")
    };

    let svc = Arc::new(QueryService::start(
        env.system,
        ServiceConfig {
            workers,
            queue_capacity: 2 * workers + 4,
            ..ServiceConfig::default()
        },
    ));

    let start = Instant::now();
    let appender = {
        let svc = Arc::clone(&svc);
        let batch = seed_batch;
        std::thread::spawn(move || {
            for _ in 0..appends {
                svc.append("caser", batch.clone()).expect("append");
                std::thread::yield_now();
            }
        })
    };
    let clients: Vec<_> = (0..workers)
        .map(|c| {
            let svc = Arc::clone(&svc);
            let pool: Vec<String> = pool.to_vec();
            std::thread::spawn(move || {
                let mut wait_us = 0.0f64;
                let mut exec_us = 0.0f64;
                for q in 0..queries_per_client {
                    let sql = &pool[(c + q) % pool.len()];
                    let resp = svc
                        .execute(QueryRequest::new("rules-3", sql))
                        .expect("service query");
                    wait_us += resp.service.queue_wait.as_secs_f64() * 1e6;
                    exec_us += resp.service.exec_time.as_secs_f64() * 1e6;
                }
                (wait_us, exec_us)
            })
        })
        .collect();

    appender.join().expect("appender");
    let mut wait_us = 0.0;
    let mut exec_us = 0.0;
    for c in clients {
        let (w, e) = c.join().expect("client");
        wait_us += w;
        exec_us += e;
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    let queries = (workers * queries_per_client) as u64;
    ServiceBenchRow {
        workers,
        queries,
        appends: appends as u64,
        coalesced: svc.counters().coalesced,
        wall_ms,
        queries_per_sec: queries as f64 / (wall_ms / 1e3),
        mean_queue_wait_us: wait_us / queries as f64,
        mean_exec_us: exec_us / queries as f64,
        final_epoch: svc.epoch(),
    }
}

/// One row of the deterministic `sharded` figure: the same cleansed query
/// executed through the scatter-gather coordinator at one shard count.
/// Work counters are deterministic for a fixed (scale, seed, shards) — the
/// hash partitioner is process-stable and shard execution is exhaustive —
/// so `bench-gate` diffs them exactly; only `millis` is wall-clock.
#[derive(Debug, Clone)]
pub struct ShardedScatterRow {
    pub shards: usize,
    /// Query label (`q1`, `q2`, `point`).
    pub variant: &'static str,
    pub result_rows: u64,
    /// Partial rows the coordinator merged from shard executors
    /// (0 at one shard only when the query never scatters).
    pub shard_rows_merged: u64,
    pub segments_scanned: u64,
    pub sort_comparisons: u64,
    /// Hash-kernel work across shard executors plus the coordinator's
    /// partial-aggregate / DISTINCT merge.
    pub hash_ops: u64,
    pub millis: f64,
}

impl ShardedScatterRow {
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("shards", self.shards)
            .set("variant", self.variant)
            .set("result_rows", self.result_rows)
            .set("shard_rows_merged", self.shard_rows_merged)
            .set("segments_scanned", self.segments_scanned)
            .set("sort_comparisons", self.sort_comparisons)
            .set("hash_ops", self.hash_ops)
            .set("millis", Json::Num(self.millis))
    }

    pub fn render(&self) -> String {
        format!(
            "shards={}  {:<3} {:>8.1}ms  rows={:>6} merged={:>6} segments={:>4} sort_cmp={:>8} hash_ops={:>8}",
            self.shards,
            self.variant,
            self.millis,
            self.result_rows,
            self.shard_rows_merged,
            self.segments_scanned,
            self.sort_comparisons,
            self.hash_ops
        )
    }
}

/// The deterministic sharded figure: run the Figure-7 query pair and a
/// single-EPC trace through a scatter-gather service at each shard count
/// (one worker, no concurrent ingest, caches off) and record the
/// coordinator's work counters.
pub fn sharded_scatter(scale: usize, seed: u64, shards_list: &[usize]) -> Vec<ShardedScatterRow> {
    let mut rows = Vec::new();
    for &shards in shards_list {
        let env = setup(scale, 10.0, seed);
        // q2 reads from the 10 % rtime quantile too: from the 90 % one it
        // returns no rows at `--scale 2`, and the gated counters would
        // never see its gather merge any.
        let t_low = env.dataset.rtime_quantile(0.10);
        // `point` is a single-EPC pedigree trace: pinned to one cluster key,
        // it runs on that key's owner alone and merges no partial rows.
        let pool = [
            ("q1", env.dataset.q1(t_low)),
            ("q2", env.dataset.q2(t_low, 2)),
            (
                "point",
                format!(
                    "select epc, rtime, biz_loc, biz_step from caser \
                     where epc = '{}' order by rtime",
                    env.dataset.case_epc_urn(0)
                ),
            ),
        ];
        let svc = QueryService::start_sharded(
            env.system,
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
            ShardConfig::new(shards, "epc"),
        )
        .expect("sharded service");
        for (variant, sql) in &pool {
            let start = Instant::now();
            let resp = svc
                .execute(QueryRequest::new("rules-3", sql))
                .expect("sharded query");
            let stats = &resp.report.stats;
            rows.push(ShardedScatterRow {
                shards,
                variant,
                result_rows: resp.batch.num_rows() as u64,
                shard_rows_merged: stats.shard_rows_merged,
                segments_scanned: stats.segments_scanned,
                sort_comparisons: stats.sort_comparisons,
                hash_ops: stats.hash_ops,
                millis: start.elapsed().as_secs_f64() * 1e3,
            });
        }
    }
    rows
}

/// One point of the wall-clock shard-scaling sweep.
#[derive(Debug, Clone)]
pub struct ShardScalingRow {
    pub shards: usize,
    pub queries: u64,
    pub wall_ms: f64,
    pub queries_per_sec: f64,
}

impl ShardScalingRow {
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("shards", self.shards)
            .set("queries", self.queries)
            .set("wall_ms", Json::Num(self.wall_ms))
            .set("queries_per_sec", Json::Num(self.queries_per_sec))
    }

    pub fn render(&self) -> String {
        format!(
            "shards={}  {:>4} queries in {:>8.1}ms  ({:>7.1} q/s)",
            self.shards, self.queries, self.wall_ms, self.queries_per_sec
        )
    }
}

/// Wall-clock q/s at each shard count: one client issuing `queries`
/// cleansed queries serially through the scatter-gather service (caches
/// off, no concurrent ingest), so throughput isolates exactly the shard
/// executors' parallel speedup. Machine-dependent and therefore never
/// gated by counters — the CI smoke run asserts a scaling *ratio*, which
/// only needs cores, not a calibrated machine.
///
/// The pool is deliberately **cleansing-dominated** (window work over the
/// partitioned fact table, no dimension joins): cleansing cost splits with
/// the shards, while a broadcast join's hash build repeats per shard —
/// queries like figure 7's q1/q2 measure that replication cost, not shard
/// scaling (the deterministic `sharded` figure tracks them instead).
pub fn shard_scaling(
    scale: usize,
    seed: u64,
    shards_list: &[usize],
    queries: usize,
) -> Vec<ShardScalingRow> {
    let mut rows = Vec::new();
    for &shards in shards_list {
        let env = setup(scale, 10.0, seed);
        let pool = [
            "select epc, count(*) as n, max(rtime) as last_seen from caser group by epc"
                .to_string(),
            "select biz_loc, count(*) as n from caser where rtime >= 0 \
             group by biz_loc order by biz_loc"
                .to_string(),
        ];
        let svc = QueryService::start_sharded(
            env.system,
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
            ShardConfig::new(shards, "epc"),
        )
        .expect("sharded service");
        let start = Instant::now();
        for q in 0..queries {
            svc.execute(QueryRequest::new("rules-3", &pool[q % pool.len()]))
                .expect("sharded query");
        }
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        rows.push(ShardScalingRow {
            shards,
            queries: queries as u64,
            wall_ms,
            queries_per_sec: queries as f64 / (wall_ms / 1e3),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_point_completes_and_publishes_all_epochs() {
        let row = run_point(2, 7, 2, 3, 4);
        assert_eq!(row.queries, 6);
        assert_eq!(row.final_epoch, 4);
        assert!(row.queries_per_sec > 0.0);
    }

    #[test]
    fn sharded_scatter_counters_are_deterministic_and_result_stable() {
        let a = sharded_scatter(2, 7, &[1, 2]);
        let b = sharded_scatter(2, 7, &[1, 2]);
        assert_eq!(a.len(), 6);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.result_rows, y.result_rows);
            assert_eq!(x.shard_rows_merged, y.shard_rows_merged);
            assert_eq!(x.segments_scanned, y.segments_scanned);
            assert_eq!(x.sort_comparisons, y.sort_comparisons);
        }
        // Shard count never changes the answer.
        for (x, y) in a.iter().take(3).zip(a.iter().skip(3)) {
            assert_eq!(x.variant, y.variant);
            assert_eq!(x.result_rows, y.result_rows);
        }
        // The scattered run merged partial rows; the gate watches this.
        assert!(a.iter().skip(3).any(|r| r.shard_rows_merged > 0));
        // The pinned trace found rows and merged none at any shard count.
        for r in a.iter().filter(|r| r.variant == "point") {
            assert!(r.result_rows > 0);
            assert_eq!(r.shard_rows_merged, 0);
        }
    }

    #[test]
    fn shard_scaling_produces_throughput_points() {
        let rows = shard_scaling(2, 7, &[1, 2], 2);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.queries_per_sec > 0.0));
    }
}
