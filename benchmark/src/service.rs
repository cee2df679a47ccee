//! The two workloads that go through `QueryService`.
//!
//! * `service_mixed`: a 2-shard, 2-worker scatter-gather service with the
//!   cleansed-sequence cache on; 2 closed-loop clients issue short queries
//!   — nine in ten a single-EPC pedigree trace, every 10th the first 20
//!   movements in the last tenth of the time line, every 250th q2 at about 1 %
//!   selectivity — whose parameters are Zipf(1.1)-distributed over a 256-key
//!   pool, and client 0 replaces every 50th op with a non-durable append of
//!   a 64-row suffix batch. Queries take a millisecond or two, so queue
//!   wait, scatter/gather, snapshot publication, coalescing and cache
//!   hits/invalidations decide latency — and reads share the service with
//!   writes, so a read gain that taxes ingest shows.
//! * `ingest_durable`: the same service layer used the other way round — a
//!   2-shard **durable** service with two standing subscriptions (one
//!   scoped-mode, one aggregate-mode); one client appends suffix batches
//!   (write-ahead log before publish) and every 8th op issues one q1.
//!   Partition → stage → encode → WAL → fsync → publish → stream maintenance
//!   do the work, the query engine little. Afterwards the service is dropped
//!   and `QueryService::recover` is timed to its first reply.

use crate::env::{build_base, dir_bytes, rng_for, unit_f64, BaseEnv, SuffixBatches, Zipf};
use crate::harness::{closed_loop, is_traced, repeat_set_up, Kind, Limit, RunConfig, Sample};
use crate::layers::{replay_front_end, rules_compile_us, LayerAcc};
use crate::report::Finished;
use crate::span::Tracer;
use dc_core::durable::encode_record;
use dc_core::durable::{materialize_catalog, recover_shard, LogRecord, SegmentStore, ShardLog};
use dc_core::Strategy;
use dc_json::Json;
use dc_log::{FailPoint, LogDir, LogWriter};
use dc_relational::batch::Batch;
use dc_relational::persist::encode_segment_file;
use dc_relational::value::Value;
use dc_rfidgen::Dataset;
use dc_service::{
    split_batch, DurableOptions, HashPartitioner, QueryRequest, QueryResponse, QueryService,
    ServiceConfig, ServiceError, ShardConfig, SubscribeOptions, SubscriptionHandle,
};
use rand::{Rng, RngCore};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const SHARDS: usize = 2;
const WORKERS: usize = 2;
const CLEANSE_CACHE_ENTRIES: usize = 4096;
const CLUSTER_KEY: &str = "epc";
const READS: &str = "caser";
const APP: &str = "rules-3";

/// Traced and untraced ops alternate in blocks of 16. The op kinds recur
/// every 10, 50 and 250 ops on `service_mixed` and every 8 on
/// `ingest_durable`; against a period of 32 both halves get every kind in
/// proportion.
const TRACE_BLOCK: u64 = 16;

const STREAM_POOL: u64 = 0x9001;
const STREAM_PICK: u64 = 0x91C4;
const STREAM_CHECK: u64 = 0xC4EC;

fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: WORKERS,
        ..ServiceConfig::default()
    }
}

fn shard_config(cache: bool) -> ShardConfig {
    let cfg = ShardConfig::new(SHARDS, CLUSTER_KEY);
    if cache {
        cfg.with_cleanse_cache(CLEANSE_CACHE_ENTRIES)
    } else {
        cfg
    }
}

/// A client op of either service workload.
#[derive(Debug, Clone)]
enum Op {
    Query {
        sql: String,
    },
    /// Append suffix batch number `k`.
    Append {
        k: usize,
    },
}

fn execute(svc: &QueryService, sql: &str) -> Result<QueryResponse, ServiceError> {
    svc.execute(QueryRequest::new(APP, sql))
}

// ---------------------------------------------------------------------------
// Append replay (traced runs)
// ---------------------------------------------------------------------------

/// Scratch shard logs + manifest a traced append is replayed onto, call by
/// call as `DurableState::commit_append` makes them.
struct ScratchLogs {
    shards: Vec<ShardLog>,
    manifest: LogWriter,
    global: u64,
}

impl ScratchLogs {
    fn create(root: &Path) -> Self {
        let dir = LogDir::create(root).expect("scratch log root");
        let shards = (0..SHARDS)
            .map(|i| {
                let shard = dir
                    .subdir(&format!("shard-{i}"))
                    .expect("scratch shard dir");
                ShardLog::create(shard).expect("scratch shard log")
            })
            .collect();
        let manifest = LogWriter::open(&dir, "MANIFEST.log").expect("scratch manifest");
        ScratchLogs {
            shards,
            manifest,
            global: 0,
        }
    }
}

/// Twin services every append of a traced run is also applied to, so the
/// replayed stages see tables of the same size as the measured service.
struct AppendReplay {
    /// Non-durable, no subscribers: partition + stage + publish only.
    plain: QueryService,
    /// Non-durable with the same two subscriptions: adds stream maintenance.
    with_subs: Option<(QueryService, Vec<SubscriptionHandle>)>,
    scratch: Option<ScratchLogs>,
}

fn drain(handles: &[SubscriptionHandle], acc: Option<&mut LayerAcc>) {
    let mut acc = acc;
    for h in handles {
        while let Ok(Some(cs)) = h.try_next() {
            if let Some(acc) = acc.as_deref_mut() {
                if acc.counting {
                    acc.recleansed_rows += cs.stats.exec.maintenance_scoped_rows;
                    acc.delta_rows += cs.delta_rows() as u64;
                    acc.fallbacks += cs.stats.fallback as u64;
                }
            }
        }
    }
}

/// A traced append as the measured service executed it.
struct TracedAppend<'a> {
    op_id: u64,
    batch: &'a Batch,
    /// Nanoseconds the measured service took.
    real_ns: u64,
    /// Its per-shard segment counts before the append.
    segments_before: &'a [usize],
}

impl AppendReplay {
    /// Apply `batch` to the twins without measuring (an untraced append of a
    /// traced run).
    fn follow(&self, batch: &Batch) {
        self.plain
            .append(READS, batch.clone())
            .expect("twin append");
        if let Some((svc, handles)) = &self.with_subs {
            svc.append(READS, batch.clone()).expect("twin append");
            drain(handles, None);
        }
    }

    /// Replay one traced append stage by stage; `svc` is the measured
    /// service after the append.
    fn replay(
        &mut self,
        tracer: &mut Tracer,
        acc: &mut LayerAcc,
        svc: &QueryService,
        done: &TracedAppend<'_>,
    ) {
        let TracedAppend {
            op_id,
            batch,
            real_ns,
            segments_before,
        } = *done;
        let root = tracer.open(op_id, "append.replay");
        let key_idx = batch
            .schema()
            .index_of_name(CLUSTER_KEY)
            .expect("reads carry the cluster key");
        let (_, partition_ns) = tracer.stage(root, "service.partition", || {
            std::hint::black_box(
                split_batch(batch, key_idx, &HashPartitioner, SHARDS).expect("split"),
            )
        });
        let (outcome, plain_ns) = tracer.stage(root, "service.append_plain", || {
            self.plain
                .append(READS, batch.clone())
                .expect("twin append")
        });
        let mut stages = plain_ns;
        acc.partition_ns.push(partition_ns);
        acc.publish_ns.push(plain_ns.saturating_sub(partition_ns));
        if let Some((twin, handles)) = &self.with_subs {
            let ((), subs_ns) = tracer.stage(root, "service.append_with_subscriptions", || {
                twin.append(READS, batch.clone()).expect("twin append");
                drain(handles, None);
            });
            let maintain = subs_ns.saturating_sub(plain_ns);
            acc.maintain_ns.push(maintain);
            stages += maintain;
        }
        if let Some(scratch) = &mut self.scratch {
            let (mut encode, mut write, mut fsync) = (0u64, 0u64, 0u64);
            for &shard in &outcome.touched_shards {
                let snap = svc.shard_snapshot(shard);
                let table = snap.catalog.get(READS).expect("reads table");
                let prev = segments_before[shard];
                let (_, ns) = tracer.stage(root, "core.segment_encode", || {
                    for seg in &table.segments()[prev..] {
                        let rows = table.data().slice(seg.start, seg.rows);
                        std::hint::black_box(encode_segment_file(&rows, seg).expect("encode"));
                    }
                });
                encode += ns;
                let log = &mut scratch.shards[shard];
                let (_, ns) = tracer.stage(root, "log.append", || {
                    log.log_table_append(&table, prev, snap.epoch)
                        .expect("scratch segment append")
                });
                // `log_table_append` encodes the segment again before it
                // writes it; only the writing is the log's.
                write += ns.saturating_sub(encode);
                let (_, ns) = tracer.stage(root, "log.fsync", || {
                    log.commit_epoch(snap.epoch).expect("scratch commit")
                });
                fsync += ns;
            }
            scratch.global += 1;
            let record = encode_record(&LogRecord::GlobalCommit {
                global: scratch.global,
                vector: outcome.epochs.0.clone(),
            });
            let (_, ns) = tracer.stage(root, "log.append", || {
                scratch
                    .manifest
                    .append(&record)
                    .expect("scratch manifest append")
            });
            write += ns;
            let (_, ns) = tracer.stage(root, "log.fsync", || {
                scratch.manifest.sync().expect("scratch manifest sync")
            });
            fsync += ns;
            acc.encode_ns.push(encode);
            acc.log_append_ns.push(write);
            acc.log_fsync_ns.push(fsync);
            stages += encode + write + fsync;
        }
        tracer.close(root);
        acc.replay_stage_ns += stages;
        acc.replay_real_ns += real_ns;
    }
}

/// `(hits, misses, invalidations)` of the shards' cleansed-sequence caches,
/// summed; zeros where the cache is off.
fn cache_counts(svc: &QueryService) -> [u64; 3] {
    (0..svc.shard_count())
        .filter_map(|s| svc.shard_system(s).cleanse_cache_stats())
        .fold([0; 3], |[h, m, i], c| {
            [h + c.hits, m + c.misses, i + c.invalidations]
        })
}

fn segment_counts(svc: &QueryService) -> Vec<usize> {
    (0..svc.shard_count())
        .map(|s| {
            svc.shard_snapshot(s)
                .catalog
                .get(READS)
                .map_or(0, |t| t.segments().len())
        })
        .collect()
}

/// One closed-loop client of a service workload: issues queries and appends
/// against the measured service and, in a traced run, records their spans,
/// folds the replies into the shared accumulators and keeps the replay twins
/// in step.
struct Client<'a> {
    svc: &'a QueryService,
    acc: &'a Mutex<LayerAcc>,
    replay: Option<&'a Mutex<AppendReplay>>,
    tracer: Tracer,
}

impl Client<'_> {
    /// Note whether the op about to run falls inside the counted prefix.
    fn begin_op(&self, counting: bool, traced: bool) {
        let mut acc = self.acc.lock().expect("accumulator lock");
        acc.counting = counting;
        acc.ops_counted += (counting && traced) as u64;
    }

    /// Issue one query. Traced, it runs under an op span whose children are
    /// the reply's own service stats; `replay_front` adds the front-end side
    /// measurement.
    fn query(
        &mut self,
        op_id: u64,
        start_ns: u64,
        sql: &str,
        traced: bool,
        replay_front: bool,
    ) -> Sample {
        let op = traced.then(|| self.tracer.open(op_id, "query"));
        let started = Instant::now();
        let resp = execute(self.svc, sql);
        let mut latency_ns = started.elapsed().as_nanos() as u64;
        if let Some(op) = op {
            latency_ns = self.tracer.close(op);
            let start = self.tracer.spans()[op as usize].start_ns;
            let mut acc = self.acc.lock().expect("accumulator lock");
            if let Ok(r) = &resp {
                let wait = (r.service.queue_wait.as_nanos() as u64).min(latency_ns);
                let exec = (r.service.exec_time.as_nanos() as u64).min(latency_ns - wait);
                self.tracer
                    .push(Some(op), op_id, "service.queue_wait", start, start + wait);
                self.tracer.push(
                    Some(op),
                    op_id,
                    "service.exec",
                    start + wait,
                    start + wait + exec,
                );
                acc.queue_wait_ns.push(wait);
                acc.service_exec_ns.push(exec);
                acc.overhead_ns.push(latency_ns - wait - exec);
                acc.coalesced += r.service.coalesced as u64;
                acc.service_queries += 1;
                acc.stage_ns += wait + exec;
                acc.op_ns += latency_ns;
                acc.record_execution((&r.report).into(), None);
            }
            if replay_front {
                let snap = self.svc.snapshot();
                replay_front_end(&mut acc, self.svc.system(), &snap.catalog, APP, sql)
                    .expect("front-end replay");
            }
        }
        Sample {
            kind: Kind::Query,
            start_ns,
            latency_ns,
            traced,
            ok: resp.is_ok(),
            rows: 0,
        }
    }

    /// Append one batch and, as part of the op, consume the change sets of
    /// `subscriptions` (an unread feed would lag and stop being maintained).
    /// In a traced run the twins follow, and a traced append is replayed.
    fn append(
        &mut self,
        op_id: u64,
        start_ns: u64,
        batch: &Batch,
        traced: bool,
        subscriptions: &[SubscriptionHandle],
    ) -> Sample {
        let before = traced.then(|| segment_counts(self.svc));
        let op = traced.then(|| self.tracer.open(op_id, "append"));
        let started = Instant::now();
        let result = self.svc.append(READS, batch.clone());
        drain(
            subscriptions,
            Some(&mut self.acc.lock().expect("accumulator lock")),
        );
        let mut latency_ns = started.elapsed().as_nanos() as u64;
        if let Some(op) = op {
            latency_ns = self.tracer.close(op);
        }
        if let Some(replay) = self.replay {
            let mut replay = replay.lock().expect("replay lock");
            match before {
                Some(before) => replay.replay(
                    &mut self.tracer,
                    &mut self.acc.lock().expect("accumulator lock"),
                    self.svc,
                    &TracedAppend {
                        op_id,
                        batch,
                        real_ns: latency_ns,
                        segments_before: &before,
                    },
                ),
                None => replay.follow(batch),
            }
        }
        Sample {
            kind: Kind::Append,
            start_ns,
            latency_ns,
            traced,
            ok: result.is_ok(),
            rows: batch.num_rows() as u64,
        }
    }
}

// ---------------------------------------------------------------------------
// service_mixed
// ---------------------------------------------------------------------------

pub mod mixed {
    use super::*;

    pub const SCALE: usize = 8;
    const CLIENTS: usize = 2;
    const APPEND_ROWS: usize = 64;
    /// Client 0 appends instead of querying on every op `i` with
    /// `i % APPEND_EVERY == APPEND_EVERY - 1`.
    const APPEND_EVERY: u64 = 50;
    /// Every op `i` with `i % DASHBOARD_EVERY == DASHBOARD_EVERY - 1` is the
    /// movement feed: one op in ten, so the 95th percentile lies in the
    /// middle of this kind's latencies and not on the edge of another's.
    const DASHBOARD_EVERY: u64 = 10;
    /// Every 250th op of a client is q2, the two clients half a period apart.
    /// q2 cannot be decomposed over shards and runs at the coordinator over a
    /// merged catalog, 40 ms against 1 ms unsharded. At the issue's one in
    /// eight it took nine tenths of the clients' time, and the pedigree
    /// traces — the median op — fell into two latency modes, one beside a
    /// running q2 and one not, with the median on the boundary. At one in 250
    /// q2 takes about a sixth of the time and the traces have one mode.
    const HEAVY_EVERY: u64 = 250;
    const TRACE_KEYS: usize = 224;
    const DASHBOARD_KEYS: usize = 24;
    const HEAVY_KEYS: usize = 8;
    const ZIPF_S: f64 = 1.1;
    /// One full q2 period per client: every kind is warmed.
    const WARMUP_OPS: u64 = HEAVY_EVERY;
    const COUNTED_OPS: u64 = 400;
    const MAX_CHECKS: usize = 16;
    /// Traced queries whose front end is replayed outside the service.
    const FRONT_END_EVERY: u64 = 4;

    /// One kind of query: its parameterized texts and their popularity.
    struct Keys {
        sql: Vec<String>,
        zipf: Zipf,
    }

    impl Keys {
        fn new(sql: Vec<String>) -> Self {
            let zipf = Zipf::new(sql.len(), ZIPF_S);
            Keys { sql, zipf }
        }

        fn pick(&self, rng: &mut rand::rngs::StdRng) -> String {
            self.sql[self.zipf.sample(rng)].clone()
        }
    }

    /// The 256-key parameter pool: 224 tags to trace, 24 feed windows,
    /// 8 (T2, site) pairs.
    struct Pool {
        traces: Keys,
        dashboards: Keys,
        heavies: Keys,
    }

    impl Pool {
        fn new(ds: &Dataset, cases: usize, seed: u64) -> Self {
            let mut rng = rng_for(seed, STREAM_POOL, 0);
            let traces = (0..TRACE_KEYS)
                .map(|_| {
                    let epc = ds.case_epc_urn(rng.gen_range(0..cases));
                    format!(
                        "select epc, rtime, biz_loc, biz_step from caser \
                         where epc = '{epc}' order by rtime"
                    )
                })
                .collect();
            let dashboards = (0..DASHBOARD_KEYS)
                .map(|_| {
                    // The last tenth or so of the generated time line, where
                    // the rewrite picks join-back and the shards answer from
                    // their cleansed-sequence caches (further back it picks
                    // the expanded form, which bypasses them). Appended reads
                    // lie beyond the generated time line, so the window holds
                    // as many rows at the end of a run as at its start — but
                    // an append turns the cached sequences it extends stale.
                    // The order is total over the projected columns: with
                    // ties at the cut, which 20 rows make the limit would be
                    // the engine's choice, and the check could not compare.
                    let from = 0.88 + 0.04 * unit_f64(&mut rng);
                    format!(
                        "select epc, rtime, biz_loc from caser \
                         where rtime >= {} and rtime < {} \
                         order by rtime, epc, biz_loc limit 20",
                        ds.rtime_quantile(from),
                        ds.rtime_quantile(1.0)
                    )
                })
                .collect();
            let heavies = (0..HEAVY_KEYS)
                .map(|_| {
                    let selectivity = 0.01 * (0.5 + unit_f64(&mut rng));
                    ds.q2(
                        ds.rtime_quantile(1.0 - selectivity),
                        rng.gen_range(0..ds.config.num_dcs),
                    )
                })
                .collect();
            Pool {
                traces: Keys::new(traces),
                dashboards: Keys::new(dashboards),
                heavies: Keys::new(heavies),
            }
        }

        /// Op `i` of `client`.
        fn op(&self, seed: u64, client: usize, i: u64) -> Op {
            if client == 0 && i % APPEND_EVERY == APPEND_EVERY - 1 {
                return Op::Append {
                    k: (i / APPEND_EVERY) as usize,
                };
            }
            let mut rng = rng_for(seed, STREAM_PICK + client as u64, i);
            // One short of the period's end, where client 0 appends.
            let heavy_at = HEAVY_EVERY - 2 - client as u64 * (HEAVY_EVERY / CLIENTS as u64);
            let keys = if i % HEAVY_EVERY == heavy_at {
                &self.heavies
            } else if i % DASHBOARD_EVERY == DASHBOARD_EVERY - 1 {
                &self.dashboards
            } else {
                &self.traces
            };
            Op::Query {
                sql: keys.pick(&mut rng),
            }
        }
    }

    struct Env {
        svc: QueryService,
        pool: Pool,
        batches: SuffixBatches,
        generate_s: f64,
        case_reads: usize,
    }

    fn cases_of(base: &BaseEnv) -> usize {
        base.system
            .catalog()
            .get("parent")
            .expect("parent table")
            .num_rows()
    }

    fn start(base: BaseEnv, cache: bool) -> QueryService {
        QueryService::start_sharded(base.system, service_config(), shard_config(cache))
            .expect("sharded service")
    }

    fn set_up(scale: usize, seed: u64) -> Env {
        let base = build_base(scale, seed);
        let pool = Pool::new(&base.dataset, cases_of(&base), seed);
        let batches = SuffixBatches::new(&base.system, APPEND_ROWS, seed);
        let (generate_s, case_reads) = (base.generate_s, base.dataset.case_reads);
        let svc = start(base, true);
        for client in 0..CLIENTS {
            for i in 0..WARMUP_OPS {
                match pool.op(seed, client, i) {
                    Op::Query { sql } => drop(execute(&svc, &sql).expect("warm-up query")),
                    Op::Append { k } => {
                        drop(svc.append(READS, batches.batch(k)).expect("warm-up append"))
                    }
                }
            }
        }
        Env {
            svc,
            pool,
            batches,
            generate_s,
            case_reads,
        }
    }

    pub fn run(cfg: &RunConfig) -> Finished {
        let scale = cfg.scale.unwrap_or(SCALE);
        let (env, setup_s) = repeat_set_up(cfg.trace, || set_up(scale, cfg.seed));
        let warmup_appends = (WARMUP_OPS / APPEND_EVERY) as usize;

        let acc = Mutex::new(LayerAcc {
            counting: true,
            generate_s: env.generate_s,
            ..LayerAcc::default()
        });
        let replay = cfg.trace.then(|| {
            // The twin takes the warm-up appends too, to start level.
            let base = build_base(scale, cfg.seed);
            acc.lock().expect("accumulator lock").rules_compile_us =
                rules_compile_us(&base.dataset.benchmark_rules(5));
            let plain = start(base, false);
            for k in 0..warmup_appends {
                plain
                    .append(READS, env.batches.batch(k))
                    .expect("twin warm-up append");
            }
            Mutex::new(AppendReplay {
                plain,
                with_subs: None,
                scratch: None,
            })
        });

        let cache_before = cache_counts(&env.svc);
        let epoch = Instant::now();
        let per_client_limit = match cfg.limit {
            Limit::Ops(n) => Limit::Ops(n.div_ceil(CLIENTS as u64)),
            seconds => seconds,
        };
        type ClientResult = (Vec<Sample>, Tracer, Vec<String>, usize);
        let run_client = |client: usize| -> ClientResult {
            let mut me = Client {
                svc: &env.svc,
                acc: &acc,
                replay: replay.as_ref(),
                tracer: Tracer::new(epoch),
            };
            let mut sampled = Vec::new();
            let mut appended = 0;
            let samples = closed_loop(epoch, per_client_limit, WARMUP_OPS, |i, start_ns| {
                let traced = is_traced(cfg.trace, i, TRACE_BLOCK);
                let op_id = i * CLIENTS as u64 + client as u64;
                me.begin_op(i < WARMUP_OPS + COUNTED_OPS, traced);
                match env.pool.op(cfg.seed, client, i) {
                    Op::Query { sql } => {
                        let sample =
                            me.query(op_id, start_ns, &sql, traced, i % FRONT_END_EVERY == 0);
                        // A seeded 1-in-16, and each client's first query so
                        // short runs check too.
                        if sampled.is_empty()
                            || rng_for(cfg.seed, STREAM_CHECK + client as u64, i)
                                .next_u64()
                                .is_multiple_of(16)
                        {
                            sampled.push(sql);
                        }
                        sample
                    }
                    Op::Append { k } => {
                        let sample = me.append(op_id, start_ns, &env.batches.batch(k), traced, &[]);
                        appended += sample.ok as usize;
                        sample
                    }
                }
            });
            (samples, me.tracer, sampled, appended)
        };
        let results: Vec<ClientResult> = std::thread::scope(|scope| {
            let run_client = &run_client;
            let clients: Vec<_> = (0..CLIENTS)
                .map(|client| scope.spawn(move || run_client(client)))
                .collect();
            clients
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let wall_s = epoch.elapsed().as_secs_f64();

        let mut samples = Vec::new();
        let mut tracer = Tracer::new(epoch);
        let mut sampled = Vec::new();
        let mut appends_done = warmup_appends;
        for (s, t, q, a) in results {
            samples.extend(s);
            tracer.absorb(t);
            sampled.extend(q);
            appends_done += a;
        }
        let mut acc = acc.into_inner().expect("accumulator lock");
        acc.rejected = env.svc.counters().rejected;
        let cache_after = cache_counts(&env.svc);
        acc.cache_hits = cache_after[0] - cache_before[0];
        acc.cache_misses = cache_after[1] - cache_before[1];
        acc.cache_invalidations = cache_after[2] - cache_before[2];

        // Re-issue the sampled queries at the final epoch, through the
        // service and through one unsharded system over the same rows (the
        // generated base plus every appended batch, in order); the unsharded
        // side runs the naive rewrite, Q over Φ_C(R).
        let reference = build_base(scale, cfg.seed);
        for k in 0..appends_done {
            reference
                .system
                .catalog()
                .append(READS, env.batches.batch(k))
                .expect("reference append");
        }
        let stride = sampled.len().div_ceil(MAX_CHECKS).max(1);
        let mut checks = 0;
        let mut check_failures = 0;
        for sql in sampled.iter().step_by(stride) {
            let served = execute(&env.svc, sql).map(|r| r.batch.sorted_rows()).ok();
            let expected = reference
                .system
                .query_with_strategy(APP, sql, Strategy::Naive)
                .map(|(b, _)| b.sorted_rows())
                .ok();
            checks += 1;
            if served.is_none() || served != expected {
                check_failures += 1;
                eprintln!("check failed: service reply differs from the unsharded system: {sql}");
            }
        }

        let counters = env.svc.counters();
        let facts = Json::obj()
            .set("scale", scale)
            .set("case_reads", env.case_reads)
            .set(
                "entry_point",
                "QueryService::start_sharded, execute / append",
            )
            .set("shards", SHARDS)
            .set("workers", WORKERS)
            .set("clients", CLIENTS)
            .set("cleanse_cache_entries", CLEANSE_CACHE_ENTRIES)
            .set("key_pool", TRACE_KEYS + DASHBOARD_KEYS + HEAVY_KEYS)
            .set("zipf_s", Json::Num(ZIPF_S))
            .set("append_rows", APPEND_ROWS)
            .set("warmup_ops_per_client", WARMUP_OPS)
            .set("appends_acknowledged", appends_done)
            .set("coalesced", counters.coalesced)
            .set("rejected", counters.rejected)
            .set("sampled_replies", sampled.len())
            .set("limit", cfg.limit.to_string());
        Finished {
            samples,
            wall_s,
            clients: CLIENTS,
            setup_s,
            checks,
            check_failures,
            recover_s: Vec::new(),
            acc,
            tracer: cfg.trace.then_some(tracer),
            facts,
        }
    }
}

// ---------------------------------------------------------------------------
// ingest_durable
// ---------------------------------------------------------------------------

pub mod ingest {
    use super::*;

    /// The issue asked for 256-row batches. An append costs time linear in
    /// the table it extends (whole-table concatenation, statistics and index
    /// extension, and a maintenance pass over the touched sequences), hardly
    /// any in the batch, so a run appends as many batches whatever their
    /// size — and with 256 or 64 rows each the table grew three- to six-fold
    /// during a run: latency climbed with it, and the median depended on how
    /// far the run got. 16-row batches double the table at most, and a 20 s
    /// run completes about 850 of them.
    pub const SCALE: usize = 8;
    const APPEND_ROWS: usize = 16;
    /// Op `i` is a query when `i % QUERY_EVERY == QUERY_EVERY - 1`.
    const QUERY_EVERY: u64 = 8;
    const WARMUP_OPS: u64 = 16;
    const COUNTED_OPS: u64 = 128;
    const RECOVERIES: usize = 5;
    pub const FSYNC_POLICY: &str = "service default (not configurable): every append syncs each \
         new segment file (sync_data, rename, directory fsync), one commit per touched shard \
         log and one manifest commit, all before the snapshot publishes";

    const STREAM_QUERY: u64 = 0x1A9E;

    fn op_at(ds: &Dataset, seed: u64, i: u64) -> Op {
        if i % QUERY_EVERY == QUERY_EVERY - 1 {
            let mut rng = rng_for(seed, STREAM_QUERY, i);
            let selectivity = 0.05 * (0.9 + 0.2 * unit_f64(&mut rng));
            Op::Query {
                sql: ds.q1(ds.rtime_quantile(selectivity)),
            }
        } else {
            Op::Append {
                k: (i - i / QUERY_EVERY) as usize,
            }
        }
    }

    fn subscribe(svc: &QueryService, ds: &Dataset) -> Vec<SubscriptionHandle> {
        let mid = ds.rtime_quantile(0.5);
        let standing = [
            (
                "scoped",
                format!("select epc, rtime, biz_loc from caser where rtime >= {mid}"),
            ),
            (
                "aggregate",
                "select biz_loc, count(*) as n, avg(rtime) as a from caser group by biz_loc"
                    .to_string(),
            ),
        ];
        standing
            .iter()
            .map(|(mode, sql)| {
                let handle = svc
                    .subscribe(APP, sql, SubscribeOptions::default())
                    .expect("subscribe");
                assert_eq!(handle.mode(), *mode, "classification of {sql:?}");
                handle
            })
            .collect()
    }

    struct Env {
        svc: QueryService,
        handles: Vec<SubscriptionHandle>,
        dataset: Dataset,
        batches: SuffixBatches,
        failpoint: Arc<FailPoint>,
        dir: PathBuf,
        generate_s: f64,
    }

    fn durable_options(dir: &Path, failpoint: &Arc<FailPoint>) -> DurableOptions {
        // An unlimited fail point never fires; it is here for its tick
        // counter (bytes written + one per fsync / rename), the exact I/O
        // count `log.io_ticks` reports.
        DurableOptions::new(dir).with_failpoint(Arc::clone(failpoint))
    }

    fn set_up(scale: usize, seed: u64, dir: PathBuf) -> Env {
        let _ = std::fs::remove_dir_all(&dir);
        let BaseEnv {
            system,
            dataset,
            generate_s,
        } = build_base(scale, seed);
        let batches = SuffixBatches::new(&system, APPEND_ROWS, seed);
        let failpoint = FailPoint::unlimited();
        let svc = QueryService::start_sharded_durable(
            system,
            service_config(),
            shard_config(false),
            durable_options(&dir, &failpoint),
        )
        .expect("durable sharded service");
        let handles = subscribe(&svc, &dataset);
        for i in 0..WARMUP_OPS {
            match op_at(&dataset, seed, i) {
                Op::Query { sql } => drop(execute(&svc, &sql).expect("warm-up query")),
                Op::Append { k } => {
                    svc.append(READS, batches.batch(k)).expect("warm-up append");
                    drain(&handles, None);
                }
            }
        }
        Env {
            svc,
            handles,
            dataset,
            batches,
            failpoint,
            dir,
            generate_s,
        }
    }

    pub fn run(cfg: &RunConfig, scratch: &Path) -> Finished {
        let scale = cfg.scale.unwrap_or(SCALE);
        // Every repetition reuses one directory: `set_up` clears it first, and
        // the previous service is dropped before the next one is built.
        let (env, setup_s) = repeat_set_up(cfg.trace, || {
            set_up(scale, cfg.seed, scratch.join("durable"))
        });
        let Env {
            svc,
            handles,
            dataset,
            batches,
            failpoint,
            dir,
            generate_s,
        } = env;
        let ds = &dataset;
        let warmup_appends = (WARMUP_OPS - WARMUP_OPS / QUERY_EVERY) as usize;

        let mut acc = LayerAcc {
            counting: true,
            generate_s,
            ..LayerAcc::default()
        };
        let replay = cfg.trace.then(|| {
            acc.rules_compile_us = rules_compile_us(&ds.benchmark_rules(5));
            let plain = QueryService::start_sharded(
                build_base(scale, cfg.seed).system,
                service_config(),
                shard_config(false),
            )
            .expect("plain twin");
            let subs = QueryService::start_sharded(
                build_base(scale, cfg.seed).system,
                service_config(),
                shard_config(false),
            )
            .expect("subscribed twin");
            let twin_handles = subscribe(&subs, ds);
            let twins = AppendReplay {
                plain,
                with_subs: Some((subs, twin_handles)),
                scratch: Some(ScratchLogs::create(&scratch.join("replay-logs"))),
            };
            for k in 0..warmup_appends {
                twins.follow(&batches.batch(k));
            }
            Mutex::new(twins)
        });

        let case_rows_base = ds.case_reads as u64;
        let ticks_start = failpoint.ticks_requested();
        let bytes_start = dir_bytes(&dir);
        let mut rows_acked = (warmup_appends * APPEND_ROWS) as u64;
        let mut appends_acked = warmup_appends as u64;
        let counted_until = WARMUP_OPS + COUNTED_OPS;
        let mut counted_appends = 0u64;
        // Exact I/O counts, frozen when the counted prefix ends.
        let mut frozen: Option<(u64, u64, f64)> = None;
        let freeze = |rows_acked: u64| {
            let bytes = dir_bytes(&dir);
            (
                failpoint.ticks_requested() - ticks_start,
                bytes - bytes_start,
                bytes as f64 / (case_rows_base + rows_acked) as f64,
            )
        };

        let epoch = Instant::now();
        let acc = Mutex::new(acc);
        let mut me = Client {
            svc: &svc,
            acc: &acc,
            replay: replay.as_ref(),
            tracer: Tracer::new(epoch),
        };
        let samples = closed_loop(epoch, cfg.limit, WARMUP_OPS, |i, start_ns| {
            let traced = is_traced(cfg.trace, i, TRACE_BLOCK);
            if i == counted_until && frozen.is_none() {
                frozen = Some(freeze(rows_acked));
            }
            let counting = i < counted_until;
            me.begin_op(counting, traced);
            match op_at(ds, cfg.seed, i) {
                Op::Query { sql } => me.query(i, start_ns, &sql, traced, true),
                Op::Append { k } => {
                    let sample = me.append(i, start_ns, &batches.batch(k), traced, &handles);
                    if sample.ok {
                        rows_acked += sample.rows;
                        appends_acked += 1;
                        counted_appends += counting as u64;
                    }
                    sample
                }
            }
        });
        let tracer = me.tracer;
        let wall_s = epoch.elapsed().as_secs_f64();
        let mut acc = acc.into_inner().expect("accumulator lock");
        let (io_ticks, log_bytes, disk_bytes_per_row) =
            frozen.unwrap_or_else(|| freeze(rows_acked));
        acc.io_ticks = io_ticks;
        acc.log_bytes = log_bytes;
        acc.counted_appends = counted_appends;
        acc.disk_bytes_per_row = disk_bytes_per_row;
        let counters = svc.counters();
        acc.dropped_for_lag = counters.dropped_for_lag;
        acc.rejected = counters.rejected;
        let final_disk_bytes_per_row =
            dir_bytes(&dir) as f64 / (case_rows_base + rows_acked) as f64;

        // Results the recovered service must reproduce.
        let probes = [
            ds.q1(ds.rtime_quantile(0.05)),
            "select biz_loc, count(*) as n from caser group by biz_loc".to_string(),
            format!(
                "select epc, rtime from caser where epc = '{}' order by rtime",
                ds.case_epc_urn(0)
            ),
        ];
        let before_drop: Vec<Option<Vec<Vec<Value>>>> = probes
            .iter()
            .map(|sql| execute(&svc, sql).map(|r| r.batch.sorted_rows()).ok())
            .collect();
        let durable_before = svc.durable_stats().expect("durable service");
        drop(handles);
        drop(replay);
        drop(svc);

        let mut checks = 0;
        let mut check_failures = 0;
        let mut check = |ok: bool, what: &str| {
            checks += 1;
            if !ok {
                check_failures += 1;
                eprintln!("check failed: {what}");
            }
        };
        check(
            durable_before.durable_epoch == appends_acked,
            "durable epoch differs from the appends acknowledged",
        );
        let mut recover_s = Vec::new();
        for attempt in 0..RECOVERIES {
            let start = Instant::now();
            let recovered =
                QueryService::recover(durable_options(&dir, &failpoint), service_config());
            let first = recovered
                .as_ref()
                .ok()
                .and_then(|svc| execute(svc, &probes[0]).ok());
            recover_s.push(start.elapsed().as_secs_f64());
            let (Ok(recovered), Some(first)) = (recovered, first) else {
                check(false, "recovery or its first query failed");
                continue;
            };
            let stats = recovered.durable_stats().expect("durable service");
            check(
                stats.durable_epoch == appends_acked && stats.epochs_recovered == appends_acked + 1,
                "recovered epochs differ from the appends acknowledged",
            );
            check(
                Some(first.batch.sorted_rows()) == before_drop[0],
                "first reply after recovery differs from the reply before the drop",
            );
            if attempt == 0 {
                for (sql, expected) in probes.iter().zip(&before_drop).skip(1) {
                    let got = execute(&recovered, sql).map(|r| r.batch.sorted_rows()).ok();
                    check(
                        got.is_some() && got == *expected,
                        "a reply after recovery differs from the reply before the drop",
                    );
                }
                acc.records_replayed = stats.log_records_replayed;
                acc.segments_loaded_lazy = stats.segments_loaded_lazy;
            }
        }
        if cfg.trace {
            // The two halves of a shard's recovery, through their public
            // entry points: log replay, then catalog materialization.
            for shard in 0..SHARDS {
                let shard_dir =
                    LogDir::create(dir.join(format!("shard-{shard}"))).expect("shard directory");
                let start = Instant::now();
                let rec = recover_shard(&shard_dir).expect("shard log replays");
                acc.recover_shard_ms += start.elapsed().as_secs_f64() * 1e3;
                let store = SegmentStore::new(shard_dir);
                let start = Instant::now();
                std::hint::black_box(
                    materialize_catalog(&rec, rec.durable_epoch, &store).expect("materialize"),
                );
                acc.materialize_ms += start.elapsed().as_secs_f64() * 1e3;
            }
        }
        let _ = std::fs::remove_dir_all(&dir);

        let facts = Json::obj()
            .set("scale", scale)
            .set("case_reads", ds.case_reads)
            .set(
                "entry_point",
                "QueryService::start_sharded_durable, append / execute / recover",
            )
            .set("shards", SHARDS)
            .set("workers", WORKERS)
            .set("clients", 1u64)
            .set("subscriptions", "1 scoped + 1 aggregate")
            .set("append_rows", APPEND_ROWS)
            .set("fsync_policy", FSYNC_POLICY)
            .set("warmup_ops", WARMUP_OPS)
            .set("appends_acknowledged", appends_acked)
            .set("rows_acknowledged", rows_acked)
            .set(
                "disk_bytes_per_row_at_end",
                Json::Num(final_disk_bytes_per_row),
            )
            .set("io_ticks_total", failpoint.ticks_requested())
            .set("recoveries", RECOVERIES)
            .set("limit", cfg.limit.to_string());
        Finished {
            samples,
            wall_s,
            clients: 1,
            setup_s,
            checks,
            check_failures,
            recover_s,
            acc,
            tracer: cfg.trace.then_some(tracer),
            facts,
        }
    }
}
