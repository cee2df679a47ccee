//! The query service: N workers over immutable snapshots, one ingest path,
//! and a scatter-gather coordinator over per-shard catalogs. There is one
//! topology — an unsharded service is the one with N = 1 shards.
//!
//! Life of a query:
//!
//! 1. [`QueryService::submit`] wraps the request in a job, stamps the submit
//!    time, and offers it to the bounded admission queue. A full queue is an
//!    immediate [`ServiceError::Overloaded`] — the service sheds load instead
//!    of stacking latency.
//! 2. A worker pops the job, loads the *current* snapshot of every shard
//!    once (an [`EpochVector`]), and runs the rewrite + execute pipeline
//!    against those frozen epochs under a [`QueryBudget`]. Deadlines are
//!    anchored at submit time, so queue wait counts against the budget.
//! 3. The reply — rows + rewrite report + [`ServiceStats`] — travels back
//!    through the job's channel; [`Ticket::wait`] hands it to the caller.
//!
//! Ingest ([`QueryService::append`]) serializes on its own lock, builds the
//! next catalog overlay *outside* the publication cell, appends into it, and
//! publishes with a pointer swap. In-flight queries keep their epochs; the
//! next dispatch sees the new ones. The append batch of a partitioned table
//! is first split on the cluster key, and only the shards that received
//! rows publish a new epoch.
//!
//! ## Scatter-gather
//!
//! [`QueryService::start_sharded`] partitions the catalog on the rules'
//! cluster key ([`crate::partition`]): since a cleansing rule only relates
//! readings within one cluster sequence, every shard cleanses its clusters
//! exactly as an unsharded system would. A query is then:
//!
//! * **rewritten once** at the coordinator against shard 0's snapshot (all
//!   shard catalogs share one schema, so the plan is valid everywhere),
//! * **decomposed** by [`dc_relational::scatter::split_scatter`] —
//!   shard-complete plans fan out unchanged, aggregates over non-key groups
//!   are lowered to partials, and an operator with no shard-side form
//!   (`count(distinct)` over non-key groups, a non-key window or join)
//!   stays in the gather plan over its inputs' shard plans,
//! * **executed on every shard in parallel** (on every owner of a pinned
//!   key, see below), each shard running the shard plans in order, under
//!   clones of the query's budget (shared deadline + cancellation token;
//!   the row budget bounds each shard plan's own work),
//! * **gathered** at the coordinator by [`dc_relational::scatter::gather`]:
//!   the decomposition's gather plan (a sort that merges the shards'
//!   ordered outputs, an aggregate over partials, a cross-shard DISTINCT, a
//!   final LIMIT, or the operators that had no shard-side form) runs
//!   through the one executor over the concatenated partials of each shard
//!   plan, registered over shard 0's snapshot so replicated tables resolve,
//!   under the same budget — the row budget bounds the gather's work as it
//!   bounds each shard's. The run's metrics tree is a `GatherExec` node over
//!   the gather plan's operators and the shards' trees (one group per shard
//!   plan), and the reply's work counters are that tree's fold.
//!
//! Plans touching no partitioned table run on shard 0 alone (every shard
//! replicates dimension tables), with no thread spawned and nothing
//! gathered. **With one shard nothing is partitioned**, so that is every
//! plan: [`QueryService::start`] is `start_sharded` with one shard, the
//! system it is given serves unchanged, and the arm above is the whole
//! query path.
//!
//! **Key routing.** When every cleansing rule partitions by the cluster
//! key, a selection `key ∈ K` commutes with cleansing. So a query routes
//! when three things hold: the user plan pins every partitioned scan to
//! keys K ([`dc_relational::scatter::pinned_keys`]: `key = lit` or `key IN
//! (lits)` reached only through filters, pass-through projections, sorts,
//! aliases and inner joins); no rule of the application MODIFYs the key;
//! and the rewritten plan is shard-local, one shard plan equal to itself
//! (a rule clustered by another column leaves a non-key window, which is
//! not). K is hashed by the same [`HashPartitioner`] appends are routed
//! by. One owner runs the rewritten plan whole against its own snapshot and
//! cleanse cache — no thread, no partials table, no gather (`mode=routed`,
//! note `scatter: routed to shard s of N (k keys)`); k < N owners run the
//! scatter above on those shards only (`scatter: k of N shards`). A
//! single-EPC pedigree trace is such a plan.
//!
//! Every other plan scatters to every shard; no partitioned table is ever
//! copied to the coordinator. A shard executor lost mid-query — shard 0
//! answering alone, a routed owner or a scattered shard — surfaces as the
//! typed [`ServiceError::ShardUnavailable`], never a hang or a panic.
//!
//! Workers also **coalesce identical work**: queries with the same epoch
//! vector, rule-set version, application, SQL, and strategy are guaranteed
//! to produce byte-identical results, so concurrent duplicates share a
//! single execution — the first dispatcher leads, the rest wait on its
//! in-flight slot and clone the result (their own budgets are re-checked
//! before the reply, so deadlines and cancellation still bite). A leader
//! failure is never shared: followers fall back to executing independently.

use self::flight::{Flight, FlightKey, Role};
use self::scatter::RunDetail;
use self::subscribe::SubEntry;
use crate::durable::{log_err, split_as_of, DurableOptions, DurableState, DurableStats};
use crate::partition::{partition_catalog, HashPartitioner};
use crate::queue::{Bounded, PushError};
use crate::snapshot::{EpochVector, Snapshot, SnapshotCell};
use dc_core::{DeferredCleansingSystem, QueryBudget};
use dc_relational::error::Error;
use dc_relational::scatter::{sharding_spec_for, ShardingSpec};
use dc_relational::table::{Catalog, CatalogRef};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

mod api;
mod flight;
mod ingest;
mod inline;
mod scatter;
pub mod subscribe;

pub use self::api::{
    QueryRequest, QueryResponse, ServiceConfig, ServiceCounters, ServiceError, ServiceStats,
    ShardConfig,
};

struct Job {
    req: QueryRequest,
    submitted: Instant,
    cancel: Arc<AtomicBool>,
    reply: SyncSender<Result<QueryResponse, ServiceError>>,
}

/// Handle to an admitted query: await the reply, or cancel it.
pub struct Ticket {
    cancel: Arc<AtomicBool>,
    rx: Receiver<Result<QueryResponse, ServiceError>>,
}

impl Ticket {
    /// Block until the query finishes (or aborts). Consumes the ticket.
    pub fn wait(self) -> Result<QueryResponse, ServiceError> {
        self.rx.recv().unwrap_or(Err(ServiceError::ShutDown))
    }

    /// Request cooperative cancellation. The running query observes the
    /// flag at its next operator boundary and aborts with
    /// [`crate::AbortReason::Cancelled`]; a queued query aborts at dispatch. The
    /// token is shared by every shard executor, so one cancel stops the
    /// whole fan-out.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }
}

/// One shard: its own deferred-cleansing system (shard-local catalog,
/// rules copy, shard-salted cleanse cache) and snapshot publication cell.
struct ShardState {
    system: DeferredCleansingSystem,
    snapshots: SnapshotCell,
}

impl ShardState {
    /// Shard `i` serves `systems[i]` with its catalog frozen as
    /// `epochs[i]`: 0 for a fresh service, the recovered shard epoch after
    /// a restart.
    fn at_epochs(systems: Vec<DeferredCleansingSystem>, epochs: &[u64]) -> Vec<Self> {
        let freeze = |(system, &epoch): (DeferredCleansingSystem, &u64)| {
            let frozen = Arc::new(system.catalog().overlay());
            ShardState {
                system,
                snapshots: SnapshotCell::at_epoch(frozen, epoch),
            }
        };
        systems.into_iter().zip(epochs).map(freeze).collect()
    }
}

/// Which tables are split on the cluster key, and by which function — the
/// same pair decides the initial partition and every routed append.
struct Router {
    spec: ShardingSpec,
    partitioner: HashPartitioner,
}

impl Router {
    /// One shard ⇒ nothing is partitioned: every table counts as
    /// replicated to the only shard, so every plan is answered by shard 0
    /// exactly as an unsharded system would answer it. `key` is kept either
    /// way — it still names the column appends are keyed on.
    fn new(catalog: &Catalog, key: &str, shards: usize) -> Self {
        let spec = if shards == 1 {
            ShardingSpec {
                key: key.to_string(),
                partitioned: BTreeSet::new(),
            }
        } else {
            sharding_spec_for(catalog, key)
        };
        Router {
            spec,
            partitioner: HashPartitioner,
        }
    }
}

fn epochs_of(snaps: &[Arc<Snapshot>]) -> EpochVector {
    EpochVector(snaps.iter().map(|s| s.epoch).collect())
}

struct Shared {
    shards: Vec<ShardState>,
    router: Router,
    /// WAL + epoch history when the service is durable; `None` for a
    /// purely in-memory service.
    durable: Option<DurableState>,
    queue: Bounded<Job>,
    config: ServiceConfig,
    inflight: Mutex<HashMap<FlightKey, Arc<Flight>>>,
    rules_version: AtomicU64,
    /// Fault injection for tests: a shard index whose executor panics
    /// mid-query (`usize::MAX` = none).
    fail_shard: AtomicUsize,
    admitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    aborted: AtomicU64,
    failed: AtomicU64,
    appends: AtomicU64,
    coalesced: AtomicU64,
    /// Standing-query registry: advanced in publish order under the ingest
    /// lock, reaped when a subscriber's channel closes.
    pub(crate) subs: Mutex<Vec<Arc<SubEntry>>>,
    pub(crate) next_sub_id: AtomicU64,
    pub(crate) subscriptions: AtomicU64,
    pub(crate) notifications: AtomicU64,
    pub(crate) deltas: AtomicU64,
    pub(crate) fallbacks: AtomicU64,
    pub(crate) dropped_for_lag: AtomicU64,
}

impl Shared {
    /// The system queries are rewritten against (shard 0).
    fn coordinator(&self) -> &DeferredCleansingSystem {
        &self.shards[0].system
    }

    /// Load every shard's current snapshot, in shard order.
    fn load_snapshots(&self) -> Vec<Arc<Snapshot>> {
        self.shards.iter().map(|s| s.snapshots.load()).collect()
    }

    /// What a request runs against: its SQL with any top-level
    /// `AS OF epoch E` clause stripped, and the snapshots — historical for
    /// that clause (or for an explicit `epoch`, which wins; durable
    /// services only), the live ones otherwise. A refused time travel is a
    /// failed query.
    fn resolve(
        &self,
        sql: &str,
        epoch: Option<u64>,
    ) -> Result<(String, Vec<Arc<Snapshot>>), ServiceError> {
        let (sql, as_of) = match split_as_of(sql) {
            Some((stripped, e)) => (stripped, Some(e)),
            None => (sql.to_string(), None),
        };
        let snaps = match epoch.or(as_of) {
            Some(e) => self.historical_snapshots(e).inspect_err(|_| {
                self.failed.fetch_add(1, Ordering::Relaxed);
            })?,
            None => self.load_snapshots(),
        };
        Ok((sql, snaps))
    }

    /// The effective budget for a request: per-request overrides, else
    /// service defaults; the deadline runs from `anchor` (submit time for a
    /// queued job, so queue wait is charged).
    fn budget(&self, req: &QueryRequest, anchor: Instant) -> QueryBudget {
        let mut budget = QueryBudget::unlimited();
        if let Some(d) = req.deadline.or(self.config.default_deadline) {
            budget = budget.with_deadline_at(anchor + d);
        }
        if let Some(rows) = req.row_limit.or(self.config.default_row_limit) {
            budget = budget.with_row_limit(rows);
        }
        budget
    }

    /// Outcome accounting, the same for queued and inline queries: count
    /// the result as completed / aborted / failed, and stamp an abort with
    /// the service-side observations of the attempt.
    fn settle<T>(
        &self,
        result: Result<T, ServiceError>,
        stats: ServiceStats,
    ) -> Result<(T, ServiceStats), ServiceError> {
        match result {
            Ok(value) => {
                self.completed.fetch_add(1, Ordering::Relaxed);
                Ok((value, stats))
            }
            Err(ServiceError::Aborted { reason, .. }) => {
                self.aborted.fetch_add(1, Ordering::Relaxed);
                Err(ServiceError::Aborted {
                    reason,
                    service: ServiceStats {
                        abort_reason: Some(reason),
                        ..stats
                    },
                })
            }
            Err(other) => {
                self.failed.fetch_add(1, Ordering::Relaxed);
                Err(other)
            }
        }
    }
}

/// One system per shard catalog, in shard order: the rule set (restored
/// from its JSON form), a shard-salted cleanse cache, the shared parallelism.
fn shard_systems(
    catalogs: Vec<CatalogRef>,
    rules_json: Option<&str>,
    cache_capacity: Option<usize>,
    parallelism: usize,
) -> Result<Vec<DeferredCleansingSystem>, Error> {
    let build = |(shard, catalog)| {
        let mut sys = DeferredCleansingSystem::with_catalog(catalog);
        sys.set_parallelism(parallelism);
        if let Some(json) = rules_json {
            sys.load_rules_from_json(json)?;
        }
        if let Some(cap) = cache_capacity {
            sys.enable_cleanse_cache_for_shard(cap, shard as u64);
        }
        Ok(sys)
    };
    catalogs.into_iter().enumerate().map(build).collect()
}

/// A concurrent query service over one or more [`DeferredCleansingSystem`]s.
///
/// Readers (the worker pool) answer rewritten queries against immutable
/// epoch-stamped snapshots; a single ingest path appends and publishes new
/// epochs without ever blocking a reader on append work. There is one
/// topology: N shards behind a coordinator, and an unsharded service is
/// N = 1. Dropping the service closes the queue, drains queued jobs, and
/// joins the workers.
pub struct QueryService {
    shared: Arc<Shared>,
    ingest: Mutex<()>,
    workers: Vec<JoinHandle<()>>,
}

impl QueryService {
    /// Take ownership of `system`, freeze its current catalog as epoch 0,
    /// and start the worker pool: one shard, nothing partitioned, `system`
    /// serving exactly as given (its rules, derived rule inputs, cleanse
    /// cache and parallelism).
    pub fn start(system: DeferredCleansingSystem, config: ServiceConfig) -> Self {
        Self::launch(system, config, ShardConfig::new(1, ""), None)
            .expect("one in-memory shard partitions, copies and logs nothing, so nothing can fail")
    }

    /// Partition `system`'s catalog on `shard.key` with the
    /// [`HashPartitioner`] and start a scatter-gather service. Each shard
    /// gets its own system (shard catalog, copy of the rules, optional
    /// shard-salted cleanse cache), ingest epoch history, and snapshot
    /// cell. Results are byte-identical (up to row order, exact under
    /// ORDER BY) to a one-shard service at the same epochs; with
    /// `shard.shards == 1` nothing is partitioned or copied and the service
    /// *is* [`QueryService::start`]'s (plus the configured cache).
    pub fn start_sharded(
        system: DeferredCleansingSystem,
        config: ServiceConfig,
        shard: ShardConfig,
    ) -> Result<Self, Error> {
        Self::launch(system, config, shard, None)
    }

    /// [`QueryService::start_sharded`] with a durable root under
    /// `opts.dir`: the manifest records the topology, each shard keeps its
    /// own commit log + segment files (the initial catalog and rules are
    /// its epoch 0), and every append commits on all touched shard logs
    /// *and* the manifest — fsynced — before any shard publishes. The full
    /// epoch history stays queryable with `AS OF epoch E` (or
    /// [`QueryService::query_as_of`]). Restart with
    /// [`QueryService::recover`], which rebuilds the same topology.
    pub fn start_sharded_durable(
        system: DeferredCleansingSystem,
        config: ServiceConfig,
        shard: ShardConfig,
        opts: DurableOptions,
    ) -> Result<Self, Error> {
        Self::launch(system, config, shard, Some(opts))
    }

    /// Reopen a durable root written by
    /// [`QueryService::start_sharded_durable`]: replay the manifest and
    /// every shard log, roll back to the newest globally committed epoch,
    /// compact away crash debris, and resume serving (and appending) right
    /// where the durable history ends. The entire history remains
    /// addressable through `AS OF epoch E`.
    pub fn recover(opts: DurableOptions, config: ServiceConfig) -> Result<Self, Error> {
        let rec = crate::durable::recover_state(&opts).map_err(log_err)?;
        let router = Router::new(&rec.catalogs[0], &rec.key, rec.catalogs.len());
        let cache = (rec.cache_capacity > 0).then_some(rec.cache_capacity as usize);
        let (version, rules_json) = rec.rules.map_or((0, None), |(v, json)| (v, Some(json)));
        let systems = shard_systems(rec.catalogs, rules_json.as_deref(), cache, 1)?;
        let shards = ShardState::at_epochs(systems, &rec.shard_epochs);
        let durable = Some(rec.state);
        Ok(Self::spawn(shards, router, config, durable, version))
    }

    /// The one way a fresh service comes up. One shard keeps `system` as
    /// given; more shards split its catalog on `shard.key` and copy the
    /// rules to every shard; a durable root logs catalogs and rules as
    /// epoch 0. A derived rule input lives only in `system`'s rewrite
    /// engine — a copy cleanses over the empty stand-in table, the plan may
    /// read across cluster keys, the log has no record for it — so only the
    /// first carries one and the other two refuse it.
    fn launch(
        mut system: DeferredCleansingSystem,
        config: ServiceConfig,
        shard: ShardConfig,
        durable: Option<DurableOptions>,
    ) -> Result<Self, Error> {
        let n = shard.shards.max(1);
        if n > 1 || durable.is_some() {
            if let Some(name) = system.derived_inputs().first() {
                return Err(Error::Plan(format!(
                    "derived rule input '{name}' is a query plan held only by this system's \
                     rewrite engine: it can neither be split across shards nor logged, so it \
                     is served by a one-shard in-memory service only"
                )));
            }
        }
        let router = Router::new(system.catalog(), &shard.key, n);
        let systems = if n == 1 {
            if let Some(cap) = shard.cleanse_cache_capacity {
                system.enable_cleanse_cache_for_shard(cap, 0);
            }
            vec![system]
        } else {
            let parts = partition_catalog(system.catalog(), &router.spec, &router.partitioner, n)?;
            shard_systems(
                parts.into_iter().map(Arc::new).collect(),
                Some(&system.rules_to_json()),
                shard.cleanse_cache_capacity,
                system.exec_options().parallelism,
            )?
        };
        let durable = match durable {
            Some(opts) => {
                let catalogs: Vec<&Catalog> = systems.iter().map(|s| s.catalog()).collect();
                let cache_capacity = shard.cleanse_cache_capacity.unwrap_or(0) as u64;
                let rules_json = systems[0].rules_to_json();
                let state = DurableState::bootstrap(
                    &opts,
                    &catalogs,
                    &shard.key,
                    cache_capacity,
                    &rules_json,
                );
                Some(state.map_err(log_err)?)
            }
            None => None,
        };
        let shards = ShardState::at_epochs(systems, &vec![0; n]);
        Ok(Self::spawn(shards, router, config, durable, 0))
    }

    /// Where every service comes up, fresh or recovered: assemble the
    /// shared state and start the worker pool.
    fn spawn(
        shards: Vec<ShardState>,
        router: Router,
        config: ServiceConfig,
        durable: Option<DurableState>,
        rules_version: u64,
    ) -> Self {
        let shared = Arc::new(Shared {
            shards,
            router,
            durable,
            queue: Bounded::new(config.queue_capacity),
            config,
            inflight: Mutex::new(HashMap::new()),
            rules_version: AtomicU64::new(rules_version),
            fail_shard: AtomicUsize::new(usize::MAX),
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            aborted: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            appends: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            subs: Mutex::new(Vec::new()),
            next_sub_id: AtomicU64::new(0),
            subscriptions: AtomicU64::new(0),
            notifications: AtomicU64::new(0),
            deltas: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
            dropped_for_lag: AtomicU64::new(0),
        });
        let workers = (0..shared.config.workers.max(1))
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dc-service-worker-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawn service worker")
            })
            .collect();
        QueryService {
            shared,
            ingest: Mutex::new(()),
            workers,
        }
    }

    /// Submit a query for asynchronous execution. Rejects immediately when
    /// the admission queue is full.
    pub fn submit(&self, req: QueryRequest) -> Result<Ticket, ServiceError> {
        let cancel = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::sync_channel(1);
        let job = Job {
            req,
            submitted: Instant::now(),
            cancel: Arc::clone(&cancel),
            reply: tx,
        };
        match self.shared.queue.try_push(job) {
            Ok(()) => {
                self.shared.admitted.fetch_add(1, Ordering::Relaxed);
                Ok(Ticket { cancel, rx })
            }
            Err(PushError::Full(_)) => {
                self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                Err(ServiceError::Overloaded {
                    capacity: self.shared.queue.capacity(),
                })
            }
            Err(PushError::Closed(_)) => Err(ServiceError::ShutDown),
        }
    }

    /// Submit and wait: the synchronous convenience path.
    pub fn execute(&self, req: QueryRequest) -> Result<QueryResponse, ServiceError> {
        self.submit(req)?.wait()
    }

    /// The snapshot new dispatches currently see on shard 0. See
    /// [`QueryService::shard_snapshot`] for the others.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.shared.shards[0].snapshots.load()
    }

    /// The current snapshot of one shard.
    pub fn shard_snapshot(&self, shard: usize) -> Arc<Snapshot> {
        self.shared.shards[shard].snapshots.load()
    }

    /// Number of shards (at least 1).
    pub fn shard_count(&self) -> usize {
        self.shared.shards.len()
    }

    /// The current per-shard epochs.
    pub fn epoch_vector(&self) -> EpochVector {
        epochs_of(&self.shared.load_snapshots())
    }

    /// Total appends published across all shards — with one shard, the
    /// dense publication epoch itself.
    pub fn epoch(&self) -> u64 {
        self.epoch_vector().total()
    }

    /// The coordinator's system (shard 0): rules table, cache stats, exec
    /// options.
    pub fn system(&self) -> &DeferredCleansingSystem {
        self.shared.coordinator()
    }

    /// One shard's system, for inspecting shard-local state (e.g. its
    /// cleanse cache counters).
    pub fn shard_system(&self, shard: usize) -> &DeferredCleansingSystem {
        &self.shared.shards[shard].system
    }

    /// Lifetime counters so far.
    pub fn counters(&self) -> ServiceCounters {
        let s = &self.shared;
        ServiceCounters {
            admitted: s.admitted.load(Ordering::Relaxed),
            rejected: s.rejected.load(Ordering::Relaxed),
            completed: s.completed.load(Ordering::Relaxed),
            aborted: s.aborted.load(Ordering::Relaxed),
            failed: s.failed.load(Ordering::Relaxed),
            appends: s.appends.load(Ordering::Relaxed),
            coalesced: s.coalesced.load(Ordering::Relaxed),
            subscriptions: s.subscriptions.load(Ordering::Relaxed),
            notifications: s.notifications.load(Ordering::Relaxed),
            delta_rows: s.deltas.load(Ordering::Relaxed),
            fallbacks: s.fallbacks.load(Ordering::Relaxed),
            dropped_for_lag: s.dropped_for_lag.load(Ordering::Relaxed),
        }
    }

    /// Fault injection for tests: make shard `shard`'s executor panic on
    /// its next dispatch, exercising the
    /// [`ServiceError::ShardUnavailable`] path.
    #[doc(hidden)]
    pub fn inject_shard_failure(&self, shard: usize) {
        self.shared.fail_shard.store(shard, Ordering::Relaxed);
    }

    /// Clear [`QueryService::inject_shard_failure`].
    #[doc(hidden)]
    pub fn clear_shard_failure(&self) {
        self.shared.fail_shard.store(usize::MAX, Ordering::Relaxed);
    }

    /// Durability counters — `None` for a purely in-memory service.
    pub fn durable_stats(&self) -> Option<DurableStats> {
        self.shared.durable.as_ref().map(|d| d.stats())
    }

    /// Close the queue, drain outstanding jobs, and join the workers.
    /// Also runs on drop; calling it explicitly surfaces worker panics.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// One queued job at a time, dispatch to reply: resolve its snapshots, run
/// it (or share an identical concurrent run) under its budget, settle the
/// outcome.
fn worker_loop(shared: &Shared, worker: usize) {
    while let Some(job) = shared.queue.pop() {
        let start = Instant::now();
        let queue_wait = start.duration_since(job.submitted);
        let req = &job.req;
        let (sql, snaps) = match shared.resolve(&req.sql, None) {
            Ok(resolved) => resolved,
            Err(e) => {
                let _ = job.reply.send(Err(e));
                continue;
            }
        };
        let epochs = epochs_of(&snaps);
        let budget = shared
            .budget(req, job.submitted)
            .with_cancel(Arc::clone(&job.cancel));
        let key = FlightKey {
            epochs: epochs.clone(),
            rules_version: shared.rules_version.load(Ordering::Relaxed),
            application: req.application.clone(),
            sql,
            strategy: req.strategy,
        };
        let run = || {
            let budget = budget.clone();
            shared
                .run_detail(&snaps, &req.application, &key.sql, req.strategy, budget)
                .map(RunDetail::into_reply)
        };
        let mut coalesced = false;
        // Pre-check: queue wait alone may have blown the deadline, and a
        // cancelled job should never start executing.
        let result = budget.check().map_err(ServiceError::from).and_then(|()| {
            match shared.join_or_lead(&key) {
                Role::Leader(flight) => {
                    let res = run();
                    flight.publish(res.as_ref().ok().cloned());
                    shared.release(&key);
                    res
                }
                Role::Follower(flight) => match flight.wait() {
                    // The shared result is only handed out if this job's own
                    // budget still allows a reply.
                    Some(shared_result) => {
                        coalesced = true;
                        budget
                            .check()
                            .map_err(ServiceError::from)
                            .map(|()| shared_result)
                    }
                    // Leader failed or aborted: outcomes of failures depend on
                    // the failing job's budget, so run independently.
                    None => run(),
                },
            }
        });
        if coalesced {
            shared.coalesced.fetch_add(1, Ordering::Relaxed);
        }
        let stats = ServiceStats::new(epochs, queue_wait, start.elapsed(), worker, coalesced);
        let reply = shared
            .settle(result, stats)
            .map(|((batch, report), service)| QueryResponse {
                batch,
                report,
                service,
            });
        // The caller may have dropped its ticket; losing the reply is fine.
        // `snaps` outlives the send: releasing the last reference to a
        // superseded snapshot frees whole tables, which no caller should
        // wait for.
        let _ = job.reply.send(reply);
        // Let the woken caller run before this worker takes the next job:
        // the wake often queues it on this CPU, where it would otherwise
        // wait out that whole query before it sees its reply.
        std::thread::yield_now();
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use dc_core::AbortReason;
    use dc_relational::batch::{schema_ref, Batch};
    use dc_relational::schema::{Field, Schema};
    use dc_relational::table::Table;
    use dc_relational::value::{DataType, Value};

    pub(super) const DUP: &str =
        "DEFINE duplicate ON caseR CLUSTER BY epc SEQUENCE BY rtime AS (A, B) \
        WHERE A.biz_loc = B.biz_loc and B.rtime - A.rtime < 5 mins ACTION DELETE B";

    pub(super) fn reads_schema() -> dc_relational::schema::SchemaRef {
        schema_ref(Schema::new(vec![
            Field::new("epc", DataType::Str),
            Field::new("rtime", DataType::Int),
            Field::new("biz_loc", DataType::Str),
        ]))
    }

    pub(super) fn row(epc: &str, rtime: i64, loc: &str) -> Vec<Value> {
        vec![Value::str(epc), Value::Int(rtime), Value::str(loc)]
    }

    pub(super) fn small() -> Vec<Vec<Value>> {
        vec![
            row("e1", 0, "shelf"),
            row("e1", 60, "shelf"),
            row("e2", 10, "dock"),
        ]
    }

    pub(super) fn large() -> Vec<Vec<Value>> {
        (0..240)
            .map(|i| {
                row(
                    &format!("e{}", i % 24),
                    i,
                    if i % 3 == 0 { "shelf" } else { "dock" },
                )
            })
            .collect()
    }

    /// `rows` as `caser` under the duplicate rule.
    pub(super) fn system(rows: &[Vec<Value>]) -> DeferredCleansingSystem {
        let catalog = Arc::new(Catalog::new());
        catalog.register(Table::new(
            "caser",
            Batch::from_rows(reads_schema(), rows).unwrap(),
        ));
        let sys = DeferredCleansingSystem::with_catalog(catalog);
        sys.define_rule("app", DUP).unwrap();
        sys
    }

    /// [`system`] served by `shards` shards keyed on `epc`.
    pub(super) fn service(rows: &[Vec<Value>], shards: usize) -> QueryService {
        let config = ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        };
        QueryService::start_sharded(system(rows), config, ShardConfig::new(shards, "epc")).unwrap()
    }

    #[test]
    fn execute_answers_cleansed_and_reports_epoch() {
        let svc = service(&small(), 1);
        let resp = svc
            .execute(QueryRequest::new("app", "select epc, rtime from caser"))
            .unwrap();
        assert_eq!(resp.batch.num_rows(), 2); // duplicate removed
        assert_eq!(resp.service.snapshot_epoch, 0);
        assert_eq!(resp.service.epochs, EpochVector(vec![0]));
        assert!(resp.service.abort_reason.is_none());
        assert_eq!(svc.counters().completed, 1);
    }

    #[test]
    fn overload_rejects_with_capacity() {
        let svc = QueryService::start(
            system(&[row("e1", 0, "shelf")]),
            ServiceConfig {
                workers: 1,
                queue_capacity: 1,
                ..ServiceConfig::default()
            },
        );
        // Saturate: submissions beyond worker + queue slots must bounce.
        let tickets: Vec<_> = (0..16)
            .map(|_| svc.submit(QueryRequest::new("app", "select epc from caser")))
            .collect();
        let rejected = tickets.iter().filter(|t| t.is_err()).count();
        for t in &tickets {
            if let Err(e) = t {
                assert!(matches!(e, ServiceError::Overloaded { capacity: 1 }));
            }
        }
        // Everyone admitted still gets an answer.
        for t in tickets.into_iter().flatten() {
            t.wait().unwrap();
        }
        assert_eq!(svc.counters().rejected, rejected as u64);
        assert!(svc.counters().admitted >= 1);
    }

    #[test]
    fn cancelled_ticket_aborts_without_rows() {
        let svc = service(&small(), 1);
        let ticket = svc
            .submit(QueryRequest::new("app", "select epc from caser"))
            .unwrap();
        ticket.cancel();
        // The pre-set token either catches the job before dispatch or at
        // the first operator boundary — both must yield Aborted, not rows.
        match ticket.wait() {
            Ok(_) => {
                // Raced: the query finished before the flag was observed.
                // Acceptable only if cancel landed after completion; in
                // practice with 2 workers this is rare but not impossible.
            }
            Err(ServiceError::Aborted { reason, service }) => {
                assert_eq!(reason, AbortReason::Cancelled);
                assert_eq!(service.abort_reason, Some(AbortReason::Cancelled));
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn shutdown_rejects_new_work() {
        let svc = service(&small(), 1);
        let shared = Arc::clone(&svc.shared);
        svc.shutdown();
        assert!(matches!(
            shared.queue.try_push(Job {
                req: QueryRequest::new("app", "select epc from caser"),
                submitted: Instant::now(),
                cancel: Arc::new(AtomicBool::new(false)),
                reply: mpsc::sync_channel(1).0,
            }),
            Err(PushError::Closed(_))
        ));
    }

    #[test]
    fn epoch_vector_renders_and_totals() {
        let v = EpochVector(vec![0, 3, 1, 2]);
        assert_eq!(v.to_string(), "0.3.1.2");
        assert_eq!(v.total(), 6);
        assert_eq!(v.shards(), 4);
    }
}
