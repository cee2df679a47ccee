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
//! * **decomposed** by [`split_scatter`] — shard-complete plans fan out
//!   unchanged, aggregates over non-key groups are lowered to partials,
//! * **executed on every shard in parallel** under clones of the query's
//!   budget (shared deadline + cancellation token; the row budget bounds
//!   each shard's own work),
//! * **gathered** at the coordinator: sorted-stream k-way merge for
//!   ORDER BY, additive re-aggregation for partials, a final LIMIT cut.
//!
//! Plans touching no partitioned table run on shard 0 alone (every shard
//! replicates dimension tables), with no thread spawned and nothing
//! gathered. **With one shard nothing is partitioned**, so that is every
//! plan: [`QueryService::start`] is `start_sharded` with one shard, the
//! system it is given serves unchanged, and the arm above is the whole
//! query path. Plans with no sound decomposition fall back to executing at
//! the coordinator over a merged view of the shards. A shard executor lost
//! mid-query surfaces as the typed [`ServiceError::ShardUnavailable`],
//! never a hang or a panic.
//!
//! Workers also **coalesce identical work**: queries with the same epoch
//! vector, rule-set version, application, SQL, and strategy are guaranteed
//! to produce byte-identical results, so concurrent duplicates share a
//! single execution — the first dispatcher leads, the rest wait on its
//! in-flight slot and clone the result (their own budgets are re-checked
//! before the reply, so deadlines and cancellation still bite). A leader
//! failure is never shared: followers fall back to executing independently.

use self::subscribe::{distinct_keys, AppendOutcome, SubEntry};
use crate::durable::{
    log_err, split_as_of, DurableOptions, DurableState, DurableStats, Recovered, StagedAppend,
};
use crate::partition::{partition_catalog, split_batch, table_like, HashPartitioner, Partitioner};
use crate::queue::{Bounded, PushError};
use crate::snapshot::{EpochVector, Snapshot, SnapshotCell};
use dc_core::{AbortReason, DeferredCleansingSystem, QueryBudget, QueryReport, Strategy};
use dc_relational::batch::Batch;
use dc_relational::error::Error;
use dc_relational::exec::{ExecStats, Executor};
use dc_relational::physical::OperatorMetrics;
use dc_relational::plan::LogicalPlan;
use dc_relational::scatter::{gather, sharding_spec_for, split_scatter, ScatterPlan, ShardingSpec};
use dc_relational::sql::{parse_query, plan_query};
use dc_relational::table::{Catalog, CatalogRef};
use dc_rewrite::{Executed, Rewritten};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub mod subscribe;

/// Sizing and default-budget knobs for a [`QueryService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads answering queries (minimum 1).
    pub workers: usize,
    /// Admission queue depth; submissions beyond it are rejected with
    /// [`ServiceError::Overloaded`].
    pub queue_capacity: usize,
    /// Deadline applied to requests that don't set their own.
    pub default_deadline: Option<Duration>,
    /// Row budget applied to requests that don't set their own.
    pub default_row_limit: Option<u64>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            queue_capacity: 64,
            default_deadline: None,
            default_row_limit: None,
        }
    }
}

/// How to shard a service: shard count, the cluster-key column that
/// partitions every key-bearing table (with more than one shard), and
/// whether each shard keeps a (shard-salted) cleansed-sequence cache.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of shards (minimum 1).
    pub shards: usize,
    /// The cluster-key column (the rules' `CLUSTER BY` key, e.g. `epc`).
    /// With two or more shards, tables carrying this column are
    /// partitioned and all others replicated to every shard; with one
    /// shard nothing is partitioned.
    pub key: String,
    /// When set, every shard runs its own cleansed-sequence cache of this
    /// capacity, salted with the shard id so entries never alias across
    /// shards (shards number their own segments independently from 0).
    pub cleanse_cache_capacity: Option<usize>,
}

impl ShardConfig {
    /// Shard on `key` across `shards` shards, no per-shard cache.
    pub fn new(shards: usize, key: impl Into<String>) -> Self {
        ShardConfig {
            shards,
            key: key.into(),
            cleanse_cache_capacity: None,
        }
    }

    /// Give every shard a cleansed-sequence cache of `capacity` entries.
    pub fn with_cleanse_cache(mut self, capacity: usize) -> Self {
        self.cleanse_cache_capacity = Some(capacity);
        self
    }
}

/// One query to run: application context, SQL, and per-query budget
/// overrides.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// Application whose cleansing rules apply.
    pub application: String,
    /// The SQL text.
    pub sql: String,
    /// Rewrite strategy (default [`Strategy::Auto`]).
    pub strategy: Strategy,
    /// Deadline measured from **submit** time — queue wait counts.
    pub deadline: Option<Duration>,
    /// Abort once the executor has emitted this many rows.
    pub row_limit: Option<u64>,
}

impl QueryRequest {
    /// A request with the cost-based default strategy and no budget.
    pub fn new(application: impl Into<String>, sql: impl Into<String>) -> Self {
        QueryRequest {
            application: application.into(),
            sql: sql.into(),
            strategy: Strategy::Auto,
            deadline: None,
            row_limit: None,
        }
    }

    /// Pin the rewrite strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Set a deadline, measured from submit time.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Set a row budget.
    pub fn with_row_limit(mut self, rows: u64) -> Self {
        self.row_limit = Some(rows);
        self
    }
}

/// Per-query service-side observations, attached to every reply (and to
/// [`ServiceError::Aborted`], so a timed-out caller still learns where the
/// time went).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceStats {
    /// Total appends across all shards at dispatch
    /// ([`EpochVector::total`]) — with one shard, the dense epoch itself.
    pub snapshot_epoch: u64,
    /// Per-shard epochs the query ran against (one entry per shard).
    pub epochs: EpochVector,
    /// Time spent queued before a worker picked the job up.
    pub queue_wait: Duration,
    /// Time from dispatch to reply (rewrite + execution).
    pub exec_time: Duration,
    /// Index of the worker that ran the query.
    pub worker: usize,
    /// Why the query aborted, when it did.
    pub abort_reason: Option<AbortReason>,
    /// The reply was cloned from an identical concurrent query's execution
    /// instead of being computed by this worker.
    pub coalesced: bool,
}

impl ServiceStats {
    /// The observations of an attempt that has not aborted (so far).
    fn new(
        epochs: EpochVector,
        queue_wait: Duration,
        exec_time: Duration,
        worker: usize,
        coalesced: bool,
    ) -> Self {
        ServiceStats {
            snapshot_epoch: epochs.total(),
            epochs,
            queue_wait,
            exec_time,
            worker,
            abort_reason: None,
            coalesced,
        }
    }

    /// One SQL-comment line for EXPLAIN ANALYZE output, e.g.
    /// `-- service: epoch=3 queue_wait_us=12 exec_us=480 worker=1`
    /// (plus ` epochs=1.0.2` with more than one shard).
    pub fn render_comment(&self) -> String {
        let mut line = format!(
            "-- service: epoch={} queue_wait_us={} exec_us={} worker={}",
            self.snapshot_epoch,
            self.queue_wait.as_micros(),
            self.exec_time.as_micros(),
            self.worker
        );
        if self.epochs.shards() > 1 {
            line.push_str(&format!(" epochs={}", self.epochs));
        }
        if self.coalesced {
            line.push_str(" coalesced");
        }
        if let Some(r) = self.abort_reason {
            line.push_str(&format!(" aborted={r}"));
        }
        line
    }
}

/// A completed query: rows, the rewrite/execution report, and what the
/// service observed along the way.
#[derive(Debug)]
pub struct QueryResponse {
    /// Result rows.
    pub batch: Batch,
    /// Rewrite decision + executor counters (see [`QueryReport`]).
    pub report: QueryReport,
    /// Queue wait, snapshot epochs, worker.
    pub service: ServiceStats,
}

/// Everything that can go wrong between submit and reply.
#[derive(Debug)]
pub enum ServiceError {
    /// The admission queue was full; try again later.
    Overloaded {
        /// The configured queue capacity the submission bounced off.
        capacity: usize,
    },
    /// The query tripped its budget: no rows were returned, and the
    /// service stats say which checkpoint fired.
    Aborted {
        /// Which budget fired.
        reason: AbortReason,
        /// Service-side timings for the aborted attempt.
        service: ServiceStats,
    },
    /// The engine rejected or failed the query (parse, plan, execution).
    Engine(Error),
    /// A shard executor was lost mid-query (its thread panicked). The
    /// query returns no rows; other shards' work is discarded.
    ShardUnavailable {
        /// Index of the shard that died.
        shard: usize,
    },
    /// The service is shutting down; the queue no longer accepts work.
    ShutDown,
    /// A time-travel request (`AS OF epoch E` or
    /// [`QueryService::query_as_of`]) could not be served: the service has
    /// no durable log, the epoch is outside the committed history, or the
    /// historical snapshot failed to materialize.
    TimeTravel(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Overloaded { capacity } => {
                write!(f, "service overloaded: admission queue full ({capacity})")
            }
            ServiceError::Aborted { reason, service } => {
                write!(
                    f,
                    "query aborted ({reason}) after {}us on epoch {}",
                    service.exec_time.as_micros(),
                    service.snapshot_epoch
                )
            }
            ServiceError::Engine(e) => write!(f, "{e}"),
            ServiceError::ShardUnavailable { shard } => {
                write!(f, "shard {shard} unavailable: executor lost mid-query")
            }
            ServiceError::ShutDown => write!(f, "service shut down"),
            ServiceError::TimeTravel(msg) => write!(f, "time travel: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<Error> for ServiceError {
    fn from(e: Error) -> Self {
        match e {
            Error::Aborted(reason) => ServiceError::Aborted {
                reason,
                service: ServiceStats {
                    abort_reason: Some(reason),
                    ..ServiceStats::new(
                        EpochVector::default(),
                        Duration::ZERO,
                        Duration::ZERO,
                        0,
                        false,
                    )
                },
            },
            other => ServiceError::Engine(other),
        }
    }
}

impl ServiceError {
    /// The abort reason, when this is a budget abort.
    pub fn abort_reason(&self) -> Option<AbortReason> {
        match self {
            ServiceError::Aborted { reason, .. } => Some(*reason),
            _ => None,
        }
    }
}

/// Lifetime counters of one service instance (monotone, relaxed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceCounters {
    /// Jobs accepted into the queue.
    pub admitted: u64,
    /// Submissions bounced for a full queue.
    pub rejected: u64,
    /// Queries that returned rows.
    pub completed: u64,
    /// Queries that tripped a budget.
    pub aborted: u64,
    /// Queries that failed in the engine.
    pub failed: u64,
    /// Batches appended (each may publish epochs on several shards).
    pub appends: u64,
    /// Queries answered by cloning an identical concurrent query's result
    /// instead of executing (see the module docs on work coalescing).
    pub coalesced: u64,
    /// Standing-query subscriptions ever registered.
    pub subscriptions: u64,
    /// Change sets computed for subscribers (one per live subscription per
    /// relevant publish).
    pub notifications: u64,
    /// Delta rows carried by those change sets (each update counts its old
    /// and new row).
    pub delta_rows: u64,
    /// Maintenance steps that recomputed the full result: fallback-mode
    /// subscriptions, forced re-seeds (e.g. a dimension-table append), and
    /// incremental-error downgrades.
    pub fallbacks: u64,
    /// Notifications lost to subscriber lag: change sets dropped on a full
    /// queue, steps skipped while a feed was already gapped, and failed
    /// steps surfaced as lag.
    pub dropped_for_lag: u64,
}

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
    /// [`AbortReason::Cancelled`]; a queued query aborts at dispatch. The
    /// token is shared by every shard executor, so one cancel stops the
    /// whole fan-out.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// The cancellation token, for wiring into external timeouts.
    pub fn cancel_token(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.cancel)
    }
}

/// Identity of an execution whose result is a pure function of service
/// state: two jobs with equal keys must produce byte-identical batches, so
/// their executions may be shared. The key carries the full epoch vector —
/// any shard advancing breaks the match.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct FlightKey {
    epochs: EpochVector,
    rules_version: u64,
    application: String,
    sql: String,
    strategy: Strategy,
}

/// One in-flight shared execution: the leader publishes, followers wait.
struct Flight {
    slot: Mutex<FlightState>,
    done: Condvar,
}

enum FlightState {
    Running,
    /// The leader failed or aborted — never shared; followers re-execute
    /// under their own budgets.
    NotShared,
    Done(Box<(Batch, QueryReport)>),
}

impl Flight {
    fn new() -> Self {
        Flight {
            slot: Mutex::new(FlightState::Running),
            done: Condvar::new(),
        }
    }

    /// Block until the leader publishes; `None` means run it yourself.
    fn wait(&self) -> Option<(Batch, QueryReport)> {
        let mut s = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        while matches!(*s, FlightState::Running) {
            s = self.done.wait(s).unwrap_or_else(|e| e.into_inner());
        }
        match &*s {
            FlightState::Done(shared) => Some((**shared).clone()),
            _ => None,
        }
    }

    fn publish(&self, result: Option<(Batch, QueryReport)>) {
        let mut s = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        *s = match result {
            Some(pair) => FlightState::Done(Box::new(pair)),
            None => FlightState::NotShared,
        };
        self.done.notify_all();
    }
}

enum Role {
    Leader(Arc<Flight>),
    Follower(Arc<Flight>),
}

impl Shared {
    /// Join an identical in-flight execution as a follower, or register a
    /// new one and lead it.
    fn join_or_lead(&self, key: &FlightKey) -> Role {
        let mut map = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
        match map.get(key) {
            Some(f) => Role::Follower(Arc::clone(f)),
            None => {
                let f = Arc::new(Flight::new());
                map.insert(key.clone(), Arc::clone(&f));
                Role::Leader(f)
            }
        }
    }

    /// Remove a led flight so later duplicates execute afresh (results are
    /// only shared between *concurrent* queries; nothing is memoized across
    /// time).
    fn release(&self, key: &FlightKey) {
        self.inflight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(key);
    }
}

/// One shard: its own deferred-cleansing system (shard-local catalog,
/// rules copy, shard-salted cleanse cache) and snapshot publication cell.
struct ShardState {
    system: DeferredCleansingSystem,
    snapshots: SnapshotCell,
}

impl ShardState {
    /// Freeze `system`'s catalog as `epoch`: 0 for a fresh service, the
    /// recovered shard epoch after a restart.
    fn at_epoch(system: DeferredCleansingSystem, epoch: u64) -> Self {
        let frozen = Arc::new(system.catalog().overlay());
        ShardState {
            system,
            snapshots: SnapshotCell::at_epoch(frozen, epoch),
        }
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

    /// Per-shard snapshots as of global epoch `global`, materialized from
    /// the durable log (shards already at the requested epoch reuse their
    /// live snapshot). Historical tables carry the same segment ids as the
    /// live prefix, so shard cleanse caches stay sound across time travel.
    fn historical_snapshots(&self, global: u64) -> Result<Vec<Arc<Snapshot>>, ServiceError> {
        let durable = self.durable.as_ref().ok_or_else(|| {
            ServiceError::TimeTravel(
                "as of epoch requires a durable service (see QueryService::start_sharded_durable)"
                    .into(),
            )
        })?;
        let vector = durable.resolve_vector(global).ok_or_else(|| {
            ServiceError::TimeTravel(format!(
                "epoch {global} outside the committed history (0..={})",
                durable.latest_global()
            ))
        })?;
        let mut snaps = Vec::with_capacity(vector.0.len());
        for (i, &epoch) in vector.0.iter().enumerate() {
            let live = self.shards[i].snapshots.load();
            if live.epoch == epoch {
                snaps.push(live);
                continue;
            }
            let catalog = durable.historical_catalog(i, epoch).map_err(|e| {
                ServiceError::TimeTravel(format!("materialize shard {i} at epoch {epoch}: {e}"))
            })?;
            snaps.push(Arc::new(Snapshot { epoch, catalog }));
        }
        Ok(snaps)
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

    /// Run `req` inline (not queued) against the live snapshots, or those
    /// of global `epoch`, under the request's budget.
    fn run_inline(
        &self,
        req: &QueryRequest,
        epoch: Option<u64>,
    ) -> Result<(RunDetail, ServiceStats), ServiceError> {
        let (sql, snaps) = self.resolve(&req.sql, epoch)?;
        let start = Instant::now();
        let budget = self.budget(req, start);
        let result = self.run_detail(&snaps, &req.application, &sql, req.strategy, budget);
        // `usize::MAX`: inline, not a pool worker.
        let stats = ServiceStats::new(
            epochs_of(&snaps),
            Duration::ZERO,
            start.elapsed(),
            usize::MAX,
            false,
        );
        self.settle(result, stats)
    }
}

/// What one query execution looked like, shard by shard.
struct ShardObservation {
    shard: usize,
    epoch: u64,
    rows: u64,
    segments_scanned: u64,
    segments_pruned: u64,
}

impl ShardObservation {
    fn of(shard: usize, snap: &Snapshot, run: &Executed) -> Self {
        ShardObservation {
            shard,
            epoch: snap.epoch,
            rows: run.batch.num_rows() as u64,
            segments_scanned: run.stats.segments_scanned,
            segments_pruned: run.stats.segments_pruned,
        }
    }
}

/// A finished run, kept whole: the rewrite that ran, its (gathered)
/// execution, and what each shard contributed. The reply path folds it
/// into a [`QueryReport`]; EXPLAIN ANALYZE renders the same run.
struct RunDetail {
    /// The catalog `rewritten` was planned against (shard 0's snapshot, or
    /// the merged view of the coordinator fallback).
    catalog: CatalogRef,
    rewritten: Rewritten,
    strategy: Strategy,
    run: Executed,
    elapsed: Duration,
    per_shard: Vec<ShardObservation>,
    /// `"single-shard"`, `"scatter"`, or `"coordinator"` (unshardable
    /// fallback).
    mode: &'static str,
}

impl RunDetail {
    /// The reply: result rows plus the report of this run.
    fn into_reply(self, parallelism: usize) -> (Batch, QueryReport) {
        QueryReport::from_run(
            &format!("{:?}", self.strategy),
            self.rewritten,
            self.run,
            self.elapsed,
            parallelism,
        )
    }
}

impl Shared {
    /// Plan `sql` against the coordinator's snapshot and run it.
    fn run_detail(
        &self,
        snaps: &[Arc<Snapshot>],
        application: &str,
        sql: &str,
        strategy: Strategy,
        budget: QueryBudget,
    ) -> Result<RunDetail, ServiceError> {
        let start = Instant::now();
        let user_plan = plan_query(&parse_query(sql)?, &snaps[0].catalog)?;
        self.run_plan(snaps, application, &user_plan, strategy, budget, start)
    }

    /// The rewrite + execute pipeline for one planned query against the
    /// loaded snapshots: rewrite once at the coordinator, decompose, run
    /// where the data is, merge. A plan touching no partitioned table —
    /// every plan of a one-shard service — is answered by shard 0 directly.
    fn run_plan(
        &self,
        snaps: &[Arc<Snapshot>],
        application: &str,
        user_plan: &LogicalPlan,
        strategy: Strategy,
        budget: QueryBudget,
        start: Instant,
    ) -> Result<RunDetail, ServiceError> {
        let coord = self.coordinator();
        let mut catalog = Arc::clone(&snaps[0].catalog);
        let mut rewritten =
            coord.rewrite_plan_snapshot(&catalog, application, user_plan, strategy)?;
        let (run, per_shard, mode) = match split_scatter(&rewritten.plan, &self.router.spec) {
            ScatterPlan::SingleShard => {
                let run = coord.execute_rewritten_snapshot(&catalog, &rewritten, budget)?;
                if self.shards.len() > 1 {
                    rewritten
                        .notes
                        .push("scatter: replicated-only plan, answered by shard 0".into());
                }
                let per = vec![ShardObservation::of(0, &snaps[0], &run)];
                (run, per, "single-shard")
            }
            ScatterPlan::Scatter {
                shard_plan,
                steps,
                reuses_plan,
            } => {
                let parts =
                    self.execute_on_shards(&rewritten, &shard_plan, reuses_plan, snaps, &budget)?;
                let shard_batches: Vec<Batch> = parts.iter().map(|e| e.batch.clone()).collect();
                let (batch, outcome) =
                    gather(&shard_batches, &steps).map_err(ServiceError::from)?;
                let mut stats = ExecStats::default();
                let mut window_eval_nanos = 0u64;
                for e in &parts {
                    stats.add(&e.stats);
                    window_eval_nanos += e.window_eval_nanos;
                }
                stats.shard_rows_merged += outcome.shard_rows_merged;
                stats.sort_comparisons += outcome.sort_comparisons;
                stats.merge_runs_used += outcome.merge_runs_used;
                stats.add_hash(&outcome.hash);
                let per = parts
                    .iter()
                    .enumerate()
                    .map(|(i, e)| ShardObservation::of(i, &snaps[i], e))
                    .collect();
                rewritten.notes.push(format!(
                    "scatter: {} shards, {} gather step(s){}",
                    self.shards.len(),
                    steps.len(),
                    if reuses_plan {
                        ", cached shard path"
                    } else {
                        ""
                    }
                ));
                let run = Executed {
                    batch,
                    stats,
                    window_eval_nanos,
                    metrics: combine_metrics(&parts),
                };
                (run, per, "scatter")
            }
            ScatterPlan::Unshardable => {
                // No sound decomposition: merge the partitioned tables into
                // a coordinator-side view and execute there, bypassing the
                // shard caches (the merged tables are transient, so their
                // segment ids must never validate cached entries).
                catalog = Arc::new(merged_catalog(&self.router, snaps)?);
                rewritten =
                    coord.rewrite_plan_snapshot(&catalog, application, user_plan, strategy)?;
                let run = rewritten.execute_with_budget(&catalog, coord.exec_options(), budget)?;
                rewritten.notes.push(
                    "scatter: unshardable plan, executed at coordinator over merged shards".into(),
                );
                // No shard ran anything: the `epochs=` of the service line
                // already says what the merged view was built from.
                (run, Vec::new(), "coordinator")
            }
        };
        Ok(RunDetail {
            catalog,
            rewritten,
            strategy,
            run,
            elapsed: start.elapsed(),
            per_shard,
            mode,
        })
    }

    /// Fan `shard_plan` out to every shard in parallel. With `reuses_plan`
    /// the shard plan is byte-identical to the coordinator's rewritten
    /// plan, so each shard runs it through its own system (and shard-local
    /// cleanse cache); otherwise the decomposed plan executes directly. A
    /// panicking shard thread becomes [`ServiceError::ShardUnavailable`].
    fn execute_on_shards(
        &self,
        rewritten: &Rewritten,
        shard_plan: &LogicalPlan,
        reuses_plan: bool,
        snaps: &[Arc<Snapshot>],
        budget: &QueryBudget,
    ) -> Result<Vec<Executed>, ServiceError> {
        let fail = self.fail_shard.load(Ordering::Relaxed);
        let joined: Vec<std::thread::Result<Result<Executed, Error>>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .shards
                    .iter()
                    .enumerate()
                    .map(|(i, shard)| {
                        let b = budget.clone();
                        scope.spawn(move || {
                            assert!(i != fail, "injected shard failure");
                            if reuses_plan {
                                shard.system.execute_rewritten_snapshot(
                                    &snaps[i].catalog,
                                    rewritten,
                                    b,
                                )
                            } else {
                                let mut ex = Executor::with_budget(
                                    &snaps[i].catalog,
                                    shard.system.exec_options(),
                                    b,
                                );
                                let batch = ex.execute(shard_plan)?;
                                Ok(Executed {
                                    batch,
                                    stats: ex.stats,
                                    window_eval_nanos: ex.window_eval_nanos,
                                    metrics: ex.metrics,
                                })
                            }
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join()).collect()
            });
        let mut out = Vec::with_capacity(joined.len());
        for (i, r) in joined.into_iter().enumerate() {
            match r {
                Ok(Ok(e)) => out.push(e),
                Ok(Err(e)) => return Err(ServiceError::from(e)),
                Err(_) => return Err(ServiceError::ShardUnavailable { shard: i }),
            }
        }
        Ok(out)
    }
}

/// Merge per-shard metrics trees into one combined view when every shard
/// executed the same operator shape; `None` otherwise (per-shard trees are
/// not comparable, so no tree beats a wrong tree).
fn combine_metrics(parts: &[Executed]) -> Option<OperatorMetrics> {
    let mut iter = parts.iter();
    let mut combined = iter.next()?.metrics.clone()?;
    for e in iter {
        match &e.metrics {
            Some(m) if combined.merge_same_shape(m) => {}
            _ => return None,
        }
    }
    Some(combined)
}

/// A transient coordinator-side catalog where every partitioned table is
/// the shard-order concatenation of its shard parts (replicated tables are
/// shared from shard 0). Used for the unshardable fallback only.
fn merged_catalog(router: &Router, snaps: &[Arc<Snapshot>]) -> Result<Catalog, Error> {
    let merged = snaps[0].catalog.overlay();
    for name in &router.spec.partitioned {
        let mut parts = Vec::with_capacity(snaps.len());
        let template = snaps[0].catalog.get(name)?;
        for s in snaps {
            parts.push(s.catalog.get(name)?.data().clone());
        }
        let all = Batch::concat(&parts)?;
        merged.register(table_like(&template, all)?);
    }
    Ok(merged)
}

/// A shard's system over its own catalog: the rule set (restored from its
/// JSON form), the shard-salted cleanse cache, the shared parallelism.
fn shard_system(
    catalog: CatalogRef,
    rules_json: Option<&str>,
    cache_capacity: Option<usize>,
    shard: usize,
    parallelism: usize,
) -> Result<DeferredCleansingSystem, Error> {
    let mut sys = DeferredCleansingSystem::with_catalog(catalog);
    sys.set_parallelism(parallelism);
    if let Some(json) = rules_json {
        sys.load_rules_from_json(json)?;
    }
    if let Some(cap) = cache_capacity {
        sys.enable_cleanse_cache_for_shard(cap, shard as u64);
    }
    Ok(sys)
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
        let (shards, router) = Self::recovered_topology(&rec)?;
        let rules_version = rec.rules.as_ref().map_or(0, |(v, _)| *v);
        Ok(Self::spawn(
            shards,
            router,
            config,
            Some(rec.state),
            rules_version,
        ))
    }

    /// The one way a fresh service comes up. One shard keeps `system` as
    /// given; more shards split its catalog on `shard.key` and give every
    /// shard a copy of the rules; a durable root logs catalogs and rules as
    /// epoch 0. Only the first of those carries a derived rule input — the
    /// plan lives in `system`'s rewrite engine, a copy built from catalog
    /// and rules JSON silently cleanses over the empty stand-in table
    /// instead, the plan may read across cluster keys, and the log has no
    /// record for it — so the other two refuse one.
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
            let rules_json = system.rules_to_json();
            let parallelism = system.exec_options().parallelism;
            partition_catalog(system.catalog(), &router.spec, &router.partitioner, n)?
                .into_iter()
                .enumerate()
                .map(|(i, cat)| {
                    let cache = shard.cleanse_cache_capacity;
                    shard_system(Arc::new(cat), Some(&rules_json), cache, i, parallelism)
                })
                .collect::<Result<Vec<_>, Error>>()?
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
        let shards = systems
            .into_iter()
            .map(|sys| ShardState::at_epoch(sys, 0))
            .collect();
        Ok(Self::spawn(shards, router, config, durable, 0))
    }

    /// The shards and router a recovered durable root describes: one system
    /// per logged shard catalog, resuming at that shard's recovered epoch.
    fn recovered_topology(rec: &Recovered) -> Result<(Vec<ShardState>, Router), Error> {
        let rules_json = rec.rules.as_ref().map(|(_, json)| json.as_str());
        let cache = (rec.cache_capacity > 0).then_some(rec.cache_capacity as usize);
        let shards = rec
            .catalogs
            .iter()
            .zip(&rec.shard_epochs)
            .enumerate()
            .map(|(i, (catalog, &epoch))| {
                let sys = shard_system(Arc::clone(catalog), rules_json, cache, i, 1)?;
                Ok(ShardState::at_epoch(sys, epoch))
            })
            .collect::<Result<Vec<_>, Error>>()?;
        let router = Router::new(&rec.catalogs[0], &rec.key, shards.len());
        Ok((shards, router))
    }

    /// Assemble the shared state and start the worker pool.
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

    /// EXPLAIN ANALYZE through the service: runs inline (not queued)
    /// against the current snapshots — or, with an `AS OF epoch E` clause,
    /// the historical ones — under the request's budget, counted like any
    /// other query, and renders that one run: the service comment line
    /// (`-- service: epoch=… queue_wait_us=… …`), then the engine's report
    /// with the (shard-combined) operator metrics. With more than one
    /// shard a `-- shards:` header and one `-- shard i:` line per shard
    /// (epoch, partial rows, segment-prune counters) come in between.
    pub fn explain_analyze(&self, req: &QueryRequest) -> Result<String, ServiceError> {
        let (detail, stats) = self.shared.run_inline(req, None)?;
        let mut out = stats.render_comment();
        out.push('\n');
        if self.shard_count() > 1 {
            let router = &self.shared.router;
            out.push_str(&format!(
                "-- shards: n={} mode={} partitioner={} key={} rows_merged={}\n",
                self.shard_count(),
                detail.mode,
                router.partitioner.name(),
                router.spec.key,
                detail.run.stats.shard_rows_merged,
            ));
            for o in &detail.per_shard {
                out.push_str(&format!(
                    "-- shard {}: epoch={} rows={} segments_scanned={} segments_pruned={}\n",
                    o.shard, o.epoch, o.rows, o.segments_scanned, o.segments_pruned,
                ));
            }
        }
        let report = self.shared.coordinator().explain_rewritten(
            &detail.catalog,
            detail.strategy,
            detail.rewritten,
            Some(detail.run),
        )?;
        out.push_str(&report.text());
        Ok(out)
    }

    /// Run one query against the service as of global epoch `epoch`,
    /// reconstructed from the durable log: shard snapshots materialize at
    /// the per-shard epoch vector that global epoch committed, opening
    /// only the segment files those epochs contain. Runs inline (not
    /// queued) under the request's budget, counted like any other query.
    /// Requires a durable service; the equivalent SQL form is an
    /// `AS OF epoch E` suffix on any submitted query (a clause in `req`'s
    /// SQL is ignored here: the explicit `epoch` wins).
    pub fn query_as_of(
        &self,
        req: &QueryRequest,
        epoch: u64,
    ) -> Result<QueryResponse, ServiceError> {
        let (detail, service) = self.shared.run_inline(req, Some(epoch))?;
        let (batch, report) =
            detail.into_reply(self.shared.coordinator().exec_options().parallelism);
        Ok(QueryResponse {
            batch,
            report,
            service,
        })
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

impl QueryService {
    /// Append `batch` to `table` and publish the next epoch(s). All the
    /// append work (key routing, row concatenation, segment sealing, index
    /// extension, cleanse cache invalidation) happens on private overlays
    /// outside the publication cells — readers never wait on it.
    ///
    /// Rows of a partitioned table are routed on the cluster key first:
    /// only the shards that received rows publish a new epoch. Any other
    /// table — every table of a one-shard service — is appended to every
    /// shard. Returns an [`AppendOutcome`]: the last snapshot published by
    /// this call (shard 0's current snapshot if the batch was empty), the
    /// epoch vector it advanced to, and the cluster keys and shards the
    /// batch touched — computed once here so standing-query maintenance
    /// never rescans the batch.
    ///
    /// Before returning, every live subscription is advanced past the
    /// publish (still under the ingest lock), pushing one change set per
    /// relevant feed.
    pub fn append(&self, table: &str, batch: Batch) -> Result<AppendOutcome, Error> {
        let _serial = self.ingest.lock().unwrap_or_else(|e| e.into_inner());
        self.shared.appends.fetch_add(1, Ordering::Relaxed);
        let lowered = table.to_ascii_lowercase();
        let rows = batch.num_rows();
        let touched_keys = match self.cluster_key_column(&lowered) {
            Some(col) => distinct_keys(&batch, &col),
            None => Vec::new(),
        };
        // Stage every touched shard's next overlay first, publishing
        // nothing: a durable service must land the whole append in the
        // write-ahead logs (all shard commits, then the manifest's global
        // commit) before any reader can observe it.
        struct Staged {
            shard: usize,
            next: Catalog,
            table: Arc<dc_relational::table::Table>,
            prev_segments: usize,
            epoch: u64,
        }
        let mut staged: Vec<Staged> = Vec::new();
        let mut stage = |shard: usize, part: Batch| -> Result<(), Error> {
            let current = self.shared.shards[shard].snapshots.load();
            let prev_segments = current.catalog.get(&lowered)?.segments().len();
            let next = current.catalog.overlay();
            let appended = next.append(table, part)?;
            staged.push(Staged {
                shard,
                next,
                table: appended,
                prev_segments,
                epoch: current.epoch + 1,
            });
            Ok(())
        };
        let router = &self.shared.router;
        let shards = self.shared.shards.len();
        if router.spec.partitioned.contains(&lowered) {
            let key_idx = batch.schema().index_of_name(&router.spec.key)?;
            let parts = split_batch(&batch, key_idx, &router.partitioner, shards)?;
            for (i, part) in parts.into_iter().enumerate() {
                if part.num_rows() > 0 {
                    stage(i, part)?;
                }
            }
        } else {
            // Replicated table: every shard gets the same rows.
            for i in 0..shards - 1 {
                stage(i, batch.clone())?;
            }
            stage(shards - 1, batch)?;
        }
        if let Some(durable) = &self.shared.durable {
            if !staged.is_empty() {
                let mut vector = self.epoch_vector();
                for s in &staged {
                    vector.0[s.shard] = s.epoch;
                }
                let entries: Vec<StagedAppend<'_>> = staged
                    .iter()
                    .map(|s| StagedAppend {
                        shard: s.shard,
                        table: &s.table,
                        prev_segments: s.prev_segments,
                        epoch: s.epoch,
                    })
                    .collect();
                // On failure nothing publishes: readers keep the last
                // durable epoch, exactly what a restart would recover.
                durable.commit_append(&entries, &vector).map_err(log_err)?;
            }
        }
        let mut touched_shards = Vec::with_capacity(staged.len());
        let mut last = None;
        for s in staged {
            last = Some(self.shared.shards[s.shard].snapshots.publish(s.next));
            touched_shards.push(s.shard);
        }
        let snapshot = last.unwrap_or_else(|| self.shared.shards[0].snapshots.load());
        let outcome = AppendOutcome {
            snapshot,
            epochs: self.epoch_vector(),
            table: lowered,
            touched_keys,
            touched_shards,
            rows,
        };
        self.maintain_subscriptions(&outcome);
        Ok(outcome)
    }

    /// Define a cleansing rule on every shard (schemas are identical, so
    /// validation agrees everywhere; a rule rejected on shard 0 is applied
    /// nowhere). Bumps the rule-set version so in-flight work coalescing
    /// never pairs queries across a rule change.
    /// On a durable service the new rules version is logged (and fsynced)
    /// to every shard's commit log before this returns, so a restart
    /// restores the same rule set.
    pub fn define_rule(&self, application: &str, rule_text: &str) -> Result<u64, Error> {
        // Serialize with appends so logged rules versions interleave with
        // epoch commits in a single order.
        let _serial = self.ingest.lock().unwrap_or_else(|e| e.into_inner());
        let mut id = 0;
        for shard in &self.shared.shards {
            id = shard.system.define_rule(application, rule_text)?;
        }
        let version = self.shared.rules_version.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(durable) = &self.shared.durable {
            let json = self.shared.coordinator().rules_to_json();
            durable.log_rules(version, &json).map_err(log_err)?;
        }
        Ok(id)
    }
}

fn worker_loop(shared: &Shared, worker: usize) {
    while let Some(job) = shared.queue.pop() {
        let queue_wait = job.submitted.elapsed();
        // The caller may have dropped its ticket; losing the reply is fine.
        let _ = job.reply.send(answer(shared, &job, queue_wait, worker));
    }
}

/// One queued job, dispatch to reply: resolve its snapshots, run it (or
/// share an identical concurrent run) under its budget, settle the outcome.
fn answer(
    shared: &Shared,
    job: &Job,
    queue_wait: Duration,
    worker: usize,
) -> Result<QueryResponse, ServiceError> {
    let req = &job.req;
    let (sql, snaps) = shared.resolve(&req.sql, None)?;
    let epochs = epochs_of(&snaps);
    let budget = shared
        .budget(req, job.submitted)
        .with_cancel(Arc::clone(&job.cancel));
    let start = Instant::now();
    let key = FlightKey {
        epochs: epochs.clone(),
        rules_version: shared.rules_version.load(Ordering::Relaxed),
        application: req.application.clone(),
        sql,
        strategy: req.strategy,
    };
    let run = || {
        let parallelism = shared.coordinator().exec_options().parallelism;
        shared
            .run_detail(
                &snaps,
                &req.application,
                &key.sql,
                req.strategy,
                budget.clone(),
            )
            .map(|detail| detail.into_reply(parallelism))
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
    let ((batch, report), service) = shared.settle(result, stats)?;
    Ok(QueryResponse {
        batch,
        report,
        service,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_relational::batch::schema_ref;
    use dc_relational::schema::{Field, Schema};
    use dc_relational::table::{Catalog, Table};
    use dc_relational::value::{DataType, Value};
    use dc_stream::StreamError;

    const DUP: &str = "DEFINE duplicate ON caseR CLUSTER BY epc SEQUENCE BY rtime AS (A, B) \
        WHERE A.biz_loc = B.biz_loc and B.rtime - A.rtime < 5 mins ACTION DELETE B";

    fn reads_schema() -> dc_relational::schema::SchemaRef {
        schema_ref(Schema::new(vec![
            Field::new("epc", DataType::Str),
            Field::new("rtime", DataType::Int),
            Field::new("biz_loc", DataType::Str),
        ]))
    }

    fn row(epc: &str, rtime: i64, loc: &str) -> Vec<Value> {
        vec![Value::str(epc), Value::Int(rtime), Value::str(loc)]
    }

    fn small() -> Vec<Vec<Value>> {
        vec![
            row("e1", 0, "shelf"),
            row("e1", 60, "shelf"),
            row("e2", 10, "dock"),
        ]
    }

    fn large() -> Vec<Vec<Value>> {
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

    /// `rows` as `caser` under the duplicate rule, served by `shards`
    /// shards keyed on `epc`.
    fn service(rows: &[Vec<Value>], shards: usize) -> QueryService {
        let catalog = Arc::new(Catalog::new());
        catalog.register(Table::new(
            "caser",
            Batch::from_rows(reads_schema(), rows).unwrap(),
        ));
        let sys = DeferredCleansingSystem::with_catalog(catalog);
        sys.define_rule("app", DUP).unwrap();
        let config = ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        };
        QueryService::start_sharded(sys, config, ShardConfig::new(shards, "epc")).unwrap()
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
    fn append_publishes_new_epoch_and_queries_see_it() {
        let svc = service(&small(), 1);
        let before = svc
            .execute(QueryRequest::new("app", "select epc from caser"))
            .unwrap();
        assert_eq!(before.service.snapshot_epoch, 0);

        let outcome = svc
            .append(
                "caser",
                Batch::from_rows(reads_schema(), &[row("e3", 700, "gate")]).unwrap(),
            )
            .unwrap();
        assert_eq!(outcome.snapshot.epoch, 1);
        assert_eq!(outcome.epochs.total(), 1);
        assert_eq!(outcome.table, "caser");
        assert_eq!(outcome.touched_keys, vec![Value::str("e3")]);
        assert_eq!(outcome.touched_shards, vec![0]);
        assert_eq!(svc.epoch(), 1);

        let after = svc
            .execute(QueryRequest::new("app", "select epc from caser"))
            .unwrap();
        assert_eq!(after.service.snapshot_epoch, 1);
        assert_eq!(after.batch.num_rows(), before.batch.num_rows() + 1);
        assert_eq!(svc.counters().appends, 1);
    }

    fn rows_of(batch: &Batch) -> Vec<Vec<Value>> {
        let mut rows: Vec<Vec<Value>> = (0..batch.num_rows()).map(|i| batch.row(i)).collect();
        rows.sort_by(|a, b| dc_relational::delta::cmp_rows(a, b));
        rows
    }

    #[test]
    fn subscribe_streams_incremental_deltas() {
        let svc = service(&small(), 1);
        let sub = svc
            .subscribe(
                "app",
                "select epc, rtime from caser",
                crate::SubscribeOptions::default(),
            )
            .unwrap();
        assert_eq!(sub.mode(), "scoped");
        assert_eq!(sub.initial().num_rows(), 2); // duplicate removed
        assert_eq!(*sub.epochs(), EpochVector(vec![0]));

        // A new reading for e1, far outside the duplicate window.
        svc.append(
            "caser",
            Batch::from_rows(reads_schema(), &[row("e1", 700, "gate")]).unwrap(),
        )
        .unwrap();
        let cs = sub.try_next().unwrap().expect("one change set");
        assert_eq!(cs.epochs, EpochVector(vec![1]));
        assert_eq!(cs.inserted, vec![vec![Value::str("e1"), Value::Int(700)]]);
        assert!(cs.deleted.is_empty() && cs.updated.is_empty());
        assert!(!cs.stats.fallback);
        assert!(cs
            .render_comment()
            .starts_with("-- stream: epochs=1 mode=scoped ckeys=1"));

        // Folding the delta over the initial result reproduces a cold run.
        let mut folded: Vec<Vec<Value>> = (0..sub.initial().num_rows())
            .map(|i| sub.initial().row(i))
            .collect();
        cs.apply(&mut folded).unwrap();
        folded.sort_by(|a, b| dc_relational::delta::cmp_rows(a, b));
        let cold = svc
            .execute(QueryRequest::new("app", "select epc, rtime from caser"))
            .unwrap();
        assert_eq!(folded, rows_of(&cold.batch));

        let c = svc.counters();
        assert_eq!(c.subscriptions, 1);
        assert_eq!(c.notifications, 1);
        assert_eq!(c.delta_rows, 1);
        assert_eq!(c.fallbacks, 0);
        assert_eq!(c.dropped_for_lag, 0);
    }

    #[test]
    fn lagged_subscription_resyncs_and_resumes() {
        let svc = service(&small(), 1);
        let sub = svc
            .subscribe(
                "app",
                "select epc, rtime from caser",
                crate::SubscribeOptions::default().with_queue_capacity(1),
            )
            .unwrap();
        for t in [700, 1400, 2100] {
            svc.append(
                "caser",
                Batch::from_rows(reads_schema(), &[row("e9", t, "gate")]).unwrap(),
            )
            .unwrap();
        }
        // Queued prefix first, then the gap error.
        assert!(sub.try_next().unwrap().is_some());
        assert!(matches!(
            sub.try_next().unwrap_err(),
            StreamError::Lagged { missed } if missed >= 1
        ));
        assert!(svc.counters().dropped_for_lag >= 1);

        // Resync restarts the feed from a fresh full result.
        let (base, epochs) = svc.resync(&sub).unwrap();
        assert_eq!(epochs, EpochVector(vec![3]));
        let cold = svc
            .execute(QueryRequest::new("app", "select epc, rtime from caser"))
            .unwrap();
        assert_eq!(rows_of(&base), rows_of(&cold.batch));
        svc.append(
            "caser",
            Batch::from_rows(reads_schema(), &[row("e9", 2800, "gate")]).unwrap(),
        )
        .unwrap();
        let cs = sub.try_next().unwrap().expect("feed resumed");
        assert_eq!(cs.epochs, EpochVector(vec![4]));
        assert_eq!(cs.inserted, vec![vec![Value::str("e9"), Value::Int(2800)]]);
    }

    #[test]
    fn unsubscribe_stops_notifications() {
        let svc = service(&small(), 1);
        let sub = svc
            .subscribe(
                "app",
                "select epc from caser",
                crate::SubscribeOptions::default(),
            )
            .unwrap();
        svc.unsubscribe(&sub);
        svc.append(
            "caser",
            Batch::from_rows(reads_schema(), &[row("e3", 700, "gate")]).unwrap(),
        )
        .unwrap();
        assert_eq!(svc.counters().notifications, 0);
        assert!(matches!(sub.try_next().unwrap_err(), StreamError::Closed));
    }

    #[test]
    fn overload_rejects_with_capacity() {
        let catalog = Arc::new(Catalog::new());
        catalog.register(Table::new(
            "caser",
            Batch::from_rows(reads_schema(), &[row("e1", 0, "shelf")]).unwrap(),
        ));
        let sys = DeferredCleansingSystem::with_catalog(catalog);
        let svc = QueryService::start(
            sys,
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
    fn concurrent_duplicates_coalesce_and_match() {
        let catalog = Arc::new(Catalog::new());
        let rows: Vec<Vec<Value>> = (0..512)
            .map(|i| {
                row(
                    &format!("e{}", i % 64),
                    i,
                    if i % 2 == 0 { "shelf" } else { "dock" },
                )
            })
            .collect();
        catalog.register(Table::new(
            "caser",
            Batch::from_rows(reads_schema(), &rows).unwrap(),
        ));
        let sys = DeferredCleansingSystem::with_catalog(catalog);
        sys.define_rule("app", DUP).unwrap();
        let svc = QueryService::start(
            sys,
            ServiceConfig {
                workers: 4,
                queue_capacity: 32,
                ..ServiceConfig::default()
            },
        );
        let tickets: Vec<_> = (0..16)
            .map(|_| {
                svc.submit(QueryRequest::new("app", "select epc, rtime from caser"))
                    .unwrap()
            })
            .collect();
        let responses: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        // Coalesced or not, every reply is byte-identical.
        let expected = responses[0].batch.sorted_rows();
        for r in &responses {
            assert_eq!(r.batch.sorted_rows(), expected);
        }
        // With 4 workers draining 16 identical queued jobs, some must have
        // overlapped with a leader's execution.
        assert!(
            svc.counters().coalesced > 0,
            "expected at least one coalesced reply: {:?}",
            svc.counters()
        );
        assert!(responses.iter().any(|r| r.service.coalesced));
    }

    #[test]
    fn explain_analyze_carries_service_line() {
        let svc = service(&small(), 1);
        let text = svc
            .explain_analyze(&QueryRequest::new("app", "select epc from caser"))
            .unwrap();
        assert!(text.starts_with("-- service: epoch=0 "), "got: {text}");
        assert!(!text.contains("-- shard"), "got: {text}");
        assert!(text.contains("-- chosen:"));
        assert!(text.contains("rows_out="));
        assert_eq!(svc.counters().completed, 1);
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
    fn sharded_scatter_reports_merge_counters() {
        let sharded = service(&large(), 4);
        let resp = sharded
            .execute(QueryRequest::new("app", "select epc, rtime from caser"))
            .unwrap();
        assert!(
            resp.report.stats.shard_rows_merged > 0,
            "scatter runs count merged partials: {:?}",
            resp.report.stats
        );
        assert!(resp
            .report
            .notes
            .iter()
            .any(|n| n.starts_with("scatter: 4 shards")));
    }

    #[test]
    fn sharded_rule_definition_broadcasts() {
        let (sharded, unsharded) = (service(&large(), 2), service(&large(), 1));
        // A second rule tightens cleansing on both services identically.
        const RULE2: &str = "DEFINE dup2 ON caseR CLUSTER BY epc SEQUENCE BY rtime AS (A, B) \
            WHERE B.rtime - A.rtime < 1 mins ACTION DELETE B";
        sharded.define_rule("app", RULE2).unwrap();
        unsharded.define_rule("app", RULE2).unwrap();
        let a = sharded
            .execute(QueryRequest::new("app", "select epc, rtime from caser"))
            .unwrap();
        let b = unsharded
            .execute(QueryRequest::new("app", "select epc, rtime from caser"))
            .unwrap();
        assert_eq!(a.batch.sorted_rows(), b.batch.sorted_rows());
    }

    #[test]
    fn shard_failure_is_typed() {
        let sharded = service(&large(), 3);
        sharded.inject_shard_failure(1);
        let err = sharded
            .execute(QueryRequest::new("app", "select epc, rtime from caser"))
            .unwrap_err();
        assert!(
            matches!(err, ServiceError::ShardUnavailable { shard: 1 }),
            "got: {err}"
        );
        assert_eq!(sharded.counters().failed, 1);
        // Recovery: clearing the fault restores service.
        sharded.clear_shard_failure();
        sharded
            .execute(QueryRequest::new("app", "select epc, rtime from caser"))
            .unwrap();
    }

    #[test]
    fn sharded_explain_analyze_carries_shard_lines() {
        let sharded = service(&large(), 2);
        let text = sharded
            .explain_analyze(&QueryRequest::new("app", "select epc, rtime from caser"))
            .unwrap();
        assert!(text.starts_with("-- service: epoch=0 "), "got: {text}");
        assert!(
            text.contains("-- shards: n=2 mode=scatter partitioner=hash key=epc"),
            "got: {text}"
        );
        assert!(text.contains("-- shard 0: epoch=0 rows="), "got: {text}");
        assert!(text.contains("-- shard 1: epoch=0 rows="), "got: {text}");
        assert!(text.contains("-- chosen:"));
        // The run it executed, not a second rewrite: combined metrics.
        assert!(text.contains("rows_out="), "got: {text}");
    }

    #[test]
    fn epoch_vector_renders_and_totals() {
        let v = EpochVector(vec![0, 3, 1, 2]);
        assert_eq!(v.to_string(), "0.3.1.2");
        assert_eq!(v.total(), 6);
        assert_eq!(v.shards(), 4);
    }
}
