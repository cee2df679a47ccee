//! What callers hand to a [`QueryService`](super::QueryService) and get back
//! from it: sizing and sharding configuration, the request, the reply with
//! its service-side observations, the typed errors, the lifetime counters.

use crate::snapshot::EpochVector;
use dc_core::{AbortReason, QueryReport, Strategy};
use dc_relational::batch::Batch;
use dc_relational::error::Error;
use std::fmt;
use std::time::Duration;

/// Sizing and default-budget knobs for a [`QueryService`](crate::QueryService).
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
    /// Time from dispatch (the worker's dequeue) to reply: resolving the
    /// snapshots, rewrite and execution.
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
    pub(super) fn new(
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
    /// [`crate::QueryService::query_as_of`]) could not be served: the service
    /// has no durable log, the epoch is outside the committed history, or
    /// the historical snapshot failed to materialize.
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
