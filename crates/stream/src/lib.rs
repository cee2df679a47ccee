//! Standing queries over deferred cleansing: incremental maintenance and
//! epoch change feeds.
//!
//! The paper cleanses at query time; this crate runs the same rule-based
//! cleansing *continuously*. A client subscribes to a query and receives
//! the initial result plus one [`ChangeSet`] per published epoch — the
//! exact multiset delta between the query's answer at the previous and new
//! snapshots. Folding the feed over the initial result reproduces a cold
//! re-execution at every epoch; that equivalence is the subsystem's
//! correctness contract and is enforced by the seeded battery in
//! `tests/stream_maintenance.rs`.
//!
//! The leverage comes from the paper's own partitioning: cleansing rules
//! group readings by the **cluster key** (CLUSTER BY, typically the EPC)
//! and sequences never interact across keys. An append therefore changes
//! the cleansed relation only for the keys it touches, so maintenance
//! re-cleanses just those sequences (a *scoped* re-execution of the plan,
//! see [`dc_relational::delta::scope_scans`]) and diffs old against new.
//! How the diff becomes a delta depends on the plan shape
//! ([`classify::classify`]):
//!
//! * **Scoped** — ckey-decomposable plans (filter/project/join-to-dims/
//!   per-ckey windows and aggregates): the scoped diff *is* the delta,
//!   applied per-row to the retained result;
//! * **Ordered** — a top-level `ORDER BY` (+ optional `LIMIT`) over a
//!   decomposable input keeps the full sorted buffer and reports changes
//!   to the visible prefix (top-k maintenance);
//! * **Aggregate** — global or non-ckey-grouped `count/sum/avg` over a
//!   decomposable input keeps exact per-group i128 accumulators updated
//!   from scoped partial aggregates;
//! * **Fallback** — anything undecomposable (DISTINCT, mid-plan LIMIT,
//!   `min`/`max`, floating-point sums, …) re-executes in full and diffs
//!   against the retained previous result. Always correct, counted
//!   separately so benchmarks can show how rarely it is needed.
//!
//! The crate is engine-agnostic plumbing over `dc-relational`; the service
//! layer implements [`maintain::MaintenanceRunner`] to execute plans
//! against its epoch-stamped snapshots and owns subscriptions, change
//! queues, and backpressure ([`channel::ChangeChannel`]).

use dc_relational::delta::{cmp_rows, remove_rows};
use dc_relational::error::Result;
use dc_relational::exec::ExecStats;
use dc_relational::value::Value;
use std::cmp::Ordering;
use std::fmt;

pub mod channel;
pub mod classify;
pub mod maintain;

pub use channel::{ChangeChannel, PushOutcome};
pub use classify::{classify, Classified};
pub use maintain::{MaintenanceRunner, StandingState};

/// The per-shard epochs one dispatch observed — a vector clock over the
/// shard snapshot cells. Component `i` is shard `i`'s publication epoch.
/// Two queries with equal epoch vectors (and equal rules) see identical
/// data and must produce identical results; the service keys its in-flight
/// work coalescing on exactly this, and every [`ChangeSet`] is tagged with
/// the vector it advances to. An unsharded service has a one-entry vector.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct EpochVector(pub Vec<u64>);

impl EpochVector {
    /// Sum of all components: the total number of appends applied across
    /// the service, and the dense epoch itself when there is one shard.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Number of shards the vector spans.
    pub fn shards(&self) -> usize {
        self.0.len()
    }
}

impl fmt::Display for EpochVector {
    /// Dot-joined components, e.g. `0.3.1.2`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, e) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(".")?;
            }
            write!(f, "{e}")?;
        }
        Ok(())
    }
}

/// A row wrapped with the engine's total value order so rows can key
/// ordered maps. `Null == Null` and doubles compare via `total_cmp`,
/// matching [`cmp_rows`] everywhere maintenance identifies rows.
#[derive(Debug, Clone)]
pub struct RowKey(pub Vec<Value>);

impl PartialEq for RowKey {
    fn eq(&self, other: &Self) -> bool {
        cmp_rows(&self.0, &other.0) == Ordering::Equal
    }
}
impl Eq for RowKey {}
impl PartialOrd for RowKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for RowKey {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_rows(&self.0, &other.0)
    }
}

/// Work accounting for one maintenance step, carried on every
/// [`ChangeSet`]. Renders as a `-- stream:` comment line in the style of
/// the service's `-- service:` EXPLAIN ANALYZE annotation.
#[derive(Debug, Clone, Default)]
pub struct MaintenanceStats {
    /// Epoch vector the subscription advanced to.
    pub epochs: EpochVector,
    /// Cluster keys the append touched (and maintenance re-cleansed).
    pub ckeys: usize,
    /// Maintenance strategy that produced the delta: `scoped`, `ordered`,
    /// `aggregate`, or `fallback`.
    pub mode: &'static str,
    /// Whether this step recomputed the full result and diffed it (either
    /// a fallback-mode subscription or a forced re-seed, e.g. after a
    /// dimension-table append).
    pub fallback: bool,
    /// Execution work done by the scoped / fallback re-executions,
    /// including the `maintenance_*` counters.
    pub exec: ExecStats,
}

impl MaintenanceStats {
    /// One-line observability comment, e.g.
    /// `-- stream: epochs=0.3 mode=scoped ckeys=2 recleansed_rows=41 delta=+3/-1/~0 fallback=false`.
    pub fn render_comment(&self, inserted: usize, deleted: usize, updated: usize) -> String {
        format!(
            "-- stream: epochs={} mode={} ckeys={} recleansed_rows={} delta=+{}/-{}/~{} fallback={}",
            self.epochs,
            self.mode,
            self.ckeys,
            self.exec.maintenance_scoped_rows,
            inserted,
            deleted,
            updated,
            self.fallback
        )
    }
}

/// The delta between a standing query's results at two consecutive epoch
/// vectors. `inserted`/`deleted` are multisets of whole result rows;
/// `updated` pairs an old row with its replacement (produced by aggregate
/// maintenance, where a group's row changes in place). Folding a feed of
/// change sets over the initial result with [`ChangeSet::apply`]
/// reproduces a cold re-execution at each tagged epoch vector.
#[derive(Debug, Clone, Default)]
pub struct ChangeSet {
    /// Epoch vector this change set advances the subscriber to.
    pub epochs: EpochVector,
    pub inserted: Vec<Vec<Value>>,
    pub deleted: Vec<Vec<Value>>,
    pub updated: Vec<(Vec<Value>, Vec<Value>)>,
    /// Work accounting and the `-- stream:` observability line.
    pub stats: MaintenanceStats,
}

impl ChangeSet {
    /// True when the epoch advanced but the result did not change.
    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty() && self.deleted.is_empty() && self.updated.is_empty()
    }

    /// Total rows carried (each update counts its old and new row).
    pub fn delta_rows(&self) -> usize {
        self.inserted.len() + self.deleted.len() + 2 * self.updated.len()
    }

    /// Fold this delta into a materialized result multiset: remove
    /// `deleted` and the old side of `updated`, add `inserted` and the new
    /// side. Errors, leaving `rows` untouched, if a removed row is absent
    /// — the feed and the materialization have diverged.
    pub fn apply(&self, rows: &mut Vec<Vec<Value>>) -> Result<()> {
        remove_rows(
            rows,
            self.deleted
                .iter()
                .chain(self.updated.iter().map(|(o, _)| o)),
        )?;
        rows.extend(self.inserted.iter().cloned());
        rows.extend(self.updated.iter().map(|(_, n)| n.clone()));
        Ok(())
    }

    /// The `-- stream:` comment line for this notification.
    pub fn render_comment(&self) -> String {
        self.stats
            .render_comment(self.inserted.len(), self.deleted.len(), self.updated.len())
    }
}

/// Typed errors a subscription consumer can observe on its change feed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// The subscriber fell behind: its bounded queue overflowed and
    /// `missed` change sets were dropped. The retained queue prefix is
    /// still delivered in order; after this error the feed stays silent
    /// until the subscription is resynchronized with a fresh full result.
    Lagged { missed: u64 },
    /// The subscription was closed (handle dropped, explicit unsubscribe,
    /// or service shutdown); no further change sets will arrive.
    Closed,
    /// `recv_timeout` elapsed without a notification.
    Timeout,
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Lagged { missed } => {
                write!(
                    f,
                    "subscriber lagged: {missed} change set(s) dropped; resync required"
                )
            }
            StreamError::Closed => f.write_str("subscription closed"),
            StreamError::Timeout => f.write_str("timed out waiting for a change set"),
        }
    }
}

impl std::error::Error for StreamError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|v| Value::Int(*v)).collect()
    }

    #[test]
    fn epoch_vector_display_and_total() {
        let ev = EpochVector(vec![0, 3, 1, 2]);
        assert_eq!(ev.to_string(), "0.3.1.2");
        assert_eq!(ev.total(), 6);
        assert_eq!(ev.shards(), 4);
    }

    #[test]
    fn changeset_apply_folds_multiset() {
        let mut rows = vec![iv(&[1]), iv(&[2]), iv(&[3])];
        let cs = ChangeSet {
            epochs: EpochVector(vec![1]),
            inserted: vec![iv(&[4])],
            deleted: vec![iv(&[1])],
            updated: vec![(iv(&[2]), iv(&[20]))],
            stats: MaintenanceStats::default(),
        };
        cs.apply(&mut rows).unwrap();
        rows.sort_by(|a, b| cmp_rows(a, b));
        assert_eq!(rows, vec![iv(&[3]), iv(&[4]), iv(&[20])]);
        assert_eq!(cs.delta_rows(), 4);
        assert!(!cs.is_empty());
    }

    #[test]
    fn changeset_apply_detects_divergence() {
        let mut rows = vec![iv(&[1])];
        let cs = ChangeSet {
            deleted: vec![iv(&[9])],
            ..Default::default()
        };
        assert!(cs.apply(&mut rows).is_err());
    }

    #[test]
    fn stream_comment_format() {
        let mut stats = MaintenanceStats {
            epochs: EpochVector(vec![0, 2]),
            ckeys: 3,
            mode: "scoped",
            fallback: false,
            exec: ExecStats::default(),
        };
        stats.exec.maintenance_scoped_rows = 41;
        assert_eq!(
            stats.render_comment(3, 1, 0),
            "-- stream: epochs=0.2 mode=scoped ckeys=3 recleansed_rows=41 delta=+3/-1/~0 fallback=false"
        );
    }
}
