//! Standing-query subscriptions: registration, the per-publish maintenance
//! driver, and the snapshot-backed [`MaintenanceRunner`].
//!
//! A subscription is created under the ingest lock, so its initial result
//! and the change feed tile the epoch line exactly: every publish after the
//! subscribe produces one [`ChangeSet`] (or a counted lag drop), and folding
//! the feed over the initial result reproduces a cold re-execution at each
//! epoch vector. The maintenance step itself lives in `dc-stream`
//! ([`StandingState::maintain`]); this module supplies what it cannot know —
//! which snapshots to run plans against, which cluster keys an append
//! touched (threaded through [`AppendOutcome`], so maintenance never
//! rescans the batch), and where the resulting change sets go
//! (backpressure-bounded [`ChangeChannel`]s).

use super::{epochs_of, QueryService, Shared};
use crate::snapshot::{EpochVector, Snapshot};
use crate::ServiceError;
use dc_core::{QueryBudget, Rewritten, Strategy};
use dc_relational::batch::Batch;
use dc_relational::delta;
use dc_relational::error::{Error, Result};
use dc_relational::exec::{ExecStats, Executor};
use dc_relational::plan::LogicalPlan;
use dc_relational::sql::{parse_query, plan_query};
use dc_relational::table::Catalog;
use dc_relational::value::Value;
use dc_stream::maintain::MaintenanceRunner;
use dc_stream::{
    classify, ChangeChannel, ChangeSet, Classified, RowKey, StandingState, StreamError,
};
use std::collections::BTreeSet;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What one [`QueryService::append`] did: the published snapshot, the
/// epoch vector it advanced the service to, and — for the standing-query
/// maintainer — exactly which cluster keys and shards the batch touched.
#[derive(Debug, Clone)]
pub struct AppendOutcome {
    /// The last snapshot published by this call (shard 0's current
    /// snapshot when the batch published nothing).
    pub snapshot: Arc<Snapshot>,
    /// Per-shard epochs after the publish.
    pub epochs: EpochVector,
    /// The appended table, lowercased.
    pub table: String,
    /// Distinct cluster-key values present in the batch, in first-seen
    /// order. Empty when no single cluster-key column could be resolved
    /// for the table (maintenance then falls back to recompute-and-diff).
    pub touched_keys: Vec<Value>,
    /// Shards that published a new epoch for this append.
    pub touched_shards: Vec<usize>,
    /// Rows in the appended batch.
    pub rows: usize,
}

/// Knobs for [`QueryService::subscribe`].
#[derive(Debug, Clone)]
pub struct SubscribeOptions {
    /// Rewrite strategy for the initial run and every maintenance
    /// re-execution (default [`Strategy::Auto`]).
    pub strategy: Strategy,
    /// Bound on undelivered change sets before the feed lags
    /// (default 16, minimum 1).
    pub queue_capacity: usize,
}

impl Default for SubscribeOptions {
    fn default() -> Self {
        SubscribeOptions {
            strategy: Strategy::Auto,
            queue_capacity: 16,
        }
    }
}

impl SubscribeOptions {
    /// Pin the rewrite strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Set the change-queue bound.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }
}

/// A live subscription: the initial result plus a bounded change feed.
/// Dropping the handle closes the feed; the service reaps the registration
/// on its next publish.
pub struct SubscriptionHandle {
    pub(super) id: u64,
    pub(super) initial: Batch,
    pub(super) epochs: EpochVector,
    pub(super) chan: Arc<ChangeChannel>,
    pub(super) mode: &'static str,
    pub(super) fallback_reason: Option<String>,
}

impl SubscriptionHandle {
    /// Registration id (unique per service instance).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The full result at subscribe time — the base the change feed folds
    /// over.
    pub fn initial(&self) -> &Batch {
        &self.initial
    }

    /// Epoch vector the initial result was computed at.
    pub fn epochs(&self) -> &EpochVector {
        &self.epochs
    }

    /// Maintenance mode the subscription was classified into (`scoped`,
    /// `ordered`, `aggregate`, or `fallback`).
    pub fn mode(&self) -> &'static str {
        self.mode
    }

    /// Why the subscription maintains by recompute-and-diff, when it does.
    pub fn fallback_reason(&self) -> Option<&str> {
        self.fallback_reason.as_deref()
    }

    /// Non-blocking poll of the change feed. `Ok(None)` means healthy but
    /// idle; [`StreamError::Lagged`] means the feed gapped and
    /// [`QueryService::resync`] is required before further deltas.
    pub fn try_next(&self) -> std::result::Result<Option<ChangeSet>, StreamError> {
        self.chan.try_recv()
    }

    /// Blocking receive with a timeout.
    pub fn next_timeout(&self, timeout: Duration) -> std::result::Result<ChangeSet, StreamError> {
        self.chan.recv_timeout(timeout)
    }

    /// Whether the feed has lagged (queue overflow) and needs a resync.
    pub fn is_lagged(&self) -> bool {
        self.chan.is_lagged()
    }
}

impl Drop for SubscriptionHandle {
    fn drop(&mut self) {
        self.chan.close();
    }
}

/// One registered subscription, shared between the registry and the
/// maintenance driver.
pub(super) struct SubEntry {
    pub(super) id: u64,
    application: String,
    sql: String,
    strategy: Strategy,
    pub(super) chan: Arc<ChangeChannel>,
    maint: Mutex<SubMaint>,
}

/// The mutable maintenance side of a subscription: retained standing state,
/// the snapshots it was last maintained against, its rewritten maintenance
/// plan, and the append-relevance metadata derived at subscribe time.
struct SubMaint {
    state: StandingState,
    /// Per-shard snapshots the state is current as of (the `prev` side of
    /// the next scoped run).
    prev: Vec<Arc<Snapshot>>,
    /// Lowercased tables whose appends can change this result: everything
    /// the user plan reads plus the application's rule tables.
    tables: BTreeSet<String>,
    /// The cleansed reads table and its cluster key (lowercased; empty when
    /// unresolved).
    table: String,
    ckey: String,
    /// Tables whose scans a keyed run restricts: the reads table and the
    /// rules' FROM table (lowercased).
    scoped: Vec<String>,
    /// The mode's maintenance plan, rewritten once at seed (`None` in
    /// fallback mode). A rule definition seeds the subscription anew, so
    /// the rewrite never outlives the rules it was made under.
    plan: Option<Rewritten>,
}

/// [`MaintenanceRunner`] over service snapshots: the subscription's
/// rewritten maintenance plan runs per shard, whole or restricted to the
/// appended keys; the fallback recompute goes through the service's own
/// scatter-gather path.
///
/// A restricted run ANDs `ckey IN K` into every scan of the reads table and
/// of the rules' FROM table in the rewritten plan — the join-back's
/// sequence set and outer arm alike — and executes it past the cleanse
/// cache: a cache spec built for the unscoped plan would answer for every
/// key. So no step rewrites anything.
struct SnapshotRunner<'a> {
    shared: &'a Shared,
    application: &'a str,
    sql: &'a str,
    strategy: Strategy,
    prev: &'a [Arc<Snapshot>],
    new: &'a [Arc<Snapshot>],
    plan: Option<&'a Rewritten>,
    scoped: &'a [String],
    ckey: &'a str,
}

fn rows_of(batch: &Batch) -> Vec<Vec<Value>> {
    (0..batch.num_rows()).map(|i| batch.row(i)).collect()
}

impl SnapshotRunner<'_> {
    fn run_on(
        &self,
        shard: usize,
        catalog: &Catalog,
        keys: Option<&[Value]>,
    ) -> Result<(Vec<Vec<Value>>, ExecStats)> {
        let system = &self.shared.shards[shard].system;
        let rewritten = self.plan.ok_or_else(|| {
            Error::Internal("a fallback subscription has no maintenance plan".into())
        })?;
        let Some(keys) = keys else {
            let run =
                system.execute_rewritten_snapshot(catalog, rewritten, QueryBudget::unlimited())?;
            return Ok((rows_of(&run.batch), run.stats));
        };
        let tables: Vec<&str> = self.scoped.iter().map(String::as_str).collect();
        let scoped = delta::scope_scans(&rewritten.plan, &tables, self.ckey, keys)
            .ok_or_else(|| Error::Internal("the maintenance plan has no reads scan".into()))?;
        let mut ex = Executor::with_options(catalog, system.exec_options());
        let batch = ex.execute(&scoped)?;
        Ok((rows_of(&batch), ex.stats))
    }
}

impl MaintenanceRunner for SnapshotRunner<'_> {
    fn shard_count(&self) -> usize {
        self.new.len()
    }

    fn run_prev(
        &mut self,
        shard: usize,
        keys: Option<&[Value]>,
    ) -> Result<(Vec<Vec<Value>>, ExecStats)> {
        self.run_on(shard, &self.prev[shard].catalog, keys)
    }

    fn run_new(
        &mut self,
        shard: usize,
        keys: Option<&[Value]>,
    ) -> Result<(Vec<Vec<Value>>, ExecStats)> {
        self.run_on(shard, &self.new[shard].catalog, keys)
    }

    fn run_full(&mut self) -> Result<(Vec<Vec<Value>>, ExecStats)> {
        let detail = self
            .shared
            .run_detail(
                self.new,
                self.application,
                self.sql,
                self.strategy,
                QueryBudget::unlimited(),
            )
            .map_err(|e| Error::Execution(format!("standing-query recompute failed: {e}")))?;
        Ok((rows_of(&detail.run.batch), detail.run.stats))
    }
}

/// Resolve the subscription's cleansing target: the single (reads table,
/// cluster key) pair the application's rules agree on, or `None` when there
/// are no rules or several targets (the subscription then maintains by
/// recompute-and-diff, which is always sound).
fn cleanse_target(shared: &Shared, application: &str) -> Option<(String, String)> {
    let mut targets: BTreeSet<(String, String)> = BTreeSet::new();
    for t in shared.coordinator().rules().rules_for(application) {
        targets.insert((
            t.def.on_table.to_ascii_lowercase(),
            t.def.cluster_by.to_ascii_lowercase(),
        ));
    }
    if targets.len() == 1 {
        targets.into_iter().next()
    } else {
        None
    }
}

/// Lowercased tables whose appends can change the subscription's result:
/// the plan's, the rules' ON and FROM tables, and every table a derived
/// input the rules read scans.
fn relevant_tables(shared: &Shared, application: &str, plan: &LogicalPlan) -> BTreeSet<String> {
    let mut tables = BTreeSet::new();
    delta::plan_tables(plan, &mut tables);
    let system = shared.coordinator();
    for t in system.rules().rules_for(application) {
        tables.insert(t.def.on_table.to_ascii_lowercase());
        tables.insert(t.def.from_table.to_ascii_lowercase());
        if let Some(derived) = system.derived_input(&t.def.from_table) {
            delta::plan_tables(&derived, &mut tables);
        }
    }
    tables
}

/// What [`QueryService::subscribe`], [`QueryService::resync`] and a rule
/// definition all start from: `sql` run in full at the current snapshots,
/// and the maintenance state seeded from that run — the query is parsed and
/// planned once, for the run, the classification and the retained state
/// alike, and the mode's maintenance plan is rewritten once. Call under the
/// ingest lock.
fn seed(
    shared: &Shared,
    application: &str,
    sql: &str,
    strategy: Strategy,
) -> std::result::Result<(Batch, EpochVector, SubMaint), ServiceError> {
    let start = Instant::now();
    let snaps = shared.load_snapshots();
    let user_plan = plan_query(&parse_query(sql)?, &snaps[0].catalog)?;
    let budget = QueryBudget::unlimited();
    let detail = shared.run_plan(&snaps, application, &user_plan, strategy, budget, start)?;
    let tables = relevant_tables(shared, application, &user_plan);
    let (table, ckey) = cleanse_target(shared, application).unwrap_or_default();
    let mut classified = if table.is_empty() {
        Classified::Fallback {
            reason: "application has no single cleansing target".into(),
        }
    } else {
        classify(&user_plan, &snaps[0].catalog, &table, &ckey)
    };
    let scoped = scoped_tables(shared, application, &table);
    let mut plan = match classified.maintenance_plan(&user_plan) {
        Some(user) => Some(shared.coordinator().rewrite_plan_snapshot(
            &snaps[0].catalog,
            application,
            &user,
            strategy,
        )?),
        None => None,
    };
    if let Some(reason) = plan.as_ref().and_then(|p| unscopable(shared, p, &scoped)) {
        classified = Classified::Fallback { reason };
        plan = None;
    }
    // Seed with both runner sides at the same snapshots: ordered and
    // aggregate modes build their retained buffers from `run_new`.
    let mut runner = SnapshotRunner {
        shared,
        application,
        sql,
        strategy,
        prev: &snaps,
        new: &snaps,
        plan: plan.as_ref(),
        scoped: &scoped,
        ckey: &ckey,
    };
    let state = StandingState::new(classified, rows_of(&detail.run.batch), &mut runner)?;
    let epochs = epochs_of(&snaps);
    let maint = SubMaint {
        state,
        prev: snaps,
        tables,
        table,
        ckey,
        scoped,
        plan,
    };
    Ok((detail.run.batch, epochs, maint))
}

/// The tables a keyed run restricts: the reads table and the FROM table of
/// each of the application's rules (validation guarantees a FROM table has
/// the cluster-key column).
fn scoped_tables(shared: &Shared, application: &str, table: &str) -> Vec<String> {
    let mut tables = BTreeSet::from([table.to_string()]);
    for r in shared.coordinator().rules().rules_for(application) {
        tables.insert(r.def.from_table.to_ascii_lowercase());
    }
    tables.into_iter().collect()
}

/// Why a key restriction of the rewritten maintenance plan would not be
/// the maintained slice of the result, if it would not: the rules read a
/// registered derived input — a plan whose rows for a key need not come
/// from the reads rows of that key (a pallet's reading yields its cases'
/// rows), so the appended keys do not bound what changed — or the rewrite
/// kept no scan to restrict.
fn unscopable(shared: &Shared, plan: &Rewritten, scoped: &[String]) -> Option<String> {
    let system = shared.coordinator();
    if let Some(name) = scoped.iter().find(|t| system.derived_input(t).is_some()) {
        return Some(format!(
            "the rules read the derived input '{name}', whose rows the appended keys do not bound"
        ));
    }
    let mut scanned = BTreeSet::new();
    delta::plan_tables(&plan.plan, &mut scanned);
    (!scoped.iter().any(|t| scanned.contains(t))).then(|| {
        format!(
            "the rewritten maintenance plan has no scan of '{}' to restrict",
            scoped.join("', '")
        )
    })
}

impl QueryService {
    /// Register a standing query: run it once against the current
    /// snapshots, classify it into a maintenance mode, seed the retained
    /// state, and return the initial result plus a change feed that emits
    /// one [`ChangeSet`] per subsequent publish of a relevant table.
    ///
    /// Runs under the ingest lock, so the initial result and the feed tile
    /// the epoch line with no gap and no overlap.
    pub fn subscribe(
        &self,
        application: &str,
        sql: &str,
        opts: SubscribeOptions,
    ) -> std::result::Result<SubscriptionHandle, ServiceError> {
        let _serial = self.ingest.lock().unwrap_or_else(|e| e.into_inner());
        let shared = &self.shared;
        let (initial, epochs, maint) = seed(shared, application, sql, opts.strategy)?;
        let id = shared.next_sub_id.fetch_add(1, Ordering::Relaxed);
        let chan = Arc::new(ChangeChannel::new(opts.queue_capacity));
        let mode = maint.state.mode_name();
        let fallback_reason = maint.state.fallback_reason().map(str::to_string);
        let entry = Arc::new(SubEntry {
            id,
            application: application.to_string(),
            sql: sql.to_string(),
            strategy: opts.strategy,
            chan: Arc::clone(&chan),
            maint: Mutex::new(maint),
        });
        shared
            .subs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(entry);
        shared.subscriptions.fetch_add(1, Ordering::Relaxed);
        Ok(SubscriptionHandle {
            id,
            initial,
            epochs,
            chan,
            mode,
            fallback_reason,
        })
    }

    /// Close a subscription's feed and drop its registration immediately
    /// (a dropped handle achieves the same lazily, at the next publish).
    pub fn unsubscribe(&self, handle: &SubscriptionHandle) {
        handle.chan.close();
        self.shared
            .subs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .retain(|s| s.id != handle.id);
    }

    /// Recover a lagged subscription: re-execute the query in full against
    /// the current snapshots, rebuild the retained state, clear the lag
    /// gap, and return the fresh base result and its epoch vector. The
    /// feed resumes from exactly this point.
    pub fn resync(
        &self,
        handle: &SubscriptionHandle,
    ) -> std::result::Result<(Batch, EpochVector), ServiceError> {
        let _serial = self.ingest.lock().unwrap_or_else(|e| e.into_inner());
        let shared = &self.shared;
        let entry = shared
            .subs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .find(|s| s.id == handle.id)
            .cloned()
            .ok_or_else(|| {
                ServiceError::Engine(Error::Execution(format!(
                    "no live subscription with id {}",
                    handle.id
                )))
            })?;
        let (base, epochs, maint) = seed(shared, &entry.application, &entry.sql, entry.strategy)?;
        *entry.maint.lock().unwrap_or_else(|e| e.into_inner()) = maint;
        entry.chan.mark_resynced();
        Ok((base, epochs))
    }

    /// After a rule definition: seed every live subscription of
    /// `application` anew at the current snapshots, and send each one
    /// fallback [`ChangeSet`] — the full diff from the result its feed
    /// folds to under the old rules to the result under the new ones.
    /// Call under the ingest lock, after every shard holds the rule.
    pub(super) fn reseed_subscriptions(&self, application: &str) {
        let shared = &self.shared;
        let subs = shared.subs.lock().unwrap_or_else(|e| e.into_inner());
        for sub in subs
            .iter()
            .filter(|s| s.application == application && !s.chan.is_closed())
        {
            let mut m = sub.maint.lock().unwrap_or_else(|e| e.into_inner());
            match seed(shared, &sub.application, &sub.sql, sub.strategy) {
                Ok((_, epochs, next)) => {
                    let cs = m.state.diff_to(&next.state, epochs);
                    *m = next;
                    shared.notifications.fetch_add(1, Ordering::Relaxed);
                    shared
                        .deltas
                        .fetch_add(cs.delta_rows() as u64, Ordering::Relaxed);
                    shared.fallbacks.fetch_add(1, Ordering::Relaxed);
                    if sub.chan.push(cs) == dc_stream::PushOutcome::Dropped {
                        shared.dropped_for_lag.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Err(_) => {
                    // The feed can no longer be proven exact: surface a lag
                    // so the consumer resyncs.
                    sub.chan.force_lag();
                    shared.dropped_for_lag.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// The publish hook: advance every live subscription past `outcome`.
    /// Runs under the ingest lock (called from [`QueryService::append`]),
    /// so subscriptions observe publishes strictly in order.
    pub(super) fn maintain_subscriptions(&self, outcome: &AppendOutcome) {
        let shared = &self.shared;
        let mut subs = shared.subs.lock().unwrap_or_else(|e| e.into_inner());
        if subs.is_empty() || outcome.touched_shards.is_empty() {
            // Nothing registered, or nothing published (an empty batch on
            // a partitioned table): no epoch advanced, nothing to do.
            subs.retain(|s| !s.chan.is_closed());
            return;
        }
        let new_snaps = shared.load_snapshots();
        let epochs = epochs_of(&new_snaps);
        subs.retain(|sub| {
            if sub.chan.is_closed() {
                return false;
            }
            let mut m = sub.maint.lock().unwrap_or_else(|e| e.into_inner());
            // Split the guard into disjoint field borrows: the runner reads
            // `prev` and `plan` while `state` is maintained mutably.
            let m = &mut *m;
            if !m.tables.contains(&outcome.table) {
                // Irrelevant table: the result is unchanged, so sliding the
                // prev snapshots forward is sound and keeps them current.
                m.prev = new_snaps.clone();
                return true;
            }
            if sub.chan.is_lagged() {
                // Gap already open — don't burn maintenance work the
                // consumer can never apply; count the skip.
                shared.dropped_for_lag.fetch_add(1, Ordering::Relaxed);
                m.prev = new_snaps.clone();
                return true;
            }
            let reads_touched = outcome.table == m.table && !outcome.touched_keys.is_empty();
            let mut runner = SnapshotRunner {
                shared,
                application: &sub.application,
                sql: &sub.sql,
                strategy: sub.strategy,
                prev: &m.prev,
                new: &new_snaps,
                plan: m.plan.as_ref(),
                scoped: &m.scoped,
                ckey: &m.ckey,
            };
            let step = m.state.maintain(
                &mut runner,
                epochs.clone(),
                &outcome.touched_keys,
                &outcome.touched_shards,
                reads_touched,
            );
            match step {
                Ok(cs) => {
                    shared.notifications.fetch_add(1, Ordering::Relaxed);
                    shared
                        .deltas
                        .fetch_add(cs.delta_rows() as u64, Ordering::Relaxed);
                    if cs.stats.fallback {
                        shared.fallbacks.fetch_add(1, Ordering::Relaxed);
                    }
                    if sub.chan.push(cs) == dc_stream::PushOutcome::Dropped {
                        shared.dropped_for_lag.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Err(_) => {
                    // Even the recompute failed; the feed can no longer be
                    // proven gapless. Surface it as a lag so the consumer
                    // resyncs rather than silently diverging.
                    sub.chan.force_lag();
                    shared.dropped_for_lag.fetch_add(1, Ordering::Relaxed);
                }
            }
            m.prev = new_snaps.clone();
            true
        });
    }

    /// The cluster-key column appends to `table` are keyed on, when one can
    /// be resolved: the configured shard key, else (a service started
    /// without one) the single `CLUSTER BY` column the defined rules use
    /// for this table.
    pub(super) fn cluster_key_column(&self, table: &str) -> Option<String> {
        let key = &self.shared.router.spec.key;
        if !key.is_empty() {
            return Some(key.clone());
        }
        let rules = self.shared.coordinator().rules();
        let mut keys: BTreeSet<String> = BTreeSet::new();
        for app in rules.applications() {
            for t in rules.rules_for(&app) {
                if t.def.on_table.eq_ignore_ascii_case(table)
                    || t.def.from_table.eq_ignore_ascii_case(table)
                {
                    keys.insert(t.def.cluster_by.to_ascii_lowercase());
                }
            }
        }
        if keys.len() == 1 {
            keys.into_iter().next()
        } else {
            None
        }
    }
}

/// Distinct values of `col` in `batch`, in first-seen order. Empty when the
/// batch has no such column (e.g. a dimension-table append).
pub(super) fn distinct_keys(batch: &Batch, col: &str) -> Vec<Value> {
    let Ok(idx) = batch.schema().index_of_name(col) else {
        return Vec::new();
    };
    let column = batch.column(idx);
    let mut seen: BTreeSet<RowKey> = BTreeSet::new();
    let mut out = Vec::new();
    for i in 0..batch.num_rows() {
        let v = column.value(i);
        if seen.insert(RowKey(vec![v.clone()])) {
            out.push(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::service::tests::{reads_schema, row, service, small};
    use crate::snapshot::EpochVector;
    use crate::QueryRequest;
    use dc_relational::batch::Batch;
    use dc_relational::value::Value;
    use dc_stream::StreamError;

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
}
