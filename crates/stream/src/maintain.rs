//! Standing-query state and the per-epoch maintenance step.
//!
//! A [`StandingState`] retains whatever its maintenance mode needs to turn
//! a publish into a [`ChangeSet`] without recomputing the full query:
//!
//! * **Scoped** — just the current result multiset; the delta is the diff
//!   of the scoped plan run on the previous vs new snapshots;
//! * **Ordered** — the sort input's rows in a key-sorted buffer; the
//!   delta is the change to the visible prefix;
//! * **Aggregate** — per-group integer accumulators; the delta is the
//!   groups whose reconstructed row changed;
//! * **Fallback** — the current result; every step recomputes and diffs.
//!
//! Execution is delegated through [`MaintenanceRunner`], which the service
//! implements over its epoch-stamped snapshots. The runner holds the mode's
//! unscoped maintenance plan ([`Classified::maintenance_plan`]) already
//! rewritten — once, when the subscription is seeded — and `run_prev` /
//! `run_new` execute it against one shard's previous/new snapshot, either
//! whole (seeding) or restricted to the appended cluster keys: the runner
//! ANDs `ckey IN K` into every scan of the reads table and of the rules'
//! FROM table in the rewritten plan, which is sound because the
//! restriction commutes with Φ_C and so with every candidate rewrite. `run_full` re-executes the subscription's original
//! query against the newly published snapshot vector (scatter-gather
//! included). Any internal divergence or overflow downgrades the step to a
//! counted fallback recompute — maintenance can be slow, never wrong.

use crate::classify::{AggSpec, Classified, UserAgg};
use crate::{ChangeSet, EpochVector, MaintenanceStats, RowKey};
use dc_relational::batch::Batch;
use dc_relational::delta::{cmp_key_rows, cmp_rows, eval_key_rows, multiset_diff, remove_rows};
use dc_relational::error::{Error, Result};
use dc_relational::exec::ExecStats;
use dc_relational::hash::{encode_value_row, HashStats, RawKeyTable};
use dc_relational::schema::SchemaRef;
use dc_relational::sort::SortKey;
use dc_relational::value::Value;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

/// A result multiset in execution form: one `Vec<Value>` per row.
type RowSet = Vec<Vec<Value>>;

/// Per-group accumulator store for aggregate-mode maintenance. Group
/// lookup runs on the shared normalized-key machinery ([`RawKeyTable`]
/// plus the single-row encoder) so the standing-query hot path carries no
/// `BTreeMap<RowKey, _>` comparisons; the hash work it spends is drained
/// into the step's [`ExecStats`] via [`GroupTable::take_stats`].
///
/// Slots are never removed: a dead group keeps its slot with zeroed
/// accumulators, which is indistinguishable from a never-seen group to
/// the fold (fresh slots start at zero too).
struct GroupTable {
    table: RawKeyTable,
    /// Slot → group key, in first-seen order.
    keys: Vec<RowKey>,
    /// Slot → accumulators, one i128 per partial slot.
    accs: Vec<Vec<i128>>,
    /// Reusable normalized-key encode buffer.
    key_buf: Vec<u8>,
    stats: HashStats,
}

impl GroupTable {
    fn new() -> Self {
        GroupTable {
            table: RawKeyTable::with_capacity(0),
            keys: Vec::new(),
            accs: Vec::new(),
            key_buf: Vec::new(),
            stats: HashStats::default(),
        }
    }

    /// Encode `key` into the reusable buffer and account the work the
    /// same way the columnar encoder does (per-value hashes + bytes).
    fn encode(&mut self, key: &RowKey) -> u64 {
        let h = encode_value_row(&key.0, &mut self.key_buf);
        self.stats.hash_ops += key.0.len() as u64;
        self.stats.key_bytes_encoded += self.key_buf.len() as u64;
        h
    }

    /// Accumulators for `key`, inserting a zeroed slot if unseen.
    fn upsert(&mut self, key: &RowKey, p_len: usize) -> Result<&mut [i128]> {
        let h = self.encode(key);
        let (slot, fresh) = self.table.insert(h, &self.key_buf, &mut self.stats)?;
        if fresh {
            self.keys.push(key.clone());
            self.accs.push(vec![0; p_len]);
        }
        Ok(&mut self.accs[slot])
    }

    fn get(&mut self, key: &RowKey) -> Option<&[i128]> {
        let h = self.encode(key);
        let slot = self.table.get(h, &self.key_buf, &mut self.stats)?;
        Some(&self.accs[slot])
    }

    /// Drop a group by zeroing its accumulators; the slot is retained so
    /// a later re-entry behaves exactly like a fresh group.
    fn kill(&mut self, key: &RowKey) {
        let h = self.encode(key);
        if let Some(slot) = self.table.get(h, &self.key_buf, &mut self.stats) {
            self.accs[slot].fill(0);
        }
    }

    fn len(&self) -> usize {
        self.keys.len()
    }

    fn key_at(&self, slot: usize) -> &RowKey {
        &self.keys[slot]
    }

    fn acc_at(&self, slot: usize) -> &[i128] {
        &self.accs[slot]
    }

    fn zero_at(&mut self, slot: usize) {
        self.accs[slot].fill(0);
    }

    /// Forget every group (reseed); retained hash counters survive.
    fn clear(&mut self) {
        self.table = RawKeyTable::with_capacity(0);
        self.keys.clear();
        self.accs.clear();
    }

    /// Drain the hash work spent since the last call.
    fn take_stats(&mut self) -> HashStats {
        std::mem::take(&mut self.stats)
    }
}

/// Executes the subscription's maintenance plan. Implemented by the
/// service layer over its snapshots; `shard` indexes the service's shard
/// vector. `keys` restricts the run to those cluster keys' sequences;
/// `None` runs the whole plan (seeding).
pub trait MaintenanceRunner {
    /// Number of shards (1 for an unsharded service).
    fn shard_count(&self) -> usize;
    /// Run the maintenance plan against shard `shard`'s **previous**
    /// (pre-publish) snapshot.
    fn run_prev(
        &mut self,
        shard: usize,
        keys: Option<&[Value]>,
    ) -> Result<(Vec<Vec<Value>>, ExecStats)>;
    /// Run the maintenance plan against shard `shard`'s **new**
    /// (just-published) snapshot.
    fn run_new(
        &mut self,
        shard: usize,
        keys: Option<&[Value]>,
    ) -> Result<(Vec<Vec<Value>>, ExecStats)>;
    /// Re-execute the subscription's original query against the new
    /// snapshot vector (the fallback path; scatter-gather in sharded
    /// mode). Returns the result rows in the query's own output order.
    fn run_full(&mut self) -> Result<(Vec<Vec<Value>>, ExecStats)>;
}

/// Mode-specific retained state.
enum ModeState {
    Scoped,
    Ordered {
        keys: Vec<SortKey>,
        fetch: Option<usize>,
        inner_schema: SchemaRef,
        /// `(sort key row, result row)` sorted by the key order; ties keep
        /// insertion order (new rows land after equal keys).
        buffer: Vec<(Vec<Value>, Vec<Value>)>,
    },
    Aggregate {
        spec: AggSpec,
        /// Per-group accumulators, one i128 per partial slot; the last
        /// slot is the hidden liveness `count(*)`.
        groups: Box<GroupTable>,
        /// Reconstructed final row per live group.
        finals: BTreeMap<RowKey, Vec<Value>>,
    },
    Fallback,
}

/// The maintained state of one subscription.
pub struct StandingState {
    mode: ModeState,
    mode_name: &'static str,
    fallback_reason: Option<String>,
    current: Vec<Vec<Value>>,
}

impl StandingState {
    /// Build and seed the state for a freshly classified subscription.
    /// `initial_rows` is the subscribe-time full execution (what the
    /// client was handed); runner calls see the subscribe-time snapshots
    /// on their `run_new` side, and run the classification's
    /// [`Classified::maintenance_plan`].
    pub fn new(
        classified: Classified,
        initial_rows: Vec<Vec<Value>>,
        runner: &mut dyn MaintenanceRunner,
    ) -> Result<Self> {
        let mode_name = classified.mode_name();
        let mut state = StandingState {
            mode: ModeState::Fallback,
            mode_name,
            fallback_reason: None,
            current: Vec::new(),
        };
        match classified {
            Classified::Scoped => {
                state.mode = ModeState::Scoped;
                state.current = initial_rows;
            }
            Classified::Fallback { reason } => {
                state.fallback_reason = Some(reason);
                state.current = initial_rows;
            }
            Classified::Ordered {
                keys,
                fetch,
                inner_schema,
                ..
            } => {
                state.mode = ModeState::Ordered {
                    keys,
                    fetch,
                    inner_schema,
                    buffer: Vec::new(),
                };
                state.seed_ordered(runner)?;
            }
            Classified::Aggregate(spec) => {
                state.mode = ModeState::Aggregate {
                    spec,
                    groups: Box::new(GroupTable::new()),
                    finals: BTreeMap::new(),
                };
                state.seed_aggregate(runner)?;
            }
        }
        Ok(state)
    }

    /// The maintenance mode's short name.
    pub fn mode_name(&self) -> &'static str {
        self.mode_name
    }

    /// Why the subscription fell back to recompute-and-diff, if it did.
    pub fn fallback_reason(&self) -> Option<&str> {
        self.fallback_reason.as_deref()
    }

    /// The maintained result. For `ordered` subscriptions this is the
    /// visible prefix in exact sort order; for other modes it is the
    /// result multiset (aggregate rows come out in group-key order, which
    /// may differ from a cold run's first-seen group order).
    pub fn current(&self) -> &[Vec<Value>] {
        &self.current
    }

    /// One maintenance step for a publish that advanced to `epochs`.
    /// `keys` are the cluster keys the append touched and `shards` the
    /// shards that received rows; `reads_touched` is false when the append
    /// went to some *other* table the plan reads (a dimension table), in
    /// which case ckey scoping is unsound and the step recomputes.
    ///
    /// Always returns a change set that is exactly the difference between
    /// the previous and new results: incremental errors (state divergence,
    /// accumulator overflow) downgrade to a counted fallback recompute.
    pub fn maintain(
        &mut self,
        runner: &mut dyn MaintenanceRunner,
        epochs: EpochVector,
        keys: &[Value],
        shards: &[usize],
        reads_touched: bool,
    ) -> Result<ChangeSet> {
        let mut stats = MaintenanceStats {
            epochs: epochs.clone(),
            ckeys: keys.len(),
            mode: self.mode_name,
            fallback: false,
            exec: ExecStats::default(),
        };
        let incremental = if !reads_touched || matches!(self.mode, ModeState::Fallback) {
            None
        } else {
            // On divergence / overflow the partial step is discarded and
            // recomputed. Every incremental arm writes `self.current` only
            // after its last fallible step, so here it still holds the
            // subscriber's view and the fallback diff below stays exact.
            self.maintain_incremental(runner, keys, shards, &mut stats)
                .ok()
        };
        let (inserted, deleted, updated) = match incremental {
            Some(delta) => delta,
            None => {
                stats.fallback = true;
                stats.exec.maintenance_fallbacks += 1;
                let before = std::mem::take(&mut self.current);
                if let Err(e) = self.reseed(runner, &mut stats) {
                    self.current = before;
                    return Err(e);
                }
                let (deleted, inserted) = multiset_diff(&before, &self.current, &mut stats.exec);
                (inserted, deleted, Vec::new())
            }
        };
        Ok(ChangeSet {
            epochs,
            inserted,
            deleted,
            updated,
            stats,
        })
    }

    /// The change from this state's result to `next`'s, as one fallback
    /// change set at `epochs`: what a subscriber is sent when its query is
    /// seeded anew (after its application's rules changed).
    pub fn diff_to(&self, next: &StandingState, epochs: EpochVector) -> ChangeSet {
        let mut stats = MaintenanceStats {
            epochs: epochs.clone(),
            ckeys: 0,
            mode: next.mode_name,
            fallback: true,
            exec: ExecStats::default(),
        };
        stats.exec.maintenance_fallbacks += 1;
        let (deleted, inserted) = multiset_diff(&self.current, &next.current, &mut stats.exec);
        ChangeSet {
            epochs,
            inserted,
            deleted,
            updated: Vec::new(),
            stats,
        }
    }

    /// Run the maintenance plan restricted to `keys` on the previous and
    /// new snapshots of every touched shard, concatenating rows and
    /// accounting the work.
    fn scoped_runs(
        runner: &mut dyn MaintenanceRunner,
        keys: &[Value],
        shards: &[usize],
        stats: &mut MaintenanceStats,
    ) -> Result<(RowSet, RowSet)> {
        let mut old_rows = Vec::new();
        let mut new_rows = Vec::new();
        for &s in shards {
            let (rows, st) = runner.run_prev(s, Some(keys))?;
            stats.exec.maintenance_scoped_rows += st.rows_scanned;
            stats.exec.add(&st);
            old_rows.extend(rows);
            let (rows, st) = runner.run_new(s, Some(keys))?;
            stats.exec.maintenance_scoped_rows += st.rows_scanned;
            stats.exec.add(&st);
            new_rows.extend(rows);
        }
        Ok((old_rows, new_rows))
    }

    #[allow(clippy::type_complexity)]
    fn maintain_incremental(
        &mut self,
        runner: &mut dyn MaintenanceRunner,
        keys: &[Value],
        shards: &[usize],
        stats: &mut MaintenanceStats,
    ) -> Result<(
        Vec<Vec<Value>>,
        Vec<Vec<Value>>,
        Vec<(Vec<Value>, Vec<Value>)>,
    )> {
        match &mut self.mode {
            ModeState::Fallback => Err(Error::Internal("fallback mode is not incremental".into())),
            ModeState::Scoped => {
                let (old_rows, new_rows) = Self::scoped_runs(runner, keys, shards, stats)?;
                let (deleted, inserted) = multiset_diff(&old_rows, &new_rows, &mut stats.exec);
                remove_rows(&mut self.current, &deleted)?;
                self.current.extend(inserted.iter().cloned());
                Ok((inserted, deleted, Vec::new()))
            }
            ModeState::Ordered {
                keys: sort_keys,
                fetch,
                inner_schema,
                buffer,
            } => {
                let (old_rows, new_rows) = Self::scoped_runs(runner, keys, shards, stats)?;
                // Buffer-internal diff: not part of the visible delta, so
                // it is not counted as delta rows.
                let mut scratch = ExecStats::default();
                let (deleted, inserted) = multiset_diff(&old_rows, &new_rows, &mut scratch);
                for row in &deleted {
                    let pos = buffer
                        .iter()
                        .position(|(_, r)| cmp_rows(r, row) == Ordering::Equal)
                        .ok_or_else(|| {
                            Error::Internal("ordered buffer diverged from scoped diff".into())
                        })?;
                    buffer.remove(pos);
                }
                if !inserted.is_empty() {
                    let batch = Batch::from_rows(inner_schema.clone(), &inserted)?;
                    let key_rows = eval_key_rows(&batch, sort_keys)?;
                    for (key_row, row) in key_rows.into_iter().zip(inserted) {
                        let pos = buffer.partition_point(|(k, _)| {
                            cmp_key_rows(k, &key_row, sort_keys) != Ordering::Greater
                        });
                        buffer.insert(pos, (key_row, row));
                    }
                }
                let visible: Vec<Vec<Value>> = match fetch {
                    Some(n) => buffer.iter().take(*n).map(|(_, r)| r.clone()).collect(),
                    None => buffer.iter().map(|(_, r)| r.clone()).collect(),
                };
                let (deleted, inserted) = multiset_diff(&self.current, &visible, &mut stats.exec);
                self.current = visible;
                Ok((inserted, deleted, Vec::new()))
            }
            ModeState::Aggregate {
                spec,
                groups,
                finals,
            } => {
                let (old_parts, new_parts) = Self::scoped_runs(runner, keys, shards, stats)?;
                let mut affected: BTreeSet<RowKey> = BTreeSet::new();
                apply_partials(groups, spec, &old_parts, -1, &mut affected)?;
                apply_partials(groups, spec, &new_parts, 1, &mut affected)?;

                let global = spec.group_by.is_empty();
                let mut inserted = Vec::new();
                let mut deleted = Vec::new();
                let mut updated = Vec::new();
                for g in affected {
                    let acc = groups
                        .get(&g)
                        .ok_or_else(|| Error::Internal("affected group vanished".into()))?;
                    let live = global || acc.last().copied().unwrap_or(0) > 0;
                    let old_final = finals.get(&g).cloned();
                    if !live {
                        groups.kill(&g);
                        finals.remove(&g);
                        if let Some(of) = old_final {
                            deleted.push(of);
                        }
                        continue;
                    }
                    let new_final = emit_group(spec, &g, acc)?;
                    match old_final {
                        None => inserted.push(new_final.clone()),
                        Some(of) => {
                            if cmp_rows(&of, &new_final) != Ordering::Equal {
                                updated.push((of, new_final.clone()));
                            }
                        }
                    }
                    finals.insert(g, new_final);
                }
                stats.exec.add_hash(&groups.take_stats());
                self.current = finals.values().cloned().collect();
                stats.exec.maintenance_delta_rows +=
                    (inserted.len() + deleted.len() + 2 * updated.len()) as u64;
                Ok((inserted, deleted, updated))
            }
        }
    }

    /// Rebuild the retained state from scratch against the new snapshots.
    fn reseed(
        &mut self,
        runner: &mut dyn MaintenanceRunner,
        stats: &mut MaintenanceStats,
    ) -> Result<()> {
        match &mut self.mode {
            ModeState::Scoped | ModeState::Fallback => {
                let (rows, st) = runner.run_full()?;
                stats.exec.add(&st);
                self.current = rows;
            }
            ModeState::Ordered { .. } => {
                let st = self.seed_ordered(runner)?;
                stats.exec.add(&st);
            }
            ModeState::Aggregate { .. } => {
                let st = self.seed_aggregate(runner)?;
                stats.exec.add(&st);
            }
        }
        Ok(())
    }

    /// (Re)build the sorted buffer from unscoped runs of the sort input on
    /// every shard's new-side snapshot.
    fn seed_ordered(&mut self, runner: &mut dyn MaintenanceRunner) -> Result<ExecStats> {
        let shard_count = runner.shard_count();
        let ModeState::Ordered {
            keys,
            fetch,
            inner_schema,
            buffer,
        } = &mut self.mode
        else {
            return Err(Error::Internal(
                "seed_ordered on a non-ordered state".into(),
            ));
        };
        let mut total = ExecStats::default();
        let mut rows = Vec::new();
        for s in 0..shard_count {
            let (r, st) = runner.run_new(s, None)?;
            total.add(&st);
            rows.extend(r);
        }
        let batch = Batch::from_rows(inner_schema.clone(), &rows)?;
        let key_rows = eval_key_rows(&batch, keys)?;
        *buffer = key_rows.into_iter().zip(rows).collect();
        buffer.sort_by(|a, b| cmp_key_rows(&a.0, &b.0, keys));
        self.current = match fetch {
            Some(n) => buffer.iter().take(*n).map(|(_, r)| r.clone()).collect(),
            None => buffer.iter().map(|(_, r)| r.clone()).collect(),
        };
        Ok(total)
    }

    /// (Re)build the accumulators from unscoped partial aggregates on
    /// every shard's new-side snapshot.
    fn seed_aggregate(&mut self, runner: &mut dyn MaintenanceRunner) -> Result<ExecStats> {
        let shard_count = runner.shard_count();
        let mut total = ExecStats::default();
        let mut parts = Vec::new();
        for s in 0..shard_count {
            let (r, st) = runner.run_new(s, None)?;
            total.add(&st);
            parts.extend(r);
        }
        let ModeState::Aggregate {
            spec,
            groups,
            finals,
        } = &mut self.mode
        else {
            return Err(Error::Internal(
                "seed_aggregate on a non-aggregate state".into(),
            ));
        };
        groups.clear();
        finals.clear();
        let mut affected = BTreeSet::new();
        apply_partials(groups, spec, &parts, 1, &mut affected)?;
        let global = spec.group_by.is_empty();
        // Dead groups can appear when a sharded global aggregate returns
        // all-default rows from empty shards; zero their slots (unless
        // global) so they read as never-seen.
        for slot in 0..groups.len() {
            if !global && groups.acc_at(slot).last().copied().unwrap_or(0) <= 0 {
                groups.zero_at(slot);
                continue;
            }
            let g = groups.key_at(slot);
            let row = emit_group(spec, g, groups.acc_at(slot))?;
            finals.insert(g.clone(), row);
        }
        total.add_hash(&groups.take_stats());
        self.current = finals.values().cloned().collect();
        Ok(total)
    }
}

/// Fold partial-aggregate rows into the accumulators with `sign` (+1 for
/// the new snapshot's partials, −1 for the previous snapshot's).
fn apply_partials(
    groups: &mut GroupTable,
    spec: &AggSpec,
    rows: &[Vec<Value>],
    sign: i128,
    affected: &mut BTreeSet<RowKey>,
) -> Result<()> {
    let g_len = spec.group_by.len();
    let p_len = spec.partials.len();
    for row in rows {
        if row.len() != g_len + p_len {
            return Err(Error::Internal(format!(
                "partial aggregate row has {} columns, expected {}",
                row.len(),
                g_len + p_len
            )));
        }
        let key = RowKey(row[..g_len].to_vec());
        let acc = groups.upsert(&key, p_len)?;
        for (slot, v) in row[g_len..].iter().enumerate() {
            let x = match v {
                Value::Null => 0,
                Value::Int(i) => *i as i128,
                other => {
                    return Err(Error::Internal(format!(
                        "non-integer partial aggregate value {other}"
                    )))
                }
            };
            acc[slot] += sign * x;
        }
        affected.insert(key);
    }
    Ok(())
}

/// Reconstruct one group's final result row from its accumulators:
/// aggregate values from the recipe, then the user projection (if any)
/// evaluated over the aggregate-schema row.
fn emit_group(spec: &AggSpec, group: &RowKey, acc: &[i128]) -> Result<Vec<Value>> {
    let int = |x: i128| -> Result<Value> {
        i64::try_from(x)
            .map(Value::Int)
            .map_err(|_| Error::Execution("aggregate accumulator overflow".into()))
    };
    let mut agg_row: Vec<Value> = group.0.clone();
    for ua in &spec.user_aggs {
        let v = match *ua {
            UserAgg::CountStar { slot } | UserAgg::Count { slot } => int(acc[slot])?,
            UserAgg::Sum { sum, cnt } => {
                if acc[cnt] == 0 {
                    Value::Null
                } else {
                    int(acc[sum])?
                }
            }
            UserAgg::Avg { sum, cnt } => {
                if acc[cnt] == 0 {
                    Value::Null
                } else {
                    // Matches the engine's exact integer average: i128 sum
                    // divided once at finish.
                    Value::Double(acc[sum] as f64 / acc[cnt] as f64)
                }
            }
        };
        agg_row.push(v);
    }
    match &spec.project {
        None => Ok(agg_row),
        Some(exprs) => {
            let batch = Batch::from_rows(spec.agg_schema.clone(), &[agg_row])?;
            exprs
                .iter()
                .map(|(e, _)| e.evaluate(&batch).map(|c| c.value(0)))
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify;
    use dc_relational::batch::{schema_ref, Batch};
    use dc_relational::delta::scope_scans;
    use dc_relational::exec::Executor;
    use dc_relational::plan::LogicalPlan;
    use dc_relational::schema::{Field, Schema};
    use dc_relational::sql::plan_sql;
    use dc_relational::table::{Catalog, Table};
    use dc_relational::value::DataType;

    /// A runner over plain catalogs (no cleansing rewrite): maintenance
    /// logic is orthogonal to what Φ does to the rows. It scopes the
    /// mode's maintenance plan to the keys of table `r`, column `epc`.
    struct CatRunner {
        prev: Catalog,
        new: Catalog,
        full_plan: LogicalPlan,
        maint: Option<LogicalPlan>,
    }

    impl CatRunner {
        fn new(prev: Catalog, new: Catalog, plan: &LogicalPlan, classified: &Classified) -> Self {
            CatRunner {
                prev,
                new,
                full_plan: plan.clone(),
                maint: classified.maintenance_plan(plan),
            }
        }

        fn plan(&self, keys: Option<&[Value]>) -> Result<LogicalPlan> {
            let maint = self
                .maint
                .as_ref()
                .ok_or_else(|| Error::Internal("no maintenance plan".into()))?;
            match keys {
                None => Ok(maint.clone()),
                Some(k) => scope_scans(maint, &["r"], "epc", k)
                    .ok_or_else(|| Error::Internal("no reads scan".into())),
            }
        }
    }

    impl MaintenanceRunner for CatRunner {
        fn shard_count(&self) -> usize {
            1
        }
        fn run_prev(
            &mut self,
            _shard: usize,
            keys: Option<&[Value]>,
        ) -> Result<(Vec<Vec<Value>>, ExecStats)> {
            run(&self.prev, &self.plan(keys)?)
        }
        fn run_new(
            &mut self,
            _shard: usize,
            keys: Option<&[Value]>,
        ) -> Result<(Vec<Vec<Value>>, ExecStats)> {
            run(&self.new, &self.plan(keys)?)
        }
        fn run_full(&mut self) -> Result<(Vec<Vec<Value>>, ExecStats)> {
            run(&self.new, &self.full_plan.clone())
        }
    }

    fn run(cat: &Catalog, plan: &LogicalPlan) -> Result<(Vec<Vec<Value>>, ExecStats)> {
        let mut ex = Executor::new(cat);
        let b = ex.execute(plan)?;
        Ok(((0..b.num_rows()).map(|i| b.row(i)).collect(), ex.stats))
    }

    fn reads_schema() -> SchemaRef {
        schema_ref(Schema::new(vec![
            Field::new("epc", DataType::Str),
            Field::new("rtime", DataType::Int),
        ]))
    }

    fn catalog(rows: &[(&str, i64)]) -> Catalog {
        let cat = Catalog::new();
        let rows: Vec<Vec<Value>> = rows
            .iter()
            .map(|(e, t)| vec![Value::str(*e), Value::Int(*t)])
            .collect();
        cat.register(Table::new(
            "r",
            Batch::from_rows(reads_schema(), &rows).unwrap(),
        ));
        cat
    }

    fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
        rows.sort_by(|a, b| cmp_rows(a, b));
        rows
    }

    fn check_fold(
        state: &mut StandingState,
        runner: &mut CatRunner,
        keys: &[Value],
        initial: Vec<Vec<Value>>,
    ) -> ChangeSet {
        let cs = state
            .maintain(runner, EpochVector(vec![1]), keys, &[0], true)
            .unwrap();
        let mut folded = initial;
        cs.apply(&mut folded).unwrap();
        let (cold, _) = run(&runner.new, &runner.full_plan.clone()).unwrap();
        assert_eq!(sorted(folded), sorted(cold));
        cs
    }

    #[test]
    fn scoped_maintain_matches_cold() {
        let prev = catalog(&[("e1", 1), ("e2", 2), ("e1", 7)]);
        let new = catalog(&[("e1", 1), ("e2", 2), ("e1", 7), ("e1", 9)]);
        let plan = plan_sql("SELECT epc, rtime FROM r WHERE rtime > 1", &prev).unwrap();
        let classified = classify(&plan, &prev, "r", "epc");
        assert!(matches!(classified, Classified::Scoped));
        let (initial, _) = run(&prev, &plan).unwrap();
        let mut runner = CatRunner::new(prev, new, &plan, &classified);
        let mut state = StandingState::new(classified, initial.clone(), &mut runner).unwrap();
        let cs = check_fold(&mut state, &mut runner, &[Value::str("e1")], initial);
        assert_eq!(cs.inserted.len(), 1);
        assert!(cs.deleted.is_empty());
        assert!(!cs.stats.fallback);
        assert!(cs.stats.exec.maintenance_scoped_rows > 0);
        assert!(cs
            .render_comment()
            .starts_with("-- stream: epochs=1 mode=scoped"));
    }

    /// Seed against the subscribe-time catalog (the service's subscribe
    /// adapter presents the subscribe snapshot on its `run_new` side).
    fn seeded(
        plan: &LogicalPlan,
        prev_rows: &[(&str, i64)],
        initial: Vec<Vec<Value>>,
        classified: Classified,
    ) -> StandingState {
        let mut seed_runner =
            CatRunner::new(catalog(prev_rows), catalog(prev_rows), plan, &classified);
        StandingState::new(classified, initial, &mut seed_runner).unwrap()
    }

    #[test]
    fn aggregate_maintain_emits_updates() {
        let prev_rows: &[(&str, i64)] = &[("e1", 1), ("e2", 2)];
        let prev = catalog(prev_rows);
        let new = catalog(&[("e1", 1), ("e2", 2), ("e1", 9)]);
        let plan = plan_sql("SELECT count(*), sum(rtime), avg(rtime) FROM r", &prev).unwrap();
        let classified = classify(&plan, &prev, "r", "epc");
        assert!(matches!(classified, Classified::Aggregate(_)));
        let (initial, _) = run(&prev, &plan).unwrap();
        let mut runner = CatRunner::new(prev, new, &plan, &classified);
        let mut state = seeded(&plan, prev_rows, initial.clone(), classified);
        assert_eq!(sorted(state.current().to_vec()), sorted(initial.clone()));
        let cs = check_fold(&mut state, &mut runner, &[Value::str("e1")], initial);
        assert_eq!(cs.updated.len(), 1);
        assert!(cs.inserted.is_empty() && cs.deleted.is_empty());
    }

    #[test]
    fn grouped_aggregate_inserts_and_deletes_groups() {
        let prev_rows: &[(&str, i64)] = &[("e1", 1)];
        let prev = catalog(prev_rows);
        let new = catalog(&[("e1", 1), ("e3", 5), ("e3", 6)]);
        let plan = plan_sql("SELECT epc, count(*) AS n FROM r GROUP BY epc", &prev).unwrap();
        // Grouped *by* the ckey is scoped; force a non-ckey group by
        // grouping on rtime instead.
        let plan2 = plan_sql("SELECT rtime, count(*) AS n FROM r GROUP BY rtime", &prev).unwrap();
        assert!(matches!(
            classify(&plan, &prev, "r", "epc"),
            Classified::Scoped
        ));
        let classified = classify(&plan2, &prev, "r", "epc");
        assert!(matches!(classified, Classified::Aggregate(_)));
        let (initial, _) = run(&prev, &plan2).unwrap();
        let mut runner = CatRunner::new(prev, new, &plan2, &classified);
        let mut state = seeded(&plan2, prev_rows, initial.clone(), classified);
        let cs = check_fold(&mut state, &mut runner, &[Value::str("e3")], initial);
        assert_eq!(cs.inserted.len(), 2, "{cs:?}");
    }

    #[test]
    fn ordered_limit_maintains_visible_prefix() {
        let prev_rows: &[(&str, i64)] = &[("e1", 10), ("e2", 20), ("e3", 30)];
        let prev = catalog(prev_rows);
        let new = catalog(&[("e1", 10), ("e2", 20), ("e3", 30), ("e1", 25)]);
        let plan = plan_sql(
            "SELECT epc, rtime FROM r ORDER BY rtime DESC LIMIT 2",
            &prev,
        )
        .unwrap();
        let classified = classify(&plan, &prev, "r", "epc");
        assert!(matches!(classified, Classified::Ordered { .. }));
        let (initial, _) = run(&prev, &plan).unwrap();
        let mut runner = CatRunner::new(prev, new, &plan, &classified);
        let mut state = seeded(&plan, prev_rows, initial.clone(), classified);
        assert_eq!(state.current().to_vec(), initial);
        let cs = check_fold(&mut state, &mut runner, &[Value::str("e1")], initial);
        // 25 enters the top-2, 20 leaves.
        assert_eq!(cs.inserted, vec![vec![Value::str("e1"), Value::Int(25)]]);
        assert_eq!(cs.deleted, vec![vec![Value::str("e2"), Value::Int(20)]]);
        // The visible order is maintained exactly.
        assert_eq!(
            state.current().to_vec(),
            vec![
                vec![Value::str("e3"), Value::Int(30)],
                vec![Value::str("e1"), Value::Int(25)],
            ]
        );
    }

    /// A [`CatRunner`] whose previous-snapshot runs also return a row the
    /// standing result never held: the scoped diff deletes it, so the
    /// incremental step fails after computing its diff.
    struct PhantomPrevRunner(CatRunner);

    impl MaintenanceRunner for PhantomPrevRunner {
        fn shard_count(&self) -> usize {
            1
        }
        fn run_prev(
            &mut self,
            shard: usize,
            keys: Option<&[Value]>,
        ) -> Result<(Vec<Vec<Value>>, ExecStats)> {
            let (mut rows, st) = self.0.run_prev(shard, keys)?;
            rows.push(vec![Value::str("e1"), Value::Int(99)]);
            Ok((rows, st))
        }
        fn run_new(
            &mut self,
            shard: usize,
            keys: Option<&[Value]>,
        ) -> Result<(Vec<Vec<Value>>, ExecStats)> {
            self.0.run_new(shard, keys)
        }
        fn run_full(&mut self) -> Result<(Vec<Vec<Value>>, ExecStats)> {
            self.0.run_full()
        }
    }

    #[test]
    fn failed_incremental_step_falls_back_exactly() {
        // The new side loses (e1, 7) as well: the diff deletes a real row
        // that sorts before the phantom, so a removal that were not
        // failure-atomic would already have dropped it from `current`.
        let prev = catalog(&[("e1", 1), ("e2", 2), ("e1", 7)]);
        let new = catalog(&[("e1", 1), ("e2", 2), ("e1", 9)]);
        let plan = plan_sql("SELECT epc, rtime FROM r", &prev).unwrap();
        let classified = classify(&plan, &prev, "r", "epc");
        assert!(matches!(classified, Classified::Scoped));
        let (initial, _) = run(&prev, &plan).unwrap();
        let mut runner = PhantomPrevRunner(CatRunner::new(prev, new, &plan, &classified));
        let mut state = StandingState::new(classified, initial.clone(), &mut runner).unwrap();
        let cs = state
            .maintain(
                &mut runner,
                EpochVector(vec![1]),
                &[Value::str("e1")],
                &[0],
                true,
            )
            .unwrap();
        assert!(cs.stats.fallback, "the phantom delete must fail the step");
        assert_eq!(cs.stats.exec.maintenance_fallbacks, 1);
        // The feed is exact against the subscriber's view, not the
        // phantom-polluted diff.
        assert_eq!(cs.inserted, vec![vec![Value::str("e1"), Value::Int(9)]]);
        assert_eq!(cs.deleted, vec![vec![Value::str("e1"), Value::Int(7)]]);
        assert!(cs.updated.is_empty());
        let (cold, _) = run(&runner.0.new, &runner.0.full_plan.clone()).unwrap();
        let mut folded = initial;
        cs.apply(&mut folded).unwrap();
        assert_eq!(sorted(folded), sorted(cold.clone()));
        assert_eq!(sorted(state.current().to_vec()), sorted(cold));
    }

    #[test]
    fn dim_append_forces_counted_fallback() {
        let prev = catalog(&[("e1", 1)]);
        let new = catalog(&[("e1", 1), ("e1", 2)]);
        let plan = plan_sql("SELECT epc, rtime FROM r", &prev).unwrap();
        let classified = classify(&plan, &prev, "r", "epc");
        let (initial, _) = run(&prev, &plan).unwrap();
        let mut runner = CatRunner::new(prev, new, &plan, &classified);
        let mut state = StandingState::new(classified, initial.clone(), &mut runner).unwrap();
        let cs = state
            .maintain(&mut runner, EpochVector(vec![1]), &[], &[0], false)
            .unwrap();
        assert!(cs.stats.fallback);
        assert_eq!(cs.stats.exec.maintenance_fallbacks, 1);
        let mut folded = initial;
        cs.apply(&mut folded).unwrap();
        let (cold, _) = run(&runner.new, &runner.full_plan.clone()).unwrap();
        assert_eq!(sorted(folded), sorted(cold));
    }
}
