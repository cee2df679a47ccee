//! The rewrite + execute pipeline over the shard snapshots: rewrite once at
//! the coordinator, decompose, run where the data is, gather. With one shard
//! nothing is partitioned, so every plan takes the shard-0 arm. A plan pinned
//! to cluster keys runs only where they live: whole on a single owner, or
//! scattered over just the owners.

use super::Shared;
use crate::snapshot::Snapshot;
use crate::ServiceError;
use dc_core::{QueryBudget, QueryReport, Strategy};
use dc_relational::batch::Batch;
use dc_relational::error::Error;
use dc_relational::exec::Executor;
use dc_relational::physical::OperatorMetrics;
use dc_relational::plan::LogicalPlan;
use dc_relational::scatter::{gather, pinned_keys, split_scatter, ScatterPlan};
use dc_relational::sql::{parse_query, plan_query};
use dc_relational::table::CatalogRef;
use dc_rewrite::{rules_modify_ckey, Executed, Rewritten};
use std::collections::BTreeSet;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one query execution looked like, shard by shard.
pub(super) struct ShardObservation {
    pub(super) shard: usize,
    pub(super) epoch: u64,
    pub(super) rows: u64,
    pub(super) segments_scanned: u64,
    pub(super) segments_pruned: u64,
}

impl ShardObservation {
    /// Shard `shard`'s runs of the shard plans, summed.
    fn of(shard: usize, snap: &Snapshot, runs: &[Executed]) -> Self {
        ShardObservation {
            shard,
            epoch: snap.epoch,
            rows: runs.iter().map(|r| r.batch.num_rows() as u64).sum(),
            segments_scanned: runs.iter().map(|r| r.stats.segments_scanned).sum(),
            segments_pruned: runs.iter().map(|r| r.stats.segments_pruned).sum(),
        }
    }
}

/// A finished run, kept whole: the rewrite that ran, its (gathered)
/// execution, and what each shard contributed. The reply path folds it
/// into a [`QueryReport`]; EXPLAIN ANALYZE renders the same run.
pub(super) struct RunDetail {
    /// The catalog `rewritten` was planned against: shard 0's snapshot.
    pub(super) catalog: CatalogRef,
    pub(super) rewritten: Rewritten,
    pub(super) strategy: Strategy,
    pub(super) run: Executed,
    elapsed: Duration,
    parallelism: usize,
    pub(super) per_shard: Vec<ShardObservation>,
    /// `"single-shard"`, `"routed"` (one owner of the pinned keys ran the
    /// plan whole) or `"scatter"`.
    pub(super) mode: &'static str,
    /// The run took a shard system's cached execution path (a one-shard
    /// or routed answer, or shards running the rewritten plan itself); a
    /// decomposed plan runs past every cleanse cache.
    pub(super) through_cache: bool,
}

impl RunDetail {
    /// The reply: result rows plus the report of this run.
    pub(super) fn into_reply(self) -> (Batch, QueryReport) {
        QueryReport::from_run(
            &format!("{:?}", self.strategy),
            self.rewritten,
            self.run,
            self.elapsed,
            self.parallelism,
        )
    }
}

impl Shared {
    /// Plan `sql` against the coordinator's snapshot and run it.
    pub(super) fn run_detail(
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

    /// The shards owning every row `user_plan` can read, when they are
    /// fewer than all, and how many keys route it: `Some` when the plan is
    /// pinned to cluster keys ([`pinned_keys`]) and no rule of
    /// `application` assigns the key. Only sound for a rewritten plan every
    /// shard can run whole (`reuses_plan`): its windows and joins never
    /// read across shards, so the other shards' outputs are empty.
    fn owners(
        &self,
        application: &str,
        user_plan: &LogicalPlan,
        catalog: &CatalogRef,
    ) -> Option<(Vec<usize>, usize)> {
        let spec = &self.router.spec;
        let keys = pinned_keys(user_plan, spec, catalog)?;
        let rules = self.coordinator().rules().rules_for(application);
        if rules_modify_ckey(&rules, &spec.key) {
            return None;
        }
        let n = self.shards.len();
        let owners: BTreeSet<usize> = keys
            .iter()
            .map(|k| self.router.partitioner.shard_of(k, n))
            .collect();
        (owners.len() < n).then(|| (owners.into_iter().collect(), keys.len()))
    }

    /// The rewrite + execute pipeline for one planned query against the
    /// loaded snapshots: rewrite once at the coordinator, decompose, run
    /// where the data is, merge. A plan touching no partitioned table —
    /// every plan of a one-shard service — is answered by shard 0 directly.
    /// A shard-local plan pinned to cluster keys runs only on the shards
    /// that own them: on one owner it runs whole there, with no gather.
    pub(super) fn run_plan(
        &self,
        snaps: &[Arc<Snapshot>],
        application: &str,
        user_plan: &LogicalPlan,
        strategy: Strategy,
        budget: QueryBudget,
        start: Instant,
    ) -> Result<RunDetail, ServiceError> {
        let coord = self.coordinator();
        let catalog = Arc::clone(&snaps[0].catalog);
        let mut rewritten =
            coord.rewrite_plan_snapshot(&catalog, application, user_plan, strategy)?;
        let mut through_cache = true;
        let n = self.shards.len();
        let scatter = split_scatter(&rewritten.plan, &self.router.spec);
        let route = match &scatter {
            ScatterPlan::Scatter {
                reuses_plan: true, ..
            } => self.owners(application, user_plan, &catalog),
            _ => None,
        };
        let routed_whole = matches!(&route, Some((owners, _)) if owners.len() == 1);
        let (run, per_shard, mode) = match scatter {
            ScatterPlan::Scatter {
                shard_plans,
                gather: gather_plan,
                reuses_plan,
            } if !routed_whole => {
                let targets = route
                    .as_ref()
                    .map_or_else(|| (0..n).collect(), |(owners, _)| owners.clone());
                let runs = self.execute_on_shards(
                    &targets,
                    &rewritten,
                    &shard_plans,
                    reuses_plan,
                    snaps,
                    &budget,
                )?;
                let per = targets
                    .iter()
                    .zip(&runs)
                    .map(|(&i, r)| ShardObservation::of(i, &snaps[i], r))
                    .collect();
                let window_eval_nanos = runs.iter().flatten().map(|e| e.window_eval_nanos).sum();
                // Regroup shard-major runs by shard plan: `parts[p]` and
                // `trees[p]` hold plan `p`'s outputs in shard order.
                let mut parts = vec![Vec::with_capacity(runs.len()); shard_plans.len()];
                let mut trees = vec![Vec::with_capacity(runs.len()); shard_plans.len()];
                for shard_runs in runs {
                    for (p, e) in shard_runs.into_iter().enumerate() {
                        parts[p].push(e.batch);
                        trees[p].extend(e.metrics);
                    }
                }
                let (batch, mut metrics) = gather(
                    &parts,
                    gather_plan.as_deref(),
                    &catalog,
                    coord.exec_options(),
                    budget,
                )?;
                // Inclusive wall-clock, like every node: the merge plus
                // the shard side (summed over shards, as combined trees
                // are), one group of trees per shard plan.
                let shard_side: Vec<OperatorMetrics> =
                    trees.into_iter().flat_map(shard_trees).collect();
                metrics.wall_nanos += shard_side.iter().map(|t| t.wall_nanos).sum::<u64>();
                metrics.children.extend(shard_side);
                rewritten.notes.push(format!(
                    "scatter: {}{}",
                    match route {
                        Some((owners, keys)) =>
                            format!("{} of {n} shards ({keys} keys)", owners.len()),
                        None => format!("{n} shards"),
                    },
                    match shard_plans.len() {
                        _ if reuses_plan => ", cached shard path".to_string(),
                        1 => String::new(),
                        k => format!(", {k} shard plans"),
                    }
                ));
                let run = Executed {
                    batch,
                    stats: metrics.total_stats(),
                    window_eval_nanos,
                    metrics: Some(metrics),
                };
                through_cache = reuses_plan;
                (run, per, "scatter")
            }
            // One shard answers alone: shard 0 for a replicated-only plan,
            // the owner of every pinned key for a routed one.
            _ => {
                let (s, note, mode) = match &route {
                    Some((owners, keys)) => (
                        owners[0],
                        Some(format!(
                            "scatter: routed to shard {} of {n} ({keys} keys)",
                            owners[0]
                        )),
                        "routed",
                    ),
                    None => (
                        0,
                        (n > 1)
                            .then(|| "scatter: replicated-only plan, answered by shard 0".into()),
                        "single-shard",
                    ),
                };
                let run = self.on_shard(s, || {
                    let system = &self.shards[s].system;
                    system.execute_rewritten_snapshot(&snaps[s].catalog, &rewritten, budget)
                })?;
                rewritten.notes.extend(note);
                let per = vec![ShardObservation::of(
                    s,
                    &snaps[s],
                    std::slice::from_ref(&run),
                )];
                (run, per, mode)
            }
        };
        Ok(RunDetail {
            catalog,
            rewritten,
            strategy,
            run,
            elapsed: start.elapsed(),
            parallelism: coord.exec_options().parallelism,
            per_shard,
            mode,
            through_cache,
        })
    }

    /// Run `work` as shard `i`'s executor: an injected failure of that
    /// shard, or any panic, becomes [`ServiceError::ShardUnavailable`].
    fn on_shard<T>(
        &self,
        i: usize,
        work: impl FnOnce() -> Result<T, Error>,
    ) -> Result<T, ServiceError> {
        let fail = self.fail_shard.load(Ordering::Relaxed);
        let run = AssertUnwindSafe(|| {
            assert!(i != fail, "injected shard failure");
            work()
        });
        match panic::catch_unwind(run) {
            Ok(result) => result.map_err(ServiceError::from),
            Err(_) => Err(ServiceError::ShardUnavailable { shard: i }),
        }
    }

    /// Fan `shard_plans` out to the `targets` shards in parallel; each shard
    /// runs them in order and returns one run per plan, in `targets` order.
    /// With `reuses_plan` the one shard plan is byte-identical to the
    /// coordinator's rewritten plan, so each shard runs it through its own
    /// system (and shard-local cleanse cache); otherwise the decomposed
    /// plans execute directly. The calling worker runs the last target
    /// itself, so a query starts one thread fewer than it has targets. A
    /// panicking shard becomes [`ServiceError::ShardUnavailable`].
    fn execute_on_shards(
        &self,
        targets: &[usize],
        rewritten: &Rewritten,
        shard_plans: &[LogicalPlan],
        reuses_plan: bool,
        snaps: &[Arc<Snapshot>],
        budget: &QueryBudget,
    ) -> Result<Vec<Vec<Executed>>, ServiceError> {
        let run_shard = |i: usize, b: QueryBudget| {
            self.on_shard(i, || {
                let system = &self.shards[i].system;
                if reuses_plan {
                    let run = system.execute_rewritten_snapshot(&snaps[i].catalog, rewritten, b)?;
                    return Ok(vec![run]);
                }
                let options = system.exec_options();
                let run = |plan: &LogicalPlan| {
                    let mut ex = Executor::with_budget(&snaps[i].catalog, options, b.clone());
                    let batch = ex.execute(plan)?;
                    Ok(Executed {
                        batch,
                        stats: ex.stats,
                        window_eval_nanos: ex.window_eval_nanos,
                        metrics: ex.metrics,
                    })
                };
                shard_plans.iter().map(run).collect()
            })
        };
        let (&last, others) = targets.split_last().expect("a scatter has a target shard");
        std::thread::scope(|scope| {
            let run_shard = &run_shard;
            let handles: Vec<_> = others
                .iter()
                .map(|&i| {
                    let b = budget.clone();
                    (i, scope.spawn(move || run_shard(i, b)))
                })
                .collect();
            let own = run_shard(last, budget.clone());
            let mut out = Vec::with_capacity(targets.len());
            for (i, h) in handles {
                let joined = h
                    .join()
                    .unwrap_or(Err(ServiceError::ShardUnavailable { shard: i }));
                out.push(joined?);
            }
            out.push(own?);
            Ok(out)
        })
    }
}

/// The shard side of a scatter run's metrics tree: one combined tree when
/// every shard executed the same operator shape (counters add node by
/// node), each shard's own tree otherwise.
fn shard_trees(trees: Vec<OperatorMetrics>) -> Vec<OperatorMetrics> {
    let Some((first, rest)) = trees.split_first() else {
        return trees;
    };
    let mut combined = first.clone();
    if rest.iter().all(|t| combined.merge_same_shape(t)) {
        vec![combined]
    } else {
        trees
    }
}

#[cfg(test)]
mod tests {
    use crate::partition::HashPartitioner;
    use crate::service::tests::{large, service};
    use crate::{QueryRequest, ServiceError};
    use dc_relational::batch::Batch;
    use dc_relational::value::Value;

    #[test]
    fn sharded_service_matches_unsharded() {
        for shards in [1, 2, 4] {
            let (sharded, unsharded) = (service(&large(), shards), service(&large(), 1));
            assert_eq!(sharded.shard_count(), shards);
            for sql in [
                "select epc, rtime from caser",
                "select epc, count(*) as n from caser group by epc",
                "select count(*) as n, sum(rtime) as s, avg(rtime) as a from caser",
                "select epc, rtime from caser where rtime < 100 order by rtime, epc",
            ] {
                let a = sharded.execute(QueryRequest::new("app", sql)).unwrap();
                let b = unsharded.execute(QueryRequest::new("app", sql)).unwrap();
                assert_eq!(
                    a.batch.schema(),
                    b.batch.schema(),
                    "shards={shards} sql={sql}"
                );
                assert_eq!(
                    a.batch.sorted_rows(),
                    b.batch.sorted_rows(),
                    "shards={shards} sql={sql}"
                );
                assert_eq!(a.service.epochs.shards(), shards);
            }
            // ORDER BY reproduces the exact global order, not just the set.
            let sql = "select epc, rtime from caser order by rtime, epc";
            let a = sharded.execute(QueryRequest::new("app", sql)).unwrap();
            let b = unsharded.execute(QueryRequest::new("app", sql)).unwrap();
            assert_eq!(a.batch.schema(), b.batch.schema(), "shards={shards}");
            let rows = |batch: &Batch| -> Vec<Vec<Value>> {
                (0..batch.num_rows()).map(|i| batch.row(i)).collect()
            };
            assert_eq!(rows(&a.batch), rows(&b.batch), "shards={shards}");
        }
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
    fn shard_failure_is_typed() {
        let sharded = service(&large(), 3);
        // Shard 1 runs on a thread of its own, shard 2 (the last) on the
        // dispatching worker: a panic in either is the same typed error.
        for (failures, shard) in [(1, 1), (2, 2)] {
            sharded.inject_shard_failure(shard);
            let err = sharded
                .execute(QueryRequest::new("app", "select epc, rtime from caser"))
                .unwrap_err();
            assert!(
                matches!(err, ServiceError::ShardUnavailable { shard: s } if s == shard),
                "got: {err}"
            );
            assert_eq!(sharded.counters().failed, failures);
            // Recovery: clearing the fault restores service.
            sharded.clear_shard_failure();
            sharded
                .execute(QueryRequest::new("app", "select epc, rtime from caser"))
                .unwrap();
        }
        // A pinned query runs on its key's owner alone: a failed owner is
        // the same typed error, another shard's failure does not reach it.
        let owner = HashPartitioner.shard_of(&Value::str("e5"), 3);
        let pinned = || QueryRequest::new("app", "select epc, rtime from caser where epc = 'e5'");
        sharded.inject_shard_failure(owner);
        let err = sharded.execute(pinned()).unwrap_err();
        assert!(
            matches!(err, ServiceError::ShardUnavailable { shard } if shard == owner),
            "got: {err}"
        );
        assert_eq!(sharded.counters().failed, 3);
        sharded.inject_shard_failure((owner + 1) % 3);
        let resp = sharded.execute(pinned()).unwrap();
        let want = service(&large(), 1).execute(pinned()).unwrap();
        assert_eq!(resp.batch.sorted_rows(), want.batch.sorted_rows());
        assert!(
            resp.report
                .notes
                .contains(&format!("scatter: routed to shard {owner} of 3 (1 keys)")),
            "{:?}",
            resp.report.notes
        );
        assert_eq!(sharded.counters().failed, 3);
        // Shard 0 answering alone (every plan of a one-shard service) runs
        // through the same failure point.
        let one = service(&large(), 1);
        one.inject_shard_failure(0);
        let err = one.execute(pinned()).unwrap_err();
        assert!(
            matches!(err, ServiceError::ShardUnavailable { shard: 0 }),
            "got: {err}"
        );
        assert_eq!(one.counters().failed, 1);
    }
}
