//! Queries that run on the caller's thread instead of the worker pool:
//! EXPLAIN ANALYZE and time travel (`AS OF epoch E`), both under the
//! request's budget and the pool's outcome accounting.

use super::scatter::RunDetail;
use super::{epochs_of, QueryService, Shared};
use crate::snapshot::Snapshot;
use crate::{QueryRequest, QueryResponse, ServiceError, ServiceStats};
use std::sync::Arc;
use std::time::{Duration, Instant};

impl Shared {
    /// Per-shard snapshots as of global epoch `global`, materialized from
    /// the durable log (shards already at the requested epoch reuse their
    /// live snapshot). Historical tables carry the same segment ids as the
    /// live prefix, so shard cleanse caches stay sound across time travel.
    pub(super) fn historical_snapshots(
        &self,
        global: u64,
    ) -> Result<Vec<Arc<Snapshot>>, ServiceError> {
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

impl QueryService {
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
            out.push_str(&format!(
                "-- shards: n={} mode={} partitioner=hash key={} rows_merged={}\n",
                self.shard_count(),
                detail.mode,
                self.shared.router.spec.key,
                detail.run.stats.shard_rows_merged,
            ));
            for o in &detail.per_shard {
                out.push_str(&format!(
                    "-- shard {}: epoch={} rows={} segments_scanned={} segments_pruned={}\n",
                    o.shard, o.epoch, o.rows, o.segments_scanned, o.segments_pruned,
                ));
            }
        }
        let mut report = self.shared.coordinator().explain_rewritten(
            &detail.catalog,
            detail.strategy,
            detail.rewritten,
            Some(detail.run),
        )?;
        if !detail.through_cache {
            // No shard probed a cache, so there is no activity to report.
            report.cache = None;
        }
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
        let (batch, report) = detail.into_reply();
        Ok(QueryResponse {
            batch,
            report,
            service,
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::partition::HashPartitioner;
    use crate::service::tests::{large, service, small, system};
    use crate::{QueryRequest, QueryService, ServiceConfig, ShardConfig};
    use dc_core::Strategy;
    use dc_relational::scatter::PARTIALS;
    use dc_relational::value::Value;

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
        // A query pinned to one key shows its owner's run: one shard
        // line, the owner's own tree, no gather.
        let req = QueryRequest::new("app", "select epc, rtime from caser where epc = 'e7'");
        let text = sharded.explain_analyze(&req).unwrap();
        let owner = HashPartitioner.shard_of(&Value::str("e7"), 2);
        assert!(
            text.contains("-- shards: n=2 mode=routed partitioner=hash key=epc rows_merged=0"),
            "got: {text}"
        );
        assert!(
            text.contains(&format!("-- shard {owner}: epoch=0 rows=")),
            "got: {text}"
        );
        assert!(
            !text.contains(&format!("-- shard {}:", 1 - owner)),
            "got: {text}"
        );
        assert!(!text.contains("GatherExec"), "got: {text}");
        assert!(!text.contains(PARTIALS), "got: {text}");
        assert!(text.contains("ScanExec: caser"), "got: {text}");
        assert!(
            text.contains(&format!("scatter: routed to shard {owner} of 2 (1 keys)")),
            "got: {text}"
        );
    }

    #[test]
    fn sharded_explain_analyze_describes_the_run_it_shows() {
        let shard = ShardConfig::new(2, "epc").with_cleanse_cache(64);
        let svc =
            QueryService::start_sharded(system(&large()), ServiceConfig::default(), shard).unwrap();
        // No partial form: the shards ship the cleansed rows, the distinct
        // count runs in the gather plan, and no shard cache was probed.
        let distinct = QueryRequest::new("app", "select count(distinct epc) as n from caser")
            .with_strategy(Strategy::JoinBack);
        let text = svc.explain_analyze(&distinct).unwrap();
        assert!(text.contains("mode=scatter"), "got: {text}");
        let gather_tree = format!(
            "GatherExec: 2 shards rows_merged=24 (rows_in=24 rows_out=1 comparisons=0)\n  \
             ProjectExec: __a0 AS n (rows_in=1 rows_out=1 comparisons=1 batches=1)\n    \
             AggregateExec: group by [] (rows_in=24 rows_out=1 comparisons=24)\n      \
             ScanExec: {PARTIALS} "
        );
        assert!(text.contains(&gather_tree), "got: {text}");
        assert!(!text.contains("-- cleanse cache:"), "got: {text}");
        // Lowered to partials: the metrics tree shows the gather plan over
        // the partials and, beside it, the shard plan that produced them.
        let grouped = "select biz_loc, count(*) as n from caser group by biz_loc";
        let text = svc
            .explain_analyze(&QueryRequest::new("app", grouped))
            .unwrap();
        assert!(
            text.contains("GatherExec: 2 shards rows_merged="),
            "got: {text}"
        );
        assert!(
            text.contains(&format!("ScanExec: {PARTIALS}")),
            "got: {text}"
        );
        assert_eq!(
            text.matches("AggregateExec: group by [biz_loc]").count(),
            2,
            "got: {text}"
        );
    }
}
