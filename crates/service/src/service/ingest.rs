//! The ingest path: appends staged on private overlays, logged before they
//! publish, then published with one pointer swap per touched shard; and rule
//! definitions, serialized with appends on the same lock.

use super::subscribe::{distinct_keys, AppendOutcome};
use super::QueryService;
use crate::durable::{log_err, StagedAppend};
use crate::partition::split_batch;
use dc_relational::batch::Batch;
use dc_relational::error::Error;
use dc_relational::table::Catalog;
use std::sync::atomic::Ordering;
use std::sync::Arc;

impl QueryService {
    /// Append `batch` to `table` and publish the next epoch(s). All the
    /// append work (key routing, segment sealing, index and statistics
    /// folding, cleanse cache invalidation) happens on private overlays
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
    /// restores the same rule set. Every live subscription of the
    /// application is then seeded anew and sent the full diff to its
    /// result under the new rules, as one fallback change set — also when
    /// logging the rules fails, since every shard already applies them.
    pub fn define_rule(&self, application: &str, rule_text: &str) -> Result<u64, Error> {
        // Serialize with appends so logged rules versions interleave with
        // epoch commits in a single order.
        let _serial = self.ingest.lock().unwrap_or_else(|e| e.into_inner());
        let mut id = 0;
        for shard in &self.shared.shards {
            id = shard.system.define_rule(application, rule_text)?;
        }
        let version = self.shared.rules_version.fetch_add(1, Ordering::Relaxed) + 1;
        let logged = match &self.shared.durable {
            Some(durable) => {
                let json = self.shared.coordinator().rules_to_json();
                durable.log_rules(version, &json).map_err(log_err)
            }
            None => Ok(()),
        };
        // The shards hold the rule whether or not it was logged, so the
        // subscriptions follow it either way.
        self.reseed_subscriptions(application);
        logged.map(|()| id)
    }
}

#[cfg(test)]
mod tests {
    use crate::service::tests::{large, reads_schema, row, service, small};
    use crate::QueryRequest;
    use dc_relational::batch::Batch;
    use dc_relational::value::Value;

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

    #[test]
    fn sharded_append_routes_by_key() {
        let (sharded, unsharded) = (service(&large(), 3), service(&large(), 1));
        let extra: Vec<Vec<Value>> = (0..30)
            .map(|i| row(&format!("e{}", i % 24), 1000 + i, "gate"))
            .collect();
        let batch = Batch::from_rows(reads_schema(), &extra).unwrap();
        sharded.append("caser", batch.clone()).unwrap();
        unsharded.append("caser", batch).unwrap();
        // Epochs advanced on the shards that received rows; total rows match.
        assert!(sharded.epoch() >= 1);
        assert_eq!(sharded.counters().appends, 1);
        let total: usize = (0..sharded.shard_count())
            .map(|i| {
                sharded
                    .shard_snapshot(i)
                    .catalog
                    .get("caser")
                    .unwrap()
                    .num_rows()
            })
            .sum();
        assert_eq!(total, 240 + 30);
        let a = sharded
            .execute(QueryRequest::new("app", "select epc, rtime from caser"))
            .unwrap();
        let b = unsharded
            .execute(QueryRequest::new("app", "select epc, rtime from caser"))
            .unwrap();
        assert_eq!(a.batch.sorted_rows(), b.batch.sorted_rows());
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
}
