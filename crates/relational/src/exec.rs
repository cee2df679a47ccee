//! Plan execution facade.
//!
//! [`Executor`] is the stable entry point: it lowers a [`LogicalPlan`] to a
//! [`PhysicalOperator`](crate::physical::PhysicalOperator) tree (see
//! [`crate::physical::lower()`]) and runs it against an
//! [`crate::physical::ExecContext`]. It keeps *work counters*
//! (rows scanned, rows sorted, window-aggregate work, join probes) so
//! experiments can report machine-independent effort alongside wall-clock
//! time — the quantities the paper's §6.2 plan analysis reasons about.
//! Operators record them into their own node of the metrics tree, and a
//! plan's counters are the fold of that tree
//! ([`OperatorMetrics::total_stats`]). Counters are deterministic:
//! identical at any [`ExecOptions::parallelism`].

use crate::batch::Batch;
use crate::error::Result;
use crate::physical::{
    collect_input, lower, ExecContext, ExecOptions, OperatorMetrics, QueryBudget,
};
use crate::plan::LogicalPlan;
use crate::table::Catalog;

/// Deterministic work counters: one operator's own (the `stats` of its
/// [`OperatorMetrics`] node), or a query's total.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Rows fetched from base tables (after index narrowing, before residual filters).
    pub rows_scanned: u64,
    /// Scans answered through an ordered index.
    pub index_scans: u64,
    /// Scans that had to read the whole table.
    pub full_scans: u64,
    /// Rows passed through explicit or window-implied sorts.
    pub rows_sorted: u64,
    /// Number of sort operations performed.
    pub sorts_performed: u64,
    /// Key comparisons performed by sorts (run detection/verification plus
    /// merging) — the machine-independent sort cost the run-aware pipeline
    /// shrinks.
    pub sort_comparisons: u64,
    /// Sorts whose input turned out to be a single non-descending run and
    /// was passed through unchanged.
    pub sorts_elided: u64,
    /// Pre-sorted runs consumed by k-way merges (sum of k over merging
    /// sorts; elided and fully-degenerate sorts contribute 0 and n).
    pub merge_runs_used: u64,
    /// Window accumulator operations: values entering or leaving a sliding
    /// aggregate state (plus per-frame recomputation work on the fallback
    /// path). Amortized O(1) per row for the incremental kernels, so this
    /// grows with partition size, not frame width. Identical at any
    /// parallelism.
    pub window_accumulator_ops: u64,
    /// Hash-join probe operations.
    pub join_probes: u64,
    /// Window partitions evaluated (the unit of Φ_C parallel distribution;
    /// counted identically at any parallelism).
    pub partitions_executed: u64,
    /// Segments considered by zone-map pruning across filtered scans.
    pub segments_total: u64,
    /// Segments skipped because their zone maps exclude the scan predicate.
    pub segments_pruned: u64,
    /// Segments that survived pruning (total − pruned).
    pub segments_scanned: u64,
    /// Cleansed-sequence cache hits (join-back rewrite with caching on).
    pub seq_cache_hits: u64,
    /// Cleansed-sequence cache misses.
    pub seq_cache_misses: u64,
    /// Cleansed-sequence cache entries invalidated by appends.
    pub seq_cache_invalidations: u64,
    /// Chunks emitted by streaming operators (pipeline breakers count
    /// none). Deterministic for a fixed chunk size: identical at any
    /// parallelism.
    pub batches_processed: u64,
    /// Column gathers avoided because a filtering operator marked survivors
    /// with a selection vector instead of copying column data (one per
    /// column per selection-carrying chunk).
    pub selection_avoided_copies: u64,
    /// Partial rows received from shard executors and combined by the
    /// scatter-gather coordinator (0 for unsharded execution).
    pub shard_rows_merged: u64,
    /// Delta rows applied to standing-query state (inserted + deleted +
    /// updated rows across incremental maintenance steps; 0 outside the
    /// streaming subsystem).
    pub maintenance_delta_rows: u64,
    /// Rows scanned by ckey-scoped maintenance re-executions — the
    /// incremental work a standing query pays per publish, compared by the
    /// bench gate against the cost of full recomputation.
    pub maintenance_scoped_rows: u64,
    /// Maintenance steps that fell back to full recompute-and-diff.
    pub maintenance_fallbacks: u64,
    /// Per-value hash computations by the vectorized hash kernels (rows ×
    /// key columns across join build/probe, aggregation, DISTINCT, and
    /// scatter merge).
    pub hash_ops: u64,
    /// Full 64-bit hash matches whose normalized keys compared unequal —
    /// genuine collisions resolved by memcmp.
    pub hash_collisions: u64,
    /// Normalized-key memcmps on candidate (hash-equal) table entries.
    pub probe_memcmps: u64,
    /// Bytes written into normalized-key arenas.
    pub key_bytes_encoded: u64,
}

impl ExecStats {
    pub fn add(&mut self, other: &ExecStats) {
        // Exhaustive destructuring: adding a counter without merging it here
        // is a compile error, not a silently dropped statistic.
        let ExecStats {
            rows_scanned,
            index_scans,
            full_scans,
            rows_sorted,
            sorts_performed,
            sort_comparisons,
            sorts_elided,
            merge_runs_used,
            window_accumulator_ops,
            join_probes,
            partitions_executed,
            segments_total,
            segments_pruned,
            segments_scanned,
            seq_cache_hits,
            seq_cache_misses,
            seq_cache_invalidations,
            batches_processed,
            selection_avoided_copies,
            shard_rows_merged,
            maintenance_delta_rows,
            maintenance_scoped_rows,
            maintenance_fallbacks,
            hash_ops,
            hash_collisions,
            probe_memcmps,
            key_bytes_encoded,
        } = other;
        self.rows_scanned += rows_scanned;
        self.index_scans += index_scans;
        self.full_scans += full_scans;
        self.rows_sorted += rows_sorted;
        self.sorts_performed += sorts_performed;
        self.sort_comparisons += sort_comparisons;
        self.sorts_elided += sorts_elided;
        self.merge_runs_used += merge_runs_used;
        self.window_accumulator_ops += window_accumulator_ops;
        self.join_probes += join_probes;
        self.partitions_executed += partitions_executed;
        self.segments_total += segments_total;
        self.segments_pruned += segments_pruned;
        self.segments_scanned += segments_scanned;
        self.seq_cache_hits += seq_cache_hits;
        self.seq_cache_misses += seq_cache_misses;
        self.seq_cache_invalidations += seq_cache_invalidations;
        self.batches_processed += batches_processed;
        self.selection_avoided_copies += selection_avoided_copies;
        self.shard_rows_merged += shard_rows_merged;
        self.maintenance_delta_rows += maintenance_delta_rows;
        self.maintenance_scoped_rows += maintenance_scoped_rows;
        self.maintenance_fallbacks += maintenance_fallbacks;
        self.hash_ops += hash_ops;
        self.hash_collisions += hash_collisions;
        self.probe_memcmps += probe_memcmps;
        self.key_bytes_encoded += key_bytes_encoded;
    }

    /// Fold hash-kernel counters into the executor-level statistics.
    pub fn add_hash(&mut self, h: &crate::hash::HashStats) {
        self.hash_ops += h.hash_ops;
        self.hash_collisions += h.hash_collisions;
        self.probe_memcmps += h.probe_memcmps;
        self.key_bytes_encoded += h.key_bytes_encoded;
    }
}

/// Executes logical plans against a catalog.
pub struct Executor<'a> {
    catalog: &'a Catalog,
    options: ExecOptions,
    budget: QueryBudget,
    /// Work counters of every plan this executor ran: the sum of their
    /// metrics trees' folds.
    pub stats: ExecStats,
    /// Wall-clock nanoseconds spent in window evaluation across all plans
    /// this executor ran. Not part of [`ExecStats`]: timings vary with
    /// parallelism, counters must not.
    pub window_eval_nanos: u64,
    /// Per-operator metrics tree of the *most recent* plan this executor
    /// ran (EXPLAIN ANALYZE data source). Unlike `stats`, which accumulates
    /// across plans, each `execute` replaces this.
    pub metrics: Option<OperatorMetrics>,
}

impl<'a> Executor<'a> {
    pub fn new(catalog: &'a Catalog) -> Self {
        Self::with_options(catalog, ExecOptions::default())
    }

    pub fn with_options(catalog: &'a Catalog, options: ExecOptions) -> Self {
        Self::with_budget(catalog, options, QueryBudget::unlimited())
    }

    /// An executor whose plans run under a [`QueryBudget`] (deadline, row
    /// budget, cooperative cancellation). A tripped budget surfaces as
    /// [`crate::error::Error::Aborted`] with no partial result.
    pub fn with_budget(catalog: &'a Catalog, options: ExecOptions, budget: QueryBudget) -> Self {
        Executor {
            catalog,
            options,
            budget,
            stats: ExecStats::default(),
            window_eval_nanos: 0,
            metrics: None,
        }
    }

    /// Execute a plan to one flat batch: lower to a physical operator tree,
    /// then drain its chunk stream ([`ExecOptions::chunk_rows`] rows at a
    /// time).
    pub fn execute(&mut self, plan: &LogicalPlan) -> Result<Batch> {
        let physical = lower(plan, self.catalog)?;
        let mut ctx = ExecContext::with_budget(self.catalog, self.options, self.budget.clone());
        let out = collect_input(physical.as_ref(), &mut ctx);
        self.window_eval_nanos += ctx.window_eval_nanos;
        self.metrics = ctx.metrics.finish();
        if let Some(tree) = &self.metrics {
            self.stats.add(&tree.total_stats());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::{AggExpr, AggFunc};
    use crate::batch::schema_ref;
    use crate::expr::{BinaryOp, Expr};
    use crate::join::JoinType;
    use crate::physical::display_physical;
    use crate::schema::{Field, Schema};
    use crate::sort::SortKey;
    use crate::table::Table;
    use crate::value::{DataType, Value};
    use crate::window::{Frame, FrameBound, WindowExpr, WindowFuncKind};

    fn catalog() -> Catalog {
        let schema = schema_ref(Schema::new(vec![
            Field::new("epc", DataType::Str),
            Field::new("rtime", DataType::Int),
            Field::new("biz_loc", DataType::Str),
        ]));
        let rows: Vec<Vec<Value>> = (0..100)
            .map(|i| {
                vec![
                    Value::str(format!("e{}", i % 10)),
                    Value::Int(i),
                    Value::str(if i % 2 == 0 { "locA" } else { "locB" }),
                ]
            })
            .collect();
        let b = Batch::from_rows(schema, &rows).unwrap();
        let mut t = Table::new("r", b);
        t.create_index("rtime").unwrap();
        t.create_index("epc").unwrap();
        let cat = Catalog::new();
        cat.register(t);
        cat
    }

    #[test]
    fn index_scan_narrows_fetch() {
        let cat = catalog();
        let plan = LogicalPlan::Scan {
            table: "r".into(),
            alias: None,
            filter: Some(Expr::col("rtime").lt(Expr::lit(10i64))),
        };
        let mut ex = Executor::new(&cat);
        let out = ex.execute(&plan).unwrap();
        assert_eq!(out.num_rows(), 10);
        assert_eq!(ex.stats.rows_scanned, 10);
        assert_eq!(ex.stats.index_scans, 1);
        assert_eq!(ex.stats.full_scans, 0);
    }

    #[test]
    fn segmented_scan_prunes_by_zone_map() {
        // Same data as `catalog()` but sealed into 10-row segments. rtime is
        // monotone, so `rtime < 10` admits exactly one segment — and no
        // index exists, so the fetch itself is segment-pruned.
        let schema = schema_ref(Schema::new(vec![
            Field::new("epc", DataType::Str),
            Field::new("rtime", DataType::Int),
        ]));
        let rows: Vec<Vec<Value>> = (0..100)
            .map(|i| vec![Value::str(format!("e{}", i % 10)), Value::Int(i)])
            .collect();
        let b = Batch::from_rows(schema, &rows).unwrap();
        let cat = Catalog::new();
        cat.register(Table::with_segment_rows("r", b, 10));
        let plan = LogicalPlan::Scan {
            table: "r".into(),
            alias: None,
            filter: Some(Expr::col("rtime").lt(Expr::lit(10i64))),
        };
        let mut ex = Executor::new(&cat);
        let out = ex.execute(&plan).unwrap();
        assert_eq!(out.num_rows(), 10);
        assert_eq!(ex.stats.full_scans, 1);
        assert_eq!(
            ex.stats.rows_scanned, 10,
            "only the surviving segment is fetched"
        );
        assert_eq!(ex.stats.segments_total, 10);
        assert_eq!(ex.stats.segments_pruned, 9);
        assert_eq!(ex.stats.segments_scanned, 1);
        let m = ex.metrics.as_ref().unwrap();
        assert!(m
            .render_text(false)
            .contains("segments_total=10 segments_pruned=9 segments_scanned=1"));
    }

    #[test]
    fn monolithic_table_never_prunes() {
        // A single-segment table with a filtered scan: counters record the
        // decision (1 segment considered, 0 pruned), results unchanged.
        let cat = catalog();
        let plan = LogicalPlan::Scan {
            table: "r".into(),
            alias: None,
            filter: Some(Expr::col("rtime").lt(Expr::lit(10i64))),
        };
        let mut ex = Executor::new(&cat);
        ex.execute(&plan).unwrap();
        assert_eq!(ex.stats.segments_total, 1);
        assert_eq!(ex.stats.segments_pruned, 0);
        assert_eq!(ex.stats.segments_scanned, 1);
    }

    #[test]
    fn unindexed_filter_full_scans() {
        let cat = catalog();
        let plan = LogicalPlan::Scan {
            table: "r".into(),
            alias: None,
            filter: Some(Expr::col("biz_loc").eq(Expr::lit("locA"))),
        };
        let mut ex = Executor::new(&cat);
        let out = ex.execute(&plan).unwrap();
        assert_eq!(out.num_rows(), 50);
        assert_eq!(ex.stats.full_scans, 1);
        assert_eq!(ex.stats.rows_scanned, 100);
    }

    #[test]
    fn residual_applied_after_index() {
        let cat = catalog();
        // rtime < 10 uses the index, biz_loc = 'locA' is residual.
        let plan = LogicalPlan::Scan {
            table: "r".into(),
            alias: None,
            filter: Some(
                Expr::col("rtime")
                    .lt(Expr::lit(10i64))
                    .and(Expr::col("biz_loc").eq(Expr::lit("locA"))),
            ),
        };
        let mut ex = Executor::new(&cat);
        let out = ex.execute(&plan).unwrap();
        assert_eq!(out.num_rows(), 5);
        assert_eq!(ex.stats.rows_scanned, 10);
    }

    #[test]
    fn combined_range_bounds() {
        let cat = catalog();
        let plan = LogicalPlan::Scan {
            table: "r".into(),
            alias: None,
            filter: Some(
                Expr::col("rtime")
                    .gt_eq(Expr::lit(20i64))
                    .and(Expr::col("rtime").lt(Expr::lit(30i64))),
            ),
        };
        let mut ex = Executor::new(&cat);
        let out = ex.execute(&plan).unwrap();
        assert_eq!(out.num_rows(), 10);
        assert_eq!(ex.stats.rows_scanned, 10);
    }

    #[test]
    fn in_list_uses_index() {
        let cat = catalog();
        let plan = LogicalPlan::Scan {
            table: "r".into(),
            alias: None,
            filter: Some(Expr::InList {
                expr: Box::new(Expr::col("epc")),
                list: vec![Value::str("e1"), Value::str("e2")],
                negated: false,
            }),
        };
        let mut ex = Executor::new(&cat);
        let out = ex.execute(&plan).unwrap();
        assert_eq!(out.num_rows(), 20);
        assert_eq!(ex.stats.rows_scanned, 20);
        assert_eq!(ex.stats.index_scans, 1);
    }

    fn count_window(presorted: bool) -> LogicalPlan {
        LogicalPlan::Window {
            input: Box::new(if presorted {
                LogicalPlan::scan("r").sort(vec![
                    SortKey::asc(Expr::col("epc")),
                    SortKey::asc(Expr::col("rtime")),
                ])
            } else {
                LogicalPlan::scan("r")
            }),
            partition_by: vec![Expr::col("epc")],
            order_by: vec![SortKey::asc(Expr::col("rtime"))],
            exprs: vec![WindowExpr {
                func: WindowFuncKind::Count,
                arg: None,
                frame: Frame::rows(FrameBound::UnboundedPreceding, FrameBound::CurrentRow),
                alias: "n".into(),
            }],
            presorted,
        }
    }

    #[test]
    fn window_sorts_unless_presorted() {
        let cat = catalog();
        let mut ex = Executor::new(&cat);
        ex.execute(&count_window(false)).unwrap();
        assert_eq!(ex.stats.sorts_performed, 1);

        let mut ex2 = Executor::new(&cat);
        ex2.execute(&count_window(true)).unwrap();
        // One explicit sort; the window node itself does not re-sort.
        assert_eq!(ex2.stats.sorts_performed, 1);
    }

    #[test]
    fn window_counts_partitions() {
        let cat = catalog();
        let mut ex = Executor::new(&cat);
        ex.execute(&count_window(false)).unwrap();
        // 10 distinct epc values → 10 partitions, at any parallelism.
        assert_eq!(ex.stats.partitions_executed, 10);

        let mut par = Executor::with_options(&cat, ExecOptions::with_parallelism(4));
        par.execute(&count_window(false)).unwrap();
        assert_eq!(par.stats, ex.stats);
    }

    #[test]
    fn parallel_window_matches_serial() {
        fn rows_of(b: &Batch) -> Vec<Vec<Value>> {
            (0..b.num_rows()).map(|i| b.row(i)).collect()
        }
        let cat = catalog();
        let mut serial = Executor::new(&cat);
        let expected = serial.execute(&count_window(false)).unwrap();
        for p in [2, 3, 8, 64] {
            let mut par = Executor::with_options(&cat, ExecOptions::with_parallelism(p));
            let got = par.execute(&count_window(false)).unwrap();
            assert_eq!(rows_of(&got), rows_of(&expected), "parallelism {p}");
            assert_eq!(par.stats, serial.stats, "parallelism {p}");
        }
    }

    #[test]
    fn lowered_plan_shape() {
        let cat = catalog();
        // Unsorted window input → explicit SortExec under the WindowExec.
        let physical = lower(&count_window(false), &cat).unwrap();
        let shown = display_physical(physical.as_ref());
        let names: Vec<&str> = shown.lines().map(|l| l.trim()).collect();
        assert!(names[0].starts_with("WindowExec"), "{shown}");
        assert!(names[1].starts_with("SortExec"), "{shown}");
        assert!(names[2].starts_with("ScanExec"), "{shown}");

        // Presorted window input → no extra sort inserted.
        let physical = lower(&count_window(true), &cat).unwrap();
        let shown = display_physical(physical.as_ref());
        assert_eq!(
            shown.lines().filter(|l| l.contains("SortExec")).count(),
            1,
            "{shown}"
        );
    }

    #[test]
    fn scan_carries_index_candidates() {
        let cat = catalog();
        let plan = LogicalPlan::Scan {
            table: "r".into(),
            alias: None,
            filter: Some(
                Expr::col("rtime")
                    .lt(Expr::lit(10i64))
                    .and(Expr::col("biz_loc").eq(Expr::lit("locA"))),
            ),
        };
        let physical = lower(&plan, &cat).unwrap();
        // biz_loc equality also yields a candidate bound; rtime is listed
        // first (column-position order). Only rtime is actually indexed —
        // the runtime pick is data-dependent.
        assert!(
            physical
                .label()
                .contains("index_candidates=[rtime, biz_loc]"),
            "{}",
            physical.label()
        );
    }

    #[test]
    fn budget_aborts_cooperatively() {
        use crate::error::{AbortReason, Error};
        use crate::physical::QueryBudget;
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        use std::time::Duration;

        let cat = catalog();
        // A pre-set cancellation token aborts at the first checkpoint.
        let token = Arc::new(AtomicBool::new(false));
        token.store(true, Ordering::Relaxed);
        let mut ex = Executor::with_budget(
            &cat,
            ExecOptions::default(),
            QueryBudget::unlimited().with_cancel(Arc::clone(&token)),
        );
        assert!(matches!(
            ex.execute(&count_window(false)),
            Err(Error::Aborted(AbortReason::Cancelled))
        ));

        // An already-expired deadline aborts.
        let mut ex = Executor::with_budget(
            &cat,
            ExecOptions::default(),
            QueryBudget::unlimited().with_deadline(Duration::ZERO),
        );
        std::thread::sleep(Duration::from_millis(2));
        assert!(matches!(
            ex.execute(&count_window(false)),
            Err(Error::Aborted(AbortReason::DeadlineExceeded))
        ));

        // A row budget smaller than the scan output aborts; the same plan
        // re-runs cleanly on an unlimited executor (no state was corrupted).
        let mut ex = Executor::with_budget(
            &cat,
            ExecOptions::default(),
            QueryBudget::unlimited().with_row_limit(5),
        );
        assert!(matches!(
            ex.execute(&count_window(false)),
            Err(Error::Aborted(AbortReason::RowLimitExceeded))
        ));
        let mut ok = Executor::new(&cat);
        assert_eq!(ok.execute(&count_window(false)).unwrap().num_rows(), 100);

        // A generous budget changes nothing: results and counters match an
        // unbudgeted run, at serial and parallel execution alike.
        for p in [1, 4] {
            let mut budgeted = Executor::with_budget(
                &cat,
                ExecOptions::with_parallelism(p),
                QueryBudget::unlimited()
                    .with_row_limit(1_000_000)
                    .with_deadline(Duration::from_secs(3600))
                    .with_cancel(Arc::new(AtomicBool::new(false))),
            );
            let b = budgeted.execute(&count_window(false)).unwrap();
            let mut plain = Executor::new(&cat);
            let expect = plain.execute(&count_window(false)).unwrap();
            assert_eq!(
                (0..b.num_rows()).map(|i| b.row(i)).collect::<Vec<_>>(),
                (0..expect.num_rows())
                    .map(|i| expect.row(i))
                    .collect::<Vec<_>>()
            );
            assert_eq!(budgeted.stats, plain.stats);
        }
    }

    #[test]
    fn end_to_end_group_by() {
        let cat = catalog();
        let plan = LogicalPlan::scan("r")
            .filter(Expr::col("rtime").lt(Expr::lit(50i64)))
            .aggregate(
                vec![(Expr::col("biz_loc"), "loc".into())],
                vec![AggExpr {
                    func: AggFunc::CountStar,
                    alias: "n".into(),
                }],
            );
        let mut ex = Executor::new(&cat);
        let out = ex.execute(&plan).unwrap();
        assert_eq!(out.num_rows(), 2);
        let total: i64 = (0..2).map(|i| out.row(i)[1].as_int().unwrap()).sum();
        assert_eq!(total, 50);
    }

    #[test]
    fn join_and_semi_join() {
        let cat = catalog();
        let dim_schema = schema_ref(Schema::new(vec![Field::new("gln", DataType::Str)]));
        let dim = Batch::from_rows(dim_schema, &[vec![Value::str("locA")]]).unwrap();
        cat.register(Table::new("locs", dim));
        let plan = LogicalPlan::scan_as("r", "c").join(
            LogicalPlan::scan_as("locs", "l"),
            vec![Expr::col("c.biz_loc")],
            vec![Expr::col("l.gln")],
            JoinType::Inner,
        );
        let mut ex = Executor::new(&cat);
        let out = ex.execute(&plan).unwrap();
        assert_eq!(out.num_rows(), 50);
        assert_eq!(ex.stats.join_probes, 100);

        let plan = LogicalPlan::scan_as("r", "c").join(
            LogicalPlan::scan_as("locs", "l"),
            vec![Expr::col("c.biz_loc")],
            vec![Expr::col("l.gln")],
            JoinType::LeftSemi,
        );
        let mut ex = Executor::new(&cat);
        let out = ex.execute(&plan).unwrap();
        assert_eq!(out.num_rows(), 50);
        assert_eq!(out.num_columns(), 3);
    }

    #[test]
    fn union_and_limit() {
        let cat = catalog();
        let plan = LogicalPlan::Union {
            inputs: vec![LogicalPlan::scan("r"), LogicalPlan::scan("r")],
        }
        .limit(150);
        let mut ex = Executor::new(&cat);
        let out = ex.execute(&plan).unwrap();
        assert_eq!(out.num_rows(), 150);
    }

    #[test]
    fn project_renames() {
        let cat = catalog();
        let plan = LogicalPlan::scan("r").project(vec![
            (Expr::col("epc"), "tag".into()),
            (
                Expr::binary(Expr::col("rtime"), BinaryOp::Plus, Expr::lit(1000i64)),
                "shifted".into(),
            ),
        ]);
        let mut ex = Executor::new(&cat);
        let out = ex.execute(&plan).unwrap();
        assert_eq!(out.schema().field(0).name, "tag");
        assert_eq!(out.column_by_name("shifted").unwrap().int_at(0), Some(1000));
    }
}
