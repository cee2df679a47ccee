//! Window-aggregate evaluation — the Φ_C cleansing hot path — with
//! optional partition-parallel execution.
//!
//! The input is already sorted by (partition keys, order keys); `lower()`
//! inserted an explicit sort if the order was not shared. Evaluation splits
//! into a read-only prepare step ([`WindowEval::prepare`] evaluates every
//! expression against the batch up front) and pure per-partition
//! computation by typed kernels that write straight into typed output
//! columns, so runs of partitions can be farmed out to a scoped thread pool:
//!
//! * the partition list is cut into consecutive runs of about equal row
//!   count — a function of the partition sizes only, independent of thread
//!   timing,
//! * workers only read the shared [`WindowEval`] and each builds the typed
//!   column fragments of its own run,
//! * fragments are stitched in partition order and work counters summed, so
//!   the result batch is byte-identical and the operator's
//!   [`ExecStats`](crate::exec::ExecStats) equal to the serial run's at any
//!   parallelism. The serial run is the one-run case of the same code.
//!
//! Wall-clock spent here is accumulated into
//! [`ExecContext::window_eval_nanos`] — the one quantity that *should*
//! change with parallelism.

use super::{collect_input, materialized, ChunkStream, ExecContext, PhysicalOperator};
use crate::batch::Batch;
use crate::column::Column;
use crate::error::Result;
use crate::expr::Expr;
use crate::schema::{Field, Schema};
use crate::window::{WindowEval, WindowExpr};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug)]
pub struct PhysicalWindow {
    pub input: Box<dyn PhysicalOperator>,
    pub partition_by: Vec<Expr>,
    /// Single ORDER BY key, when RANGE frames need it for binary searches.
    pub order_key: Option<Expr>,
    pub exprs: Vec<WindowExpr>,
}

impl PhysicalOperator for PhysicalWindow {
    fn name(&self) -> &'static str {
        "WindowExec"
    }

    fn label(&self) -> String {
        let parts: Vec<String> = self.partition_by.iter().map(|e| e.to_string()).collect();
        let aliases: Vec<&str> = self.exprs.iter().map(|we| we.alias.as_str()).collect();
        format!(
            "WindowExec: partition by [{}] exprs [{}]",
            parts.join(", "),
            aliases.join(", ")
        )
    }

    fn children(&self) -> Vec<&dyn PhysicalOperator> {
        vec![self.input.as_ref()]
    }

    fn open<'a>(&'a self, ctx: &mut ExecContext<'_>) -> Result<Box<dyn ChunkStream + 'a>> {
        let b = collect_input(self.input.as_ref(), ctx)?;
        let start = Instant::now();

        let ev = WindowEval::prepare(&b, &self.partition_by, self.order_key.as_ref(), &self.exprs)?;
        let parts = ev.partitions();
        ctx.metrics.frame().stats.partitions_executed += parts.len() as u64;

        // The budget is re-checked per partition: the Φ_C hot path can
        // dominate a query's runtime, so operator-entry checks alone would
        // not be responsive.
        let budget = &ctx.budget;
        let eval = |run: &[(usize, usize)]| ev.eval_partitions(run, budget);

        let p = ctx.options.parallelism.min(parts.len()).max(1);
        let (window_cols, work) = if p <= 1 {
            eval(parts)?
        } else {
            let runs = split_by_rows(parts, p);
            let results: Vec<Result<(Vec<Column>, u64)>> = std::thread::scope(|s| {
                let handles: Vec<_> = runs
                    .iter()
                    .map(|run| {
                        let eval = &eval;
                        s.spawn(move || eval(run))
                    })
                    .collect();
                // Joining in run order keeps collection deterministic.
                handles
                    .into_iter()
                    .map(|h| h.join().expect("window worker panicked"))
                    .collect()
            });
            // Every run stops at its first failing partition, so the first
            // failed run holds the error serial execution would surface.
            let mut fragments = Vec::with_capacity(results.len());
            let mut work: u64 = 0;
            for r in results {
                let (cols, w) = r?;
                fragments.push(cols);
                work += w;
            }
            let cols = (0..self.exprs.len())
                .map(|e| {
                    let pieces: Vec<&Column> = fragments.iter().map(|f| &f[e]).collect();
                    Column::concat(&pieces)
                })
                .collect::<Result<_>>()?;
            (cols, work)
        };

        let m = ctx.metrics.frame();
        m.comparisons += work;
        m.stats.window_accumulator_ops += work;
        let mut fields = b.schema().fields().to_vec();
        let mut cols: Vec<Column> = b.columns().to_vec();
        for (we, c) in self.exprs.iter().zip(window_cols) {
            fields.push(Field::new(we.alias.clone(), c.data_type()));
            cols.push(c);
        }
        let out = Batch::new(Arc::new(Schema::new(fields)), cols);
        ctx.window_eval_nanos += start.elapsed().as_nanos() as u64;
        out.map(materialized)
    }
}

/// Cut `parts` (consecutive, nonempty) into at most `p` runs of consecutive
/// partitions holding about equal numbers of rows.
fn split_by_rows(parts: &[(usize, usize)], p: usize) -> Vec<&[(usize, usize)]> {
    let first = parts[0].0;
    let total = parts[parts.len() - 1].1 - first;
    let mut runs = Vec::with_capacity(p);
    let mut begin = 0;
    for k in 1..=p {
        // The run ends with the partition that reaches its share of rows.
        let target = first + total * k / p;
        let end = (parts.partition_point(|&(_, hi)| hi < target) + 1).min(parts.len());
        if end > begin {
            runs.push(&parts[begin..end]);
            begin = end;
        }
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::split_by_rows;

    #[test]
    fn runs_cover_every_partition_in_order_with_balanced_rows() {
        // Partition sizes 1, 9, 2, 2, 2, 30, 1, 1 starting at row 5.
        let mut parts = Vec::new();
        let mut lo = 5;
        for size in [1, 9, 2, 2, 2, 30, 1, 1] {
            parts.push((lo, lo + size));
            lo += size;
        }
        for p in 1..=parts.len() {
            let runs = split_by_rows(&parts, p);
            assert!(!runs.is_empty() && runs.len() <= p, "p={p}");
            assert!(runs.iter().all(|r| !r.is_empty()), "p={p}");
            assert_eq!(runs.concat(), parts, "p={p}: order and coverage");
        }
        // Two workers split 48 rows at the partition that reaches row 24.
        let rows = |run: &[(usize, usize)]| run.iter().map(|&(lo, hi)| hi - lo).sum::<usize>();
        let runs = split_by_rows(&parts, 2);
        assert_eq!(runs.iter().map(|r| rows(r)).collect::<Vec<_>>(), [46, 2]);
        let runs = split_by_rows(&parts, 4);
        assert_eq!(
            runs.iter().map(|r| rows(r)).collect::<Vec<_>>(),
            [12, 34, 2]
        );
    }
}
