//! Explicit sort. Every sort in a physical plan is one of these nodes —
//! placed either by the logical plan or by `lower()` in front of a window
//! whose input order was not already shared.
//!
//! Execution is run-aware (see [`crate::sort::sort_batch_runs`]): the input
//! is decomposed into non-descending runs and merged, so an already-ordered
//! input passes through untouched (`sorts_elided`) and a table assembled
//! from ordered segment appends merges its k runs in O(n log k)
//! (`merge_runs_used`). When `lower()` saw that the input is an unfiltered
//! scan of a catalog table, `run_hint_table` lets run discovery use the
//! per-segment `sorted_by` metadata recorded at seal time instead of
//! re-scanning the data — one comparison per segment boundary.

use super::{collect_input, materialized, ChunkStream, ExecContext, PhysicalOperator};
use crate::batch::Batch;
use crate::error::Result;
use crate::expr::Expr;
use crate::sort::{sort_batch_runs, SortKey};

#[derive(Debug)]
pub struct PhysicalSort {
    pub input: Box<dyn PhysicalOperator>,
    pub keys: Vec<SortKey>,
    /// Catalog table whose rows flow into this sort in table order (set by
    /// `lower()` only for unfiltered scans), enabling metadata-only run
    /// detection from segment descriptors.
    pub run_hint_table: Option<String>,
}

impl PhysicalOperator for PhysicalSort {
    fn name(&self) -> &'static str {
        "SortExec"
    }

    fn label(&self) -> String {
        let keys: Vec<String> = self.keys.iter().map(|k| k.to_string()).collect();
        format!("SortExec: [{}]", keys.join(", "))
    }

    fn children(&self) -> Vec<&dyn PhysicalOperator> {
        vec![self.input.as_ref()]
    }

    fn open<'a>(&'a self, ctx: &mut ExecContext<'_>) -> Result<Box<dyn ChunkStream + 'a>> {
        let b = collect_input(self.input.as_ref(), ctx)?;
        let hint = self.segment_run_hint(ctx, &b);
        let (out, effort) = sort_batch_runs(&b, &self.keys, hint.as_deref())?;
        let m = ctx.metrics.frame();
        m.comparisons += effort.comparisons;
        m.stats.rows_sorted += b.num_rows() as u64;
        m.stats.sorts_performed += 1;
        m.stats.sort_comparisons += effort.comparisons;
        if effort.elided {
            m.stats.sorts_elided += 1;
        } else {
            m.stats.merge_runs_used += effort.runs;
        }
        Ok(materialized(out))
    }
}

impl PhysicalSort {
    /// Resolve `run_hint_table` to run start offsets, if the segment
    /// metadata covers this sort's keys. Returns `None` (fall back to
    /// data-driven run detection — never wrong, just costlier) unless:
    ///
    /// * every key is a plain column reference, ascending with NULLs first —
    ///   the exact order `sorted_by` prefixes were verified under at seal
    ///   time (soundness: a hint under any other order could fabricate
    ///   runs);
    /// * every segment's verified order covers the key columns;
    /// * the batch has exactly the table's row count, so segment offsets
    ///   still address the right rows (an append between the scan and this
    ///   sort would otherwise shift them).
    fn segment_run_hint(&self, ctx: &ExecContext<'_>, b: &Batch) -> Option<Vec<usize>> {
        let table = ctx.catalog.get(self.run_hint_table.as_deref()?).ok()?;
        if table.num_rows() != b.num_rows() {
            return None;
        }
        let cols: Vec<usize> = self
            .keys
            .iter()
            .map(|k| {
                if !k.ascending || !k.nulls_first {
                    return None;
                }
                let Expr::Column(c) = &k.expr else {
                    return None;
                };
                // The scan may emit a subset of the table's columns under
                // another qualifier; the bare name finds the table's own.
                let i = b.schema().index_of(c.qualifier.as_deref(), &c.name).ok()?;
                table
                    .schema()
                    .index_of(None, &b.schema().field(i).name)
                    .ok()
            })
            .collect::<Option<_>>()?;
        table.segment_runs(&cols)
    }
}
