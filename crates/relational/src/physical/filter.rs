//! Residual predicate evaluation over a child's output.

use super::metrics::FrameId;
use super::{ChunkStream, ExecContext, PhysicalOperator};
use crate::batch::Batch;
use crate::error::Result;
use crate::expr::{filter_chunk, Expr};
use crate::schema::SchemaRef;
use std::time::Instant;

#[derive(Debug)]
pub struct PhysicalFilter {
    pub input: Box<dyn PhysicalOperator>,
    pub predicate: Expr,
}

impl PhysicalOperator for PhysicalFilter {
    fn name(&self) -> &'static str {
        "FilterExec"
    }

    fn label(&self) -> String {
        format!("FilterExec: {}", self.predicate)
    }

    fn children(&self) -> Vec<&dyn PhysicalOperator> {
        vec![self.input.as_ref()]
    }

    fn execute_op(&self, ctx: &mut ExecContext<'_>) -> Result<Batch> {
        let b = self.input.execute(ctx)?;
        // One predicate evaluation per input row.
        ctx.metrics.add_comparisons(b.num_rows() as u64);
        let keep = self.predicate.filter_indices(&b)?;
        Ok(b.take(&keep))
    }

    fn open_chunks<'a>(&'a self, ctx: &mut ExecContext<'_>) -> Result<Box<dyn ChunkStream + 'a>> {
        ctx.budget.check()?;
        let id = ctx.metrics.enter(self.name(), self.label());
        let start = Instant::now();
        let child = match self.input.open_chunks(ctx) {
            Ok(c) => c,
            Err(e) => {
                ctx.metrics.exit(0, start.elapsed().as_nanos() as u64);
                return Err(e);
            }
        };
        Ok(Box::new(FilterStream {
            predicate: &self.predicate,
            child,
            id,
            rows_out: 0,
            nanos: start.elapsed().as_nanos() as u64,
        }))
    }
}

/// Streaming filter: marks surviving rows of each input chunk with a
/// selection vector instead of gathering their columns.
struct FilterStream<'a> {
    predicate: &'a Expr,
    child: Box<dyn ChunkStream + 'a>,
    id: FrameId,
    rows_out: u64,
    nanos: u64,
}

impl ChunkStream for FilterStream<'_> {
    fn schema(&self) -> SchemaRef {
        self.child.schema()
    }

    fn next_chunk(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        ctx.budget.check()?;
        let start = Instant::now();
        let pulled = self.child.next_chunk(ctx);
        let chunk = match pulled {
            Ok(Some(c)) => c,
            Ok(None) => {
                self.nanos += start.elapsed().as_nanos() as u64;
                return Ok(None);
            }
            Err(e) => {
                self.nanos += start.elapsed().as_nanos() as u64;
                return Err(e);
            }
        };
        // One predicate evaluation per input row, as on the materialized
        // path.
        ctx.metrics
            .add_comparisons_to(self.id, chunk.num_rows() as u64);
        let outcome = match filter_chunk(self.predicate, &chunk) {
            Ok(o) => o,
            Err(e) => {
                self.nanos += start.elapsed().as_nanos() as u64;
                return Err(e);
            }
        };
        let out = chunk.with_survivors(outcome.selected);
        let avoided = out.num_columns() as u64;
        ctx.metrics.record_chunk(self.id, avoided);
        ctx.stats.batches_processed += 1;
        ctx.stats.selection_avoided_copies += avoided;
        let rows = out.num_rows() as u64;
        self.rows_out += rows;
        ctx.rows_emitted += rows;
        self.nanos += start.elapsed().as_nanos() as u64;
        ctx.budget.check_rows(ctx.rows_emitted)?;
        Ok(Some(out))
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        self.child.close(ctx);
        ctx.metrics.exit(self.rows_out, self.nanos);
    }
}
