//! Residual predicate evaluation over a child's output.

use super::{open_stream, ChunkStream, ExecContext, OpStream, PhysicalOperator};
use crate::batch::Batch;
use crate::error::Result;
use crate::expr::{filter_chunk, Expr};
use crate::schema::SchemaRef;

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

    fn open<'a>(&'a self, ctx: &mut ExecContext<'_>) -> Result<Box<dyn ChunkStream + 'a>> {
        Ok(Box::new(FilterStream {
            predicate: &self.predicate,
            child: open_stream(self.input.as_ref(), ctx)?,
        }))
    }
}

/// Streaming filter: marks surviving rows of each input chunk with a
/// selection vector instead of gathering their columns.
struct FilterStream<'a> {
    predicate: &'a Expr,
    child: OpStream<'a>,
}

impl ChunkStream for FilterStream<'_> {
    fn schema(&self) -> SchemaRef {
        self.child.schema()
    }

    fn next_chunk(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        let Some(chunk) = self.child.next_chunk(ctx)? else {
            return Ok(None);
        };
        // One predicate evaluation per input row.
        ctx.metrics.frame().comparisons += chunk.num_rows() as u64;
        let survivors = filter_chunk(self.predicate, &chunk)?.selected;
        let out = chunk.with_survivors(survivors);
        ctx.metrics.frame().stats.selection_avoided_copies += out.num_columns() as u64;
        Ok(Some(out))
    }
}
