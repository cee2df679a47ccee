//! Row-count truncation.

use super::{open_stream, ChunkStream, ExecContext, OpStream, PhysicalOperator};
use crate::batch::Batch;
use crate::error::Result;
use crate::schema::SchemaRef;

#[derive(Debug)]
pub struct PhysicalLimit {
    pub input: Box<dyn PhysicalOperator>,
    pub fetch: usize,
}

impl PhysicalOperator for PhysicalLimit {
    fn name(&self) -> &'static str {
        "LimitExec"
    }

    fn label(&self) -> String {
        format!("LimitExec: fetch={}", self.fetch)
    }

    fn children(&self) -> Vec<&dyn PhysicalOperator> {
        vec![self.input.as_ref()]
    }

    fn open<'a>(&'a self, ctx: &mut ExecContext<'_>) -> Result<Box<dyn ChunkStream + 'a>> {
        Ok(Box::new(LimitStream {
            child: open_stream(self.input.as_ref(), ctx)?,
            remaining: self.fetch,
        }))
    }
}

/// Streaming limit: stops pulling its child as soon as the fetch count is
/// satisfied, so a streaming child below it does only the work the fetched
/// rows need.
struct LimitStream<'a> {
    child: OpStream<'a>,
    remaining: usize,
}

impl ChunkStream for LimitStream<'_> {
    fn schema(&self) -> SchemaRef {
        self.child.schema()
    }

    fn next_chunk(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let Some(chunk) = self.child.next_chunk(ctx)? else {
            self.remaining = 0;
            return Ok(None);
        };
        let out = if chunk.num_rows() > self.remaining {
            chunk.slice(0, self.remaining)
        } else {
            chunk
        };
        self.remaining -= out.num_rows();
        Ok(Some(out))
    }
}
