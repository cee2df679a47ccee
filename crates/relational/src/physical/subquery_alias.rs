//! Schema requalification for derived tables.

use super::{open_stream, ChunkStream, ExecContext, OpStream, PhysicalOperator};
use crate::batch::Batch;
use crate::error::Result;
use crate::schema::SchemaRef;
use std::sync::Arc;

#[derive(Debug)]
pub struct PhysicalSubqueryAlias {
    pub input: Box<dyn PhysicalOperator>,
    pub alias: String,
}

impl PhysicalOperator for PhysicalSubqueryAlias {
    fn name(&self) -> &'static str {
        "SubqueryAliasExec"
    }

    fn label(&self) -> String {
        format!("SubqueryAliasExec: {}", self.alias)
    }

    fn children(&self) -> Vec<&dyn PhysicalOperator> {
        vec![self.input.as_ref()]
    }

    fn open<'a>(&'a self, ctx: &mut ExecContext<'_>) -> Result<Box<dyn ChunkStream + 'a>> {
        let child = open_stream(self.input.as_ref(), ctx)?;
        let schema = Arc::new(child.schema().with_qualifier(&self.alias));
        Ok(Box::new(AliasStream { child, schema }))
    }
}

/// Streaming requalification: re-schemas each chunk, selection preserved.
struct AliasStream<'a> {
    child: OpStream<'a>,
    schema: SchemaRef,
}

impl ChunkStream for AliasStream<'_> {
    fn schema(&self) -> SchemaRef {
        self.schema.clone()
    }

    fn next_chunk(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        match self.child.next_chunk(ctx)? {
            Some(chunk) => chunk.with_schema(self.schema.clone()).map(Some),
            None => Ok(None),
        }
    }
}
