//! Expression projection with output aliases.

use super::{open_stream, ChunkStream, ExecContext, OpStream, PhysicalOperator};
use crate::batch::Batch;
use crate::error::Result;
use crate::expr::Expr;
use crate::schema::{Field, Schema, SchemaRef};
use std::sync::Arc;

#[derive(Debug)]
pub struct PhysicalProject {
    pub input: Box<dyn PhysicalOperator>,
    pub exprs: Vec<(Expr, String)>,
}

impl PhysicalOperator for PhysicalProject {
    fn name(&self) -> &'static str {
        "ProjectExec"
    }

    fn label(&self) -> String {
        let cols: Vec<String> = self
            .exprs
            .iter()
            .map(|(e, a)| format!("{e} AS {a}"))
            .collect();
        format!("ProjectExec: {}", cols.join(", "))
    }

    fn children(&self) -> Vec<&dyn PhysicalOperator> {
        vec![self.input.as_ref()]
    }

    fn open<'a>(&'a self, ctx: &mut ExecContext<'_>) -> Result<Box<dyn ChunkStream + 'a>> {
        let child = open_stream(self.input.as_ref(), ctx)?;
        // Output types are a pure function of expression + input schema, so
        // projecting a zero-row batch yields the stream's schema through the
        // exact code path every chunk takes.
        let schema = self
            .project(&Batch::empty(child.schema()))?
            .schema()
            .clone();
        Ok(Box::new(ProjectStream {
            op: self,
            child,
            schema,
        }))
    }
}

impl PhysicalProject {
    /// Evaluate the projection list over one batch (selection honored by
    /// [`Expr::evaluate`]; output is always flat).
    fn project(&self, b: &Batch) -> Result<Batch> {
        let mut cols = Vec::with_capacity(self.exprs.len());
        let mut fields = Vec::with_capacity(self.exprs.len());
        for (e, alias) in &self.exprs {
            let c = e.evaluate(b)?;
            fields.push(Field::from_flat_name(alias, c.data_type()));
            cols.push(c);
        }
        Batch::new(Arc::new(Schema::new(fields)), cols)
    }
}

/// Streaming projection: evaluates the expression list chunk by chunk.
struct ProjectStream<'a> {
    op: &'a PhysicalProject,
    child: OpStream<'a>,
    schema: SchemaRef,
}

impl ChunkStream for ProjectStream<'_> {
    fn schema(&self) -> SchemaRef {
        self.schema.clone()
    }

    fn next_chunk(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        let Some(chunk) = self.child.next_chunk(ctx)? else {
            return Ok(None);
        };
        // One expression-evaluation pass per input row.
        ctx.metrics.frame().comparisons += chunk.num_rows() as u64;
        self.op.project(&chunk).map(Some)
    }
}
