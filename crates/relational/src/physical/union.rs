//! Bag UNION ALL of same-shape inputs (qualifiers are dropped, as in SQL).

use super::{collect_input, materialized, ChunkStream, ExecContext, PhysicalOperator};
use crate::batch::Batch;
use crate::error::Result;
use std::sync::Arc;

#[derive(Debug)]
pub struct PhysicalUnion {
    pub inputs: Vec<Box<dyn PhysicalOperator>>,
}

impl PhysicalOperator for PhysicalUnion {
    fn name(&self) -> &'static str {
        "UnionExec"
    }

    fn children(&self) -> Vec<&dyn PhysicalOperator> {
        self.inputs.iter().map(|b| b.as_ref()).collect()
    }

    fn open<'a>(&'a self, ctx: &mut ExecContext<'_>) -> Result<Box<dyn ChunkStream + 'a>> {
        let batches: Vec<Batch> = self
            .inputs
            .iter()
            .map(|p| collect_input(p.as_ref(), ctx))
            .collect::<Result<_>>()?;
        let out = Batch::concat(&batches)?;
        // UNION output columns lose their source qualifiers.
        let schema = Arc::new(out.schema().unqualified());
        out.with_schema(schema).map(materialized)
    }
}
