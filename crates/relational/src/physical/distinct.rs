//! Duplicate-row elimination.

use super::{collect_input, materialized, ChunkStream, ExecContext, PhysicalOperator};
use crate::agg::distinct;
use crate::error::Result;
use crate::hash::HashStats;

#[derive(Debug)]
pub struct PhysicalDistinct {
    pub input: Box<dyn PhysicalOperator>,
}

impl PhysicalOperator for PhysicalDistinct {
    fn name(&self) -> &'static str {
        "DistinctExec"
    }

    fn children(&self) -> Vec<&dyn PhysicalOperator> {
        vec![self.input.as_ref()]
    }

    fn open<'a>(&'a self, ctx: &mut ExecContext<'_>) -> Result<Box<dyn ChunkStream + 'a>> {
        let b = collect_input(self.input.as_ref(), ctx)?;
        // Each input row is hashed against the seen-set once.
        ctx.metrics.frame().comparisons += b.num_rows() as u64;
        let mut hash = HashStats::default();
        let out = distinct(&b, &ctx.budget, &mut hash)?;
        ctx.metrics.frame().stats.add_hash(&hash);
        Ok(materialized(out))
    }
}
