//! Hash aggregation with GROUP BY.

use super::{collect_input, materialized, ChunkStream, ExecContext, PhysicalOperator};
use crate::agg::{hash_aggregate, AggExpr};
use crate::error::Result;
use crate::expr::Expr;
use crate::hash::HashStats;

#[derive(Debug)]
pub struct PhysicalAggregate {
    pub input: Box<dyn PhysicalOperator>,
    pub group_by: Vec<(Expr, String)>,
    pub aggs: Vec<AggExpr>,
}

impl PhysicalOperator for PhysicalAggregate {
    fn name(&self) -> &'static str {
        "AggregateExec"
    }

    fn label(&self) -> String {
        let keys: Vec<String> = self.group_by.iter().map(|(e, _)| e.to_string()).collect();
        format!("AggregateExec: group by [{}]", keys.join(", "))
    }

    fn children(&self) -> Vec<&dyn PhysicalOperator> {
        vec![self.input.as_ref()]
    }

    fn open<'a>(&'a self, ctx: &mut ExecContext<'_>) -> Result<Box<dyn ChunkStream + 'a>> {
        let b = collect_input(self.input.as_ref(), ctx)?;
        // Each input row is hashed into a group once.
        ctx.metrics.frame().comparisons += b.num_rows() as u64;
        let mut hash = HashStats::default();
        let out = hash_aggregate(&b, &self.group_by, &self.aggs, &ctx.budget, &mut hash)?;
        ctx.metrics.frame().stats.add_hash(&hash);
        Ok(materialized(out))
    }
}
