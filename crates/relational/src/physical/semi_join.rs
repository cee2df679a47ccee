//! Left semi join — keeps left rows with at least one right match (the
//! shape joinback (q_j) rewrites use to re-fetch surviving base rows).

use super::{collect_input, materialized, ChunkStream, ExecContext, PhysicalOperator};
use crate::error::Result;
use crate::expr::Expr;
use crate::join::{hash_join, JoinType};

#[derive(Debug)]
pub struct PhysicalSemiJoin {
    pub left: Box<dyn PhysicalOperator>,
    pub right: Box<dyn PhysicalOperator>,
    pub left_keys: Vec<Expr>,
    pub right_keys: Vec<Expr>,
}

impl PhysicalOperator for PhysicalSemiJoin {
    fn name(&self) -> &'static str {
        "SemiJoinExec"
    }

    fn label(&self) -> String {
        let pairs: Vec<String> = self
            .left_keys
            .iter()
            .zip(&self.right_keys)
            .map(|(l, r)| format!("{l} = {r}"))
            .collect();
        format!("SemiJoinExec: on [{}]", pairs.join(", "))
    }

    fn children(&self) -> Vec<&dyn PhysicalOperator> {
        vec![self.left.as_ref(), self.right.as_ref()]
    }

    fn open<'a>(&'a self, ctx: &mut ExecContext<'_>) -> Result<Box<dyn ChunkStream + 'a>> {
        let l = collect_input(self.left.as_ref(), ctx)?;
        let r = collect_input(self.right.as_ref(), ctx)?;
        let (out, work) = hash_join(
            &l,
            &r,
            &self.left_keys,
            &self.right_keys,
            JoinType::LeftSemi,
            None,
            &ctx.budget,
        )?;
        let m = ctx.metrics.frame();
        m.comparisons += work.probes;
        m.stats.join_probes += work.probes;
        m.stats.add_hash(&work.hash);
        Ok(materialized(out))
    }
}
