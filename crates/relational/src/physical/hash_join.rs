//! Inner hash join (build right, probe left), emitting only the input
//! columns that are read above it.

use super::{collect_input, materialized, ChunkStream, ExecContext, PhysicalOperator};
use crate::error::Result;
use crate::expr::{ColumnRef, Expr};
use crate::join::{hash_join, JoinEmit, JoinType};
use crate::schema::{Field, Schema};

#[derive(Debug)]
pub struct PhysicalHashJoin {
    pub left: Box<dyn PhysicalOperator>,
    pub right: Box<dyn PhysicalOperator>,
    pub left_keys: Vec<Expr>,
    pub right_keys: Vec<Expr>,
    /// The column references read above the join: only input columns one of
    /// them can mean are emitted. `None`: every column of both inputs.
    pub emit: Option<Vec<ColumnRef>>,
}

/// Positions of the fields of `schema` that some reference in `refs` can
/// mean.
fn read_positions(schema: &Schema, refs: &[ColumnRef]) -> Vec<usize> {
    let read = |f: &Field| {
        refs.iter()
            .any(|r| f.matches(r.qualifier.as_deref(), &r.name))
    };
    (0..schema.len())
        .filter(|&i| read(schema.field(i)))
        .collect()
}

impl PhysicalOperator for PhysicalHashJoin {
    fn name(&self) -> &'static str {
        "HashJoinExec"
    }

    fn label(&self) -> String {
        let pairs: Vec<String> = self
            .left_keys
            .iter()
            .zip(&self.right_keys)
            .map(|(l, r)| format!("{l} = {r}"))
            .collect();
        let mut s = format!("HashJoinExec: on [{}]", pairs.join(", "));
        if let Some(refs) = &self.emit {
            let names: Vec<String> = refs.iter().map(ColumnRef::flat_name).collect();
            s.push_str(&format!(" emit=[{}]", names.join(", ")));
        }
        s
    }

    fn children(&self) -> Vec<&dyn PhysicalOperator> {
        vec![self.left.as_ref(), self.right.as_ref()]
    }

    fn open<'a>(&'a self, ctx: &mut ExecContext<'_>) -> Result<Box<dyn ChunkStream + 'a>> {
        let l = collect_input(self.left.as_ref(), ctx)?;
        let r = collect_input(self.right.as_ref(), ctx)?;
        let emit = self.emit.as_ref().map(|refs| JoinEmit {
            left: read_positions(l.schema(), refs),
            right: read_positions(r.schema(), refs),
        });
        let (out, work) = hash_join(
            &l,
            &r,
            &self.left_keys,
            &self.right_keys,
            JoinType::Inner,
            emit.as_ref(),
            &ctx.budget,
        )?;
        let m = ctx.metrics.frame();
        m.comparisons += work.probes;
        m.stats.join_probes += work.probes;
        m.stats.add_hash(&work.hash);
        Ok(materialized(out))
    }
}
