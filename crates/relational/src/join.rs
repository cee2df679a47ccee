//! Hash joins: inner and left-semi.
//!
//! The paper's workloads join the reads table with *n-to-1 reference tables*
//! (locations, steps, products) and use semi-joins to restrict the set of
//! EPC sequences before cleansing (join-back rewrite, §5.3). NULL keys never
//! match, per SQL semantics.
//!
//! # What a join copies
//!
//! The match lists are computed first; what is gathered follows from them:
//!
//! * **Inner, every probe row matched exactly one build row** (an n-to-1
//!   reference join whose foreign keys are all present): the probe side's
//!   output *is* its input, so its columns are shared, not gathered; only
//!   the build side is gathered.
//! * **Inner, otherwise**: both sides are gathered, but only the columns in
//!   [`JoinEmit`] — a column nothing above the join reads is never touched.
//! * **Left-semi**: the left batch is returned under a selection vector (all
//!   of it, as it came, when every row matched); no column is gathered.

use crate::batch::Batch;
use crate::column::Column;
use crate::error::{Error, Result};
use crate::expr::Expr;
use crate::hash::{encode_keys, HashStats, NullKeys, RawKeyTable};
use crate::physical::QueryBudget;
use std::sync::Arc;

/// Rows between cooperative budget checkpoints inside the build and probe
/// loops. Large joins must notice cancellation/deadlines promptly instead of
/// only at operator boundaries.
pub(crate) const BUDGET_CHECK_INTERVAL: usize = 1024;

/// Supported join types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    /// Inner equi-join; output schema is `left ++ right`.
    Inner,
    /// Left semi-join: left rows with at least one right match; left schema.
    LeftSemi,
}

impl std::fmt::Display for JoinType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JoinType::Inner => f.write_str("INNER"),
            JoinType::LeftSemi => f.write_str("LEFT SEMI"),
        }
    }
}

/// Work performed by one hash join: probe count (the historical counter)
/// plus the hash-kernel counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct JoinWork {
    /// One per left row, NULL-keyed rows included.
    pub probes: u64,
    pub hash: HashStats,
}

/// The input columns an inner join emits, as positions in the left and the
/// right input's schema; the output schema is the chosen left fields then
/// the chosen right fields. Key expressions are evaluated on the full
/// inputs, so a key column need not be emitted. An emit list that names no
/// column at all emits the first left column, to carry the row count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinEmit {
    pub left: Vec<usize>,
    pub right: Vec<usize>,
}

/// Assemble the inner-join output from the match lists: `li[k]` / `ri[k]`
/// are the left / right logical rows of output row `k`, `li` ascending.
fn emit_inner(
    left: &Batch,
    right: &Batch,
    li: &[usize],
    ri: &[usize],
    emit: Option<&JoinEmit>,
) -> Result<Batch> {
    let (left, right) = match emit {
        // A batch carries its row count in its columns: when nothing above
        // reads any (`count(*)`), the first left column stands in.
        Some(e) if e.left.is_empty() && e.right.is_empty() => {
            (left.project(&[0]), right.project(&[]))
        }
        Some(e) => (left.project(&e.left), right.project(&e.right)),
        None => (left.clone(), right.clone()),
    };
    // `li` ascending and as long as the probe side, each row once: it is
    // 0, 1, 2, … and the probe side passes through.
    let every_row_once = li.len() == left.num_rows() && li.iter().enumerate().all(|(k, &i)| i == k);
    let lt = if every_row_once {
        left.flatten()
    } else {
        left.take(li)
    };
    let rt = right.take(ri);
    let schema = Arc::new(lt.schema().join(rt.schema()));
    let mut cols = lt.columns().to_vec();
    cols.extend(rt.columns().iter().cloned());
    Batch::new(schema, cols)
}

/// Hash join two batches on equi-key expressions.
///
/// The hash table is always built on the right input (the caller puts the
/// smaller/reference side on the right, as the planner does for dimension
/// tables): a normalized-key build table ([`crate::hash`]) with CSR match
/// lists — per-key build rows stay in ascending order, so matches come out
/// in right-input order — probed hash-first, with a memcmp only on a
/// candidate collision. An inner join emits the columns named by `emit`
/// (`None`: every column of both inputs); a semi-join emits the left batch
/// under a selection vector and ignores `emit`. `budget` is checked every
/// `BUDGET_CHECK_INTERVAL` rows inside both the build and the probe loop.
/// Returns the joined batch and the work performed.
pub fn hash_join(
    left: &Batch,
    right: &Batch,
    left_keys: &[Expr],
    right_keys: &[Expr],
    join_type: JoinType,
    emit: Option<&JoinEmit>,
    budget: &QueryBudget,
) -> Result<(Batch, JoinWork)> {
    if left_keys.len() != right_keys.len() || left_keys.is_empty() {
        return Err(Error::Plan(format!(
            "join requires matching non-empty key lists, got {} and {}",
            left_keys.len(),
            right_keys.len()
        )));
    }
    let mut hash = HashStats::default();
    const NO_SLOT: u32 = u32::MAX;

    // Build side.
    let rcols: Vec<Column> = right_keys
        .iter()
        .map(|k| k.evaluate(right))
        .collect::<Result<_>>()?;
    let rn = right.num_rows();
    let rkeys = encode_keys(&rcols, None, rn, NullKeys::Never, &mut hash)?;
    let mut table = RawKeyTable::with_capacity(rn);
    let mut slot_of_row: Vec<u32> = Vec::with_capacity(rn);
    let mut counts: Vec<u32> = Vec::new();
    for i in 0..rn {
        if i % BUDGET_CHECK_INTERVAL == 0 {
            budget.check()?;
        }
        if !rkeys.is_joinable(i) {
            slot_of_row.push(NO_SLOT);
            continue;
        }
        let (slot, fresh) = table.insert(rkeys.hash(i), rkeys.key(i), &mut hash)?;
        if fresh {
            counts.push(0);
        }
        counts[slot] += 1;
        slot_of_row.push(slot as u32);
    }
    // CSR layout: slot -> build rows, ascending.
    let mut offsets = vec![0u32; counts.len() + 1];
    for s in 0..counts.len() {
        offsets[s + 1] = offsets[s] + counts[s];
    }
    let mut match_rows = vec![0u32; offsets[counts.len()] as usize];
    let mut cursor = offsets[..counts.len()].to_vec();
    for (i, &s) in slot_of_row.iter().enumerate() {
        if s != NO_SLOT {
            match_rows[cursor[s as usize] as usize] = i as u32;
            cursor[s as usize] += 1;
        }
    }

    // Probe side.
    let lcols: Vec<Column> = left_keys
        .iter()
        .map(|k| k.evaluate(left))
        .collect::<Result<_>>()?;
    let ln = left.num_rows();
    let lkeys = encode_keys(&lcols, None, ln, NullKeys::Never, &mut hash)?;
    let mut probes: u64 = 0;
    let batch = match join_type {
        JoinType::Inner => {
            let mut li = Vec::new();
            let mut ri = Vec::new();
            for i in 0..ln {
                if i % BUDGET_CHECK_INTERVAL == 0 {
                    budget.check()?;
                }
                probes += 1;
                if !lkeys.is_joinable(i) {
                    continue;
                }
                if let Some(slot) = table.get(lkeys.hash(i), lkeys.key(i), &mut hash) {
                    for &m in &match_rows[offsets[slot] as usize..offsets[slot + 1] as usize] {
                        li.push(i);
                        ri.push(m as usize);
                    }
                }
            }
            emit_inner(left, right, &li, &ri, emit)?
        }
        JoinType::LeftSemi => {
            // Survivors as physical rows of `left`, resolved through the
            // selection it may already carry.
            let sel = left.selection();
            let mut survivors: Vec<u32> = Vec::new();
            for i in 0..ln {
                if i % BUDGET_CHECK_INTERVAL == 0 {
                    budget.check()?;
                }
                probes += 1;
                if !lkeys.is_joinable(i) {
                    continue;
                }
                if table.get(lkeys.hash(i), lkeys.key(i), &mut hash).is_some() {
                    survivors.push(sel.map_or(i as u32, |s| s[i]));
                }
            }
            left.clone().with_survivors(survivors)
        }
    };
    Ok((batch, JoinWork { probes, hash }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::schema_ref;
    use crate::schema::{Field, Schema};
    use crate::value::{DataType, Value};

    /// `hash_join` under an unlimited budget, returning the probe count.
    fn join(
        left: &Batch,
        right: &Batch,
        left_keys: &[Expr],
        right_keys: &[Expr],
        join_type: JoinType,
    ) -> Result<(Batch, u64)> {
        let budget = QueryBudget::unlimited();
        let (batch, work) =
            hash_join(left, right, left_keys, right_keys, join_type, None, &budget)?;
        Ok((batch, work.probes))
    }

    fn reads() -> Batch {
        let schema = schema_ref(Schema::new(vec![
            Field::qualified("c", "epc", DataType::Str),
            Field::qualified("c", "biz_loc", DataType::Str),
        ]));
        Batch::from_rows(
            schema,
            &[
                vec![Value::str("e1"), Value::str("l1")],
                vec![Value::str("e2"), Value::str("l2")],
                vec![Value::str("e3"), Value::Null],
                vec![Value::str("e4"), Value::str("l1")],
            ],
        )
        .unwrap()
    }

    fn locs() -> Batch {
        let schema = schema_ref(Schema::new(vec![
            Field::qualified("l", "gln", DataType::Str),
            Field::qualified("l", "site", DataType::Str),
        ]));
        Batch::from_rows(
            schema,
            &[
                vec![Value::str("l1"), Value::str("dc1")],
                vec![Value::str("l3"), Value::str("dc2")],
            ],
        )
        .unwrap()
    }

    #[test]
    fn inner_join_basics() {
        let (out, _) = join(
            &reads(),
            &locs(),
            &[Expr::col("c.biz_loc")],
            &[Expr::col("l.gln")],
            JoinType::Inner,
        )
        .unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.num_columns(), 4);
        let epcs: Vec<Value> = (0..2).map(|i| out.row(i)[0].clone()).collect();
        assert_eq!(epcs, vec![Value::str("e1"), Value::str("e4")]);
        assert_eq!(
            out.column_by_name("l.site").unwrap().value(0),
            Value::str("dc1")
        );
    }

    #[test]
    fn null_keys_never_match() {
        // e3 has NULL biz_loc; even a NULL on the right must not match it.
        let schema = schema_ref(Schema::new(vec![Field::new("gln", DataType::Str)]));
        let right = Batch::from_rows(schema, &[vec![Value::Null]]).unwrap();
        let (out, _) = join(
            &reads(),
            &right,
            &[Expr::col("c.biz_loc")],
            &[Expr::col("gln")],
            JoinType::Inner,
        )
        .unwrap();
        assert_eq!(out.num_rows(), 0);
    }

    #[test]
    fn semi_join_keeps_left_schema_and_dedupes() {
        // Duplicate right keys must not duplicate left rows.
        let schema = schema_ref(Schema::new(vec![Field::new("gln", DataType::Str)]));
        let right =
            Batch::from_rows(schema, &[vec![Value::str("l1")], vec![Value::str("l1")]]).unwrap();
        let (out, _) = join(
            &reads(),
            &right,
            &[Expr::col("c.biz_loc")],
            &[Expr::col("gln")],
            JoinType::LeftSemi,
        )
        .unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.num_columns(), 2);
    }

    #[test]
    fn multi_key_join() {
        let schema = schema_ref(Schema::new(vec![
            Field::new("a", DataType::Str),
            Field::new("b", DataType::Str),
        ]));
        let left = Batch::from_rows(
            schema.clone(),
            &[
                vec![Value::str("x"), Value::str("1")],
                vec![Value::str("x"), Value::str("2")],
            ],
        )
        .unwrap();
        let schema_r = schema_ref(Schema::new(vec![
            Field::new("c", DataType::Str),
            Field::new("d", DataType::Str),
        ]));
        let right = Batch::from_rows(schema_r, &[vec![Value::str("x"), Value::str("2")]]).unwrap();
        let (out, _) = join(
            &left,
            &right,
            &[Expr::col("a"), Expr::col("b")],
            &[Expr::col("c"), Expr::col("d")],
            JoinType::Inner,
        )
        .unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.row(0)[1], Value::str("2"));
    }

    #[test]
    fn one_to_many_inner_multiplies() {
        let schema = schema_ref(Schema::new(vec![Field::new("gln", DataType::Str)]));
        let right =
            Batch::from_rows(schema, &[vec![Value::str("l1")], vec![Value::str("l1")]]).unwrap();
        let (out, _) = join(
            &reads(),
            &right,
            &[Expr::col("c.biz_loc")],
            &[Expr::col("gln")],
            JoinType::Inner,
        )
        .unwrap();
        assert_eq!(out.num_rows(), 4); // e1 x2, e4 x2
    }

    #[test]
    fn empty_key_list_rejected() {
        assert!(join(&reads(), &locs(), &[], &[], JoinType::Inner).is_err());
    }

    /// A wide batch of `n` rows with int, str, and NULL-bearing key columns.
    fn wide(n: usize, null_every: usize, salt: i64) -> Batch {
        let schema = schema_ref(Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("s", DataType::Str),
        ]));
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| {
                let k = if null_every > 0 && i % null_every == 0 {
                    Value::Null
                } else {
                    Value::Int((i as i64 * salt) % 97)
                };
                vec![k, Value::str(format!("s{}", i % 13))]
            })
            .collect();
        Batch::from_rows(schema, &rows).unwrap()
    }

    #[test]
    fn probes_count_every_left_row_and_hash_work_is_recorded() {
        let budget = QueryBudget::unlimited();
        for jt in [JoinType::Inner, JoinType::LeftSemi] {
            let (l, r) = (wide(200, 7, 3), wide(40, 0, 5));
            let keys = [Expr::col("k"), Expr::col("s")];
            let (_, work) = hash_join(&l, &r, &keys, &keys, jt, None, &budget).unwrap();
            assert_eq!(work.probes, 200, "{jt}: NULL-keyed rows are probed too");
            assert!(work.hash.hash_ops > 0);
        }
    }

    #[test]
    fn expired_budget_aborts_inside_build_and_probe() {
        // An already-expired deadline must abort the join from inside its
        // loops (the first checkpoint fires at row 0 of the build loop).
        let budget = QueryBudget::unlimited().with_deadline(std::time::Duration::ZERO);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let l = wide(100, 0, 1);
        let r = wide(100, 0, 1);
        let keys = [Expr::col("k")];
        let err = hash_join(&l, &r, &keys, &keys, JoinType::Inner, None, &budget).unwrap_err();
        assert!(matches!(err, Error::Aborted(_)), "{err:?}");
    }
}
