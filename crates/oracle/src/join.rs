//! Inner and left-semi equi-joins on a `HashMap<Vec<Value>, _>`.

use crate::expr::evaluate;
use dc_relational::batch::Batch;
use dc_relational::error::{Error, Result};
use dc_relational::expr::Expr;
use dc_relational::join::JoinType;
use dc_relational::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// Per-row key tuples; `None` if any key part is NULL (such rows never
/// join).
fn key_rows(batch: &Batch, keys: &[Expr]) -> Result<Vec<Option<Vec<Value>>>> {
    let cols = keys
        .iter()
        .map(|k| evaluate(k, batch))
        .collect::<Result<Vec<_>>>()?;
    Ok((0..batch.num_rows())
        .map(|i| {
            let key: Vec<Value> = cols.iter().map(|c| c.value(i)).collect();
            (!key.iter().any(Value::is_null)).then_some(key)
        })
        .collect())
}

/// Join `left` and `right` on pairwise-equal key expressions. Output rows
/// follow left order; an inner join lists each left row's matches in right
/// order (schema `left ++ right`), a semi join keeps each matching left row
/// once (left schema). NULL keys never match.
pub fn join(
    left: &Batch,
    right: &Batch,
    left_keys: &[Expr],
    right_keys: &[Expr],
    join_type: JoinType,
) -> Result<Batch> {
    if left_keys.len() != right_keys.len() || left_keys.is_empty() {
        return Err(Error::Plan(format!(
            "join requires matching non-empty key lists, got {} and {}",
            left_keys.len(),
            right_keys.len()
        )));
    }
    let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    for (i, key) in key_rows(right, right_keys)?.into_iter().enumerate() {
        if let Some(k) = key {
            table.entry(k).or_default().push(i);
        }
    }
    let mut li = Vec::new();
    let mut ri = Vec::new();
    for (i, key) in key_rows(left, left_keys)?.into_iter().enumerate() {
        let Some(matches) = key.and_then(|k| table.get(&k)) else {
            continue;
        };
        match join_type {
            JoinType::Inner => {
                for &m in matches {
                    li.push(i);
                    ri.push(m);
                }
            }
            JoinType::LeftSemi => li.push(i),
        }
    }
    let lt = left.take(&li);
    match join_type {
        JoinType::LeftSemi => Ok(lt),
        JoinType::Inner => {
            let rt = right.take(&ri);
            let schema = Arc::new(lt.schema().join(rt.schema()));
            let mut cols = lt.columns().to_vec();
            cols.extend(rt.columns().iter().cloned());
            Batch::new(schema, cols)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_relational::batch::schema_ref;
    use dc_relational::schema::{Field, Schema};
    use dc_relational::value::DataType;

    fn keyed(name: &str, keys: &[Option<i64>]) -> Batch {
        let schema = schema_ref(Schema::new(vec![
            Field::new(name, DataType::Int),
            Field::new(format!("{name}_row"), DataType::Int),
        ]));
        let rows: Vec<Vec<Value>> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| vec![k.map_or(Value::Null, Value::Int), Value::Int(i as i64)])
            .collect();
        Batch::from_rows(schema, &rows).unwrap()
    }

    /// (left keys, right keys, join type, expected (left row, right row)
    /// pairs — the right row is `None` for a semi join).
    #[test]
    fn join_semantics_table() {
        type Case = (
            &'static [Option<i64>],
            &'static [Option<i64>],
            JoinType,
            &'static [(i64, Option<i64>)],
        );
        let test_cases: [Case; 6] = [
            // NULL keys never match — not even another NULL.
            (
                &[None, Some(1)],
                &[None, Some(1)],
                JoinType::Inner,
                &[(1, Some(1))],
            ),
            (&[None], &[None], JoinType::LeftSemi, &[]),
            // One-to-many: left order, then right order.
            (
                &[Some(2), Some(1)],
                &[Some(1), Some(2), Some(1)],
                JoinType::Inner,
                &[(0, Some(1)), (1, Some(0)), (1, Some(2))],
            ),
            // A semi join keeps a left row once, however many matches.
            (
                &[Some(1), Some(3)],
                &[Some(1), Some(1)],
                JoinType::LeftSemi,
                &[(0, None)],
            ),
            (&[], &[Some(1)], JoinType::Inner, &[]),
            (&[Some(1)], &[], JoinType::Inner, &[]),
        ];
        for (l, r, jt, expect) in test_cases {
            let out = join(
                &keyed("l", l),
                &keyed("r", r),
                &[Expr::col("l")],
                &[Expr::col("r")],
                jt,
            )
            .unwrap();
            let got: Vec<(i64, Option<i64>)> = (0..out.num_rows())
                .map(|i| {
                    let row = out.row(i);
                    (row[1].as_int().unwrap(), row.get(3).and_then(Value::as_int))
                })
                .collect();
            assert_eq!(got, expect, "{l:?} {jt} {r:?}");
        }
    }

    #[test]
    fn mismatched_or_empty_key_lists_are_rejected() {
        let (l, r) = (keyed("l", &[Some(1)]), keyed("r", &[Some(1)]));
        assert!(join(&l, &r, &[], &[], JoinType::Inner).is_err());
        assert!(join(&l, &r, &[Expr::col("l")], &[], JoinType::Inner).is_err());
    }
}
