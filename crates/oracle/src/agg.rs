//! GROUP BY aggregation and DISTINCT on `Vec<Value>` keys.
//!
//! Every aggregate is folded from the group's collected argument values in
//! input order; nothing is maintained incrementally.

use crate::expr::evaluate;
use dc_relational::agg::{AggExpr, AggFunc};
use dc_relational::batch::Batch;
use dc_relational::column::Column;
use dc_relational::error::{Error, Result};
use dc_relational::expr::Expr;
use dc_relational::schema::{Field, Schema};
use dc_relational::value::{DataType, Value};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// One aggregate over a group's non-NULL argument values (`count(*)` gets
/// the group's row count instead). `arg_type` is the argument column's
/// type, which decides between integer and floating-point `sum`/`avg`.
fn fold(func: &AggFunc, rows: usize, vals: &[Value], arg_type: Option<DataType>) -> Result<Value> {
    let numeric = |what: &str, v: &Value| {
        v.as_double()
            .ok_or_else(|| Error::Execution(format!("{what} over non-numeric value {v}")))
    };
    let integer = |what: &str, v: &Value| {
        v.as_int()
            .ok_or_else(|| Error::Execution(format!("{what} over non-integer value {v}")))
    };
    Ok(match func {
        AggFunc::CountStar => Value::Int(rows as i64),
        AggFunc::Count(_) => Value::Int(vals.len() as i64),
        AggFunc::CountDistinct(_) => Value::Int(vals.iter().collect::<HashSet<_>>().len() as i64),
        _ if vals.is_empty() => Value::Null,
        AggFunc::Sum(_) if arg_type == Some(DataType::Double) => {
            let mut sum = 0.0;
            for v in vals {
                sum += numeric("sum", v)?;
            }
            Value::Double(sum)
        }
        AggFunc::Sum(_) => {
            let mut sum: i64 = 0;
            for v in vals {
                sum = sum
                    .checked_add(integer("sum", v)?)
                    .ok_or_else(|| Error::Execution("sum overflow".into()))?;
            }
            Value::Int(sum)
        }
        AggFunc::Avg(_) if arg_type == Some(DataType::Int) => {
            let mut sum: i128 = 0;
            for v in vals {
                sum += integer("avg", v)? as i128;
            }
            Value::Double(sum as f64 / vals.len() as f64)
        }
        AggFunc::Avg(_) => {
            let mut sum = 0.0;
            for v in vals {
                sum += numeric("avg", v)?;
            }
            Value::Double(sum / vals.len() as f64)
        }
        AggFunc::Min(_) => extreme(vals, Ordering::Less),
        AggFunc::Max(_) => extreme(vals, Ordering::Greater),
    })
}

/// The value of `vals` that compares `better` against all others; the
/// earliest of equal extremes wins, as a front-to-back scan keeps it.
fn extreme(vals: &[Value], better: Ordering) -> Value {
    vals.iter()
        .fold(None::<&Value>, |best, v| match best {
            Some(b) if v.total_cmp(b) != better => Some(b),
            _ => Some(v),
        })
        .cloned()
        .unwrap_or(Value::Null)
}

/// Group `input` by the `group_by` expressions and compute `aggs` per
/// group. Output columns are the group expressions (named by their aliases)
/// then the aggregates; groups come out in first-seen order. NULL group
/// keys form one group; aggregate arguments skip NULLs; a global aggregate
/// over an empty input yields one row.
pub fn aggregate(input: &Batch, group_by: &[(Expr, String)], aggs: &[AggExpr]) -> Result<Batch> {
    let n = input.num_rows();
    let group_cols: Vec<Column> = group_by
        .iter()
        .map(|(e, _)| evaluate(e, input))
        .collect::<Result<_>>()?;
    let arg_cols: Vec<Option<Column>> = aggs
        .iter()
        .map(|a| a.func.arg().map(|e| evaluate(e, input)).transpose())
        .collect::<Result<_>>()?;

    // Group key -> member rows, in first-seen group order.
    let mut slots: HashMap<Vec<Value>, usize> = HashMap::new();
    let mut groups: Vec<(Vec<Value>, Vec<usize>)> = Vec::new();
    for i in 0..n {
        let key: Vec<Value> = group_cols.iter().map(|c| c.value(i)).collect();
        let slot = *slots.entry(key.clone()).or_insert(groups.len());
        if slot == groups.len() {
            groups.push((key, Vec::new()));
        }
        groups[slot].1.push(i);
    }
    if groups.is_empty() && group_by.is_empty() {
        groups.push((Vec::new(), Vec::new()));
    }

    let mut fields = Vec::with_capacity(group_by.len() + aggs.len());
    for ((e, alias), c) in group_by.iter().zip(&group_cols) {
        let dt = if n == 0 {
            e.data_type(input.schema()).unwrap_or(DataType::Int)
        } else {
            c.data_type()
        };
        fields.push(Field::new(alias.clone(), dt));
    }
    for a in aggs {
        fields.push(Field::new(
            a.alias.clone(),
            a.func.output_type(input.schema())?,
        ));
    }

    let mut rows = Vec::with_capacity(groups.len());
    for (key, members) in groups {
        let mut row = key;
        for (a, arg) in aggs.iter().zip(&arg_cols) {
            let vals: Vec<Value> = arg
                .iter()
                .flat_map(|c| members.iter().map(|&i| c.value(i)).filter(|v| !v.is_null()))
                .collect();
            let arg_type = arg.as_ref().map(Column::data_type);
            row.push(fold(&a.func, members.len(), &vals, arg_type)?);
        }
        rows.push(row);
    }
    Batch::from_rows(Arc::new(Schema::new(fields)), &rows)
}

/// DISTINCT over whole rows (NULLs equal each other), keeping each row's
/// first occurrence in input order.
pub fn distinct(input: &Batch) -> Batch {
    let mut seen: HashSet<Vec<Value>> = HashSet::new();
    let keep: Vec<usize> = (0..input.num_rows())
        .filter(|&i| seen.insert(input.row(i)))
        .collect();
    input.take(&keep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rows_of;
    use dc_relational::batch::schema_ref;

    fn batch(rows: &[(Option<&str>, Option<i64>, Option<f64>)]) -> Batch {
        let schema = schema_ref(Schema::new(vec![
            Field::new("k", DataType::Str),
            Field::new("i", DataType::Int),
            Field::new("d", DataType::Double),
        ]));
        let rows: Vec<Vec<Value>> = rows
            .iter()
            .map(|(k, i, d)| {
                vec![
                    k.map_or(Value::Null, Value::str),
                    i.map_or(Value::Null, Value::Int),
                    d.map_or(Value::Null, Value::Double),
                ]
            })
            .collect();
        Batch::from_rows(schema, &rows).unwrap()
    }

    fn agg(func: AggFunc) -> AggExpr {
        AggExpr {
            func,
            alias: "a".into(),
        }
    }

    /// Each aggregate over the one global group of a fixed input.
    #[test]
    fn aggregate_function_table() {
        let input = batch(&[
            (Some("x"), Some(3), Some(0.5)),
            (Some("y"), None, Some(1.5)),
            (Some("x"), Some(4), None),
            (None, Some(3), Some(0.5)),
        ]);
        let (i, d, k) = (Expr::col("i"), Expr::col("d"), Expr::col("k"));
        let test_cases = [
            (AggFunc::CountStar, Value::Int(4)),
            (AggFunc::Count(i.clone()), Value::Int(3)),
            (AggFunc::CountDistinct(i.clone()), Value::Int(2)),
            (AggFunc::CountDistinct(k.clone()), Value::Int(2)),
            (AggFunc::Sum(i.clone()), Value::Int(10)),
            (AggFunc::Sum(d.clone()), Value::Double(2.5)),
            (AggFunc::Avg(i.clone()), Value::Double(10.0 / 3.0)),
            (AggFunc::Avg(d.clone()), Value::Double(2.5 / 3.0)),
            (AggFunc::Min(i.clone()), Value::Int(3)),
            (AggFunc::Max(d), Value::Double(1.5)),
            (AggFunc::Min(k.clone()), Value::str("x")),
            (AggFunc::Max(k), Value::str("y")),
        ];
        for (func, expect) in test_cases {
            let out = aggregate(&input, &[], &[agg(func.clone())]).unwrap();
            assert_eq!(rows_of(&out), vec![vec![expect]], "{func}");
        }
    }

    /// Aggregates over no non-NULL value: counts are 0, the rest NULL — for
    /// an all-NULL group and for the one row a global aggregate yields over
    /// an empty input alike.
    #[test]
    fn empty_and_all_null_groups() {
        let i = Expr::col("i");
        let test_cases = [
            (AggFunc::Count(i.clone()), Value::Int(0)),
            (AggFunc::CountDistinct(i.clone()), Value::Int(0)),
            (AggFunc::Sum(i.clone()), Value::Null),
            (AggFunc::Avg(i.clone()), Value::Null),
            (AggFunc::Min(i.clone()), Value::Null),
            (AggFunc::Max(i), Value::Null),
        ];
        for (func, expect) in test_cases {
            for (input, count_star) in [(batch(&[(None, None, None)]), 1), (batch(&[]), 0)] {
                let out = aggregate(&input, &[], &[agg(func.clone()), agg(AggFunc::CountStar)]);
                assert_eq!(
                    rows_of(&out.unwrap()),
                    vec![vec![expect.clone(), Value::Int(count_star)]],
                    "{func}"
                );
            }
        }
        // A grouped aggregate over an empty input has no groups at all.
        let grouped = aggregate(
            &batch(&[]),
            &[(Expr::col("k"), "k".into())],
            &[agg(AggFunc::CountStar)],
        );
        assert_eq!(grouped.unwrap().num_rows(), 0);
    }

    #[test]
    fn null_group_keys_form_one_group_in_first_seen_order() {
        let input = batch(&[
            (None, Some(1), None),
            (Some("x"), Some(2), None),
            (None, Some(3), None),
        ]);
        let out = aggregate(
            &input,
            &[(Expr::col("k"), "k".into())],
            &[agg(AggFunc::Sum(Expr::col("i")))],
        )
        .unwrap();
        assert_eq!(
            rows_of(&out),
            vec![
                vec![Value::Null, Value::Int(4)],
                vec![Value::str("x"), Value::Int(2)]
            ]
        );
    }

    #[test]
    fn integer_sum_overflow_is_an_error_but_avg_is_not() {
        let input = batch(&[(None, Some(i64::MAX), None), (None, Some(1), None)]);
        let i = Expr::col("i");
        assert!(aggregate(&input, &[], &[agg(AggFunc::Sum(i.clone()))]).is_err());
        assert!(aggregate(&input, &[], &[agg(AggFunc::Avg(i))]).is_ok());
    }

    #[test]
    fn distinct_keeps_first_occurrences_and_equates_nulls() {
        let input = batch(&[
            (Some("x"), None, Some(0.0)),
            (None, None, None),
            (Some("x"), None, Some(0.0)),
            (None, None, None),
            (Some("x"), None, Some(-0.0)),
        ]);
        // 0.0 and -0.0 differ bit for bit, so they are distinct rows.
        assert_eq!(rows_of(&distinct(&input)).len(), 3);
        assert_eq!(distinct(&input).row(1), vec![Value::Null; 3]);
    }
}
