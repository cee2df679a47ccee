//! The per-row scalar expression evaluator.
//!
//! Expressions follow SQL three-valued logic: comparisons involving NULL
//! yield NULL, `AND`/`OR` use Kleene semantics, and a filter keeps only the
//! rows whose predicate is TRUE (not NULL).

use dc_relational::batch::Batch;
use dc_relational::column::{Column, ColumnBuilder};
use dc_relational::error::{Error, Result};
use dc_relational::expr::{BinaryOp, Expr};
use dc_relational::value::{DataType, Value};
use std::collections::HashSet;

/// Evaluate `expr` one boxed [`Value`] at a time, producing one value per
/// logical row (a batch carrying a selection vector is compacted first).
pub fn evaluate(expr: &Expr, batch: &Batch) -> Result<Column> {
    if !batch.is_flat() {
        return evaluate(expr, &batch.flatten());
    }
    let n = batch.num_rows();
    match expr {
        Expr::Column(c) => {
            let i = batch.schema().index_of(c.qualifier.as_deref(), &c.name)?;
            Ok(batch.column(i).clone())
        }
        Expr::Literal(v) => {
            let dt = v.data_type().unwrap_or(DataType::Int);
            let mut b = ColumnBuilder::new(dt, n);
            for _ in 0..n {
                b.push(v)?;
            }
            Ok(b.finish())
        }
        Expr::Binary { left, op, right } => {
            let l = evaluate(left, batch)?;
            let r = evaluate(right, batch)?;
            eval_binary(&l, *op, &r, expr)
        }
        Expr::Not(inner) => {
            let c = evaluate(inner, batch)?;
            let mut b = ColumnBuilder::new(DataType::Bool, n);
            for i in 0..n {
                match c.value(i) {
                    Value::Null => b.push_null(),
                    Value::Bool(x) => b.push(&Value::Bool(!x))?,
                    other => {
                        return Err(Error::Execution(format!(
                            "NOT applied to non-boolean {other}"
                        )))
                    }
                }
            }
            Ok(b.finish())
        }
        Expr::IsNull { expr, negated } => {
            let c = evaluate(expr, batch)?;
            let mut b = ColumnBuilder::new(DataType::Bool, n);
            for i in 0..n {
                let is_null = c.is_null(i);
                b.push(&Value::Bool(is_null != *negated))?;
            }
            Ok(b.finish())
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let set: HashSet<Value> = list.iter().cloned().collect();
            eval_in(&evaluate(expr, batch)?, &set, *negated)
        }
        Expr::InSet {
            expr, set, negated, ..
        } => eval_in(&evaluate(expr, batch)?, set, *negated),
        Expr::CountIf(_) => Err(Error::Plan(
            "count(<predicate>) is only valid inside a cleansing rule \
             condition over a set reference"
                .into(),
        )),
        Expr::Case {
            branches,
            else_expr,
        } => {
            let dt = expr.data_type(batch.schema())?;
            let conds: Vec<Column> = branches
                .iter()
                .map(|(c, _)| evaluate(c, batch))
                .collect::<Result<_>>()?;
            let results: Vec<Column> = branches
                .iter()
                .map(|(_, r)| evaluate(r, batch))
                .collect::<Result<_>>()?;
            let else_col = else_expr.as_ref().map(|e| evaluate(e, batch)).transpose()?;
            let mut b = ColumnBuilder::new(dt, n);
            'row: for i in 0..n {
                for (c, r) in conds.iter().zip(&results) {
                    if c.value(i).as_bool() == Some(true) {
                        b.push(&r.value(i))?;
                        continue 'row;
                    }
                }
                match &else_col {
                    Some(e) => b.push(&e.value(i))?,
                    None => b.push_null(),
                }
            }
            Ok(b.finish())
        }
    }
}

/// The logical row indices of `batch` where `pred` is TRUE.
pub fn filter_rows(pred: &Expr, batch: &Batch) -> Result<Vec<usize>> {
    let c = evaluate(pred, batch)?;
    if c.data_type() != DataType::Bool {
        return Err(Error::Execution(format!(
            "filter predicate produced {} not BOOLEAN",
            c.data_type()
        )));
    }
    Ok((0..c.len())
        .filter(|&i| c.value(i) == Value::Bool(true))
        .collect())
}

fn eval_in(c: &Column, set: &HashSet<Value>, negated: bool) -> Result<Column> {
    let mut b = ColumnBuilder::new(DataType::Bool, c.len());
    for i in 0..c.len() {
        if c.is_null(i) {
            b.push_null();
        } else {
            let hit = set.contains(&c.value(i));
            b.push(&Value::Bool(hit != negated))?;
        }
    }
    Ok(b.finish())
}

fn eval_binary(l: &Column, op: BinaryOp, r: &Column, ctx: &Expr) -> Result<Column> {
    let n = l.len();
    if op.is_comparison() {
        let mut b = ColumnBuilder::new(DataType::Bool, n);
        for i in 0..n {
            let lv = l.value(i);
            let rv = r.value(i);
            match lv.sql_cmp(&rv) {
                None => b.push_null(),
                Some(o) => {
                    let t = match op {
                        BinaryOp::Eq => o == std::cmp::Ordering::Equal,
                        BinaryOp::NotEq => o != std::cmp::Ordering::Equal,
                        BinaryOp::Lt => o == std::cmp::Ordering::Less,
                        BinaryOp::LtEq => o != std::cmp::Ordering::Greater,
                        BinaryOp::Gt => o == std::cmp::Ordering::Greater,
                        BinaryOp::GtEq => o != std::cmp::Ordering::Less,
                        _ => unreachable!(),
                    };
                    b.push(&Value::Bool(t))?;
                }
            }
        }
        return Ok(b.finish());
    }
    match op {
        BinaryOp::And | BinaryOp::Or => {
            let mut b = ColumnBuilder::new(DataType::Bool, n);
            for i in 0..n {
                let lv = if l.is_null(i) {
                    None
                } else {
                    l.value(i).as_bool()
                };
                let rv = if r.is_null(i) {
                    None
                } else {
                    r.value(i).as_bool()
                };
                // Kleene three-valued logic.
                let out = if op == BinaryOp::And {
                    match (lv, rv) {
                        (Some(false), _) | (_, Some(false)) => Some(false),
                        (Some(true), Some(true)) => Some(true),
                        _ => None,
                    }
                } else {
                    match (lv, rv) {
                        (Some(true), _) | (_, Some(true)) => Some(true),
                        (Some(false), Some(false)) => Some(false),
                        _ => None,
                    }
                };
                match out {
                    Some(v) => b.push(&Value::Bool(v))?,
                    None => b.push_null(),
                }
            }
            Ok(b.finish())
        }
        BinaryOp::Plus | BinaryOp::Minus | BinaryOp::Multiply | BinaryOp::Divide => {
            let int_result = l.data_type() == DataType::Int
                && r.data_type() == DataType::Int
                && op != BinaryOp::Divide;
            let dt = if int_result {
                DataType::Int
            } else {
                DataType::Double
            };
            let mut b = ColumnBuilder::new(dt, n);
            for i in 0..n {
                let lv = l.value(i);
                let rv = r.value(i);
                if lv.is_null() || rv.is_null() {
                    b.push_null();
                    continue;
                }
                if int_result {
                    let (x, y) = (lv.as_int().unwrap(), rv.as_int().unwrap());
                    let out = match op {
                        BinaryOp::Plus => x.checked_add(y),
                        BinaryOp::Minus => x.checked_sub(y),
                        BinaryOp::Multiply => x.checked_mul(y),
                        _ => unreachable!(),
                    };
                    match out {
                        Some(v) => b.push(&Value::Int(v))?,
                        None => {
                            return Err(Error::Execution(format!(
                                "integer overflow evaluating {ctx}"
                            )))
                        }
                    }
                } else {
                    let (x, y) = (
                        lv.as_double().ok_or_else(|| {
                            Error::Execution(format!("non-numeric operand {lv} in {ctx}"))
                        })?,
                        rv.as_double().ok_or_else(|| {
                            Error::Execution(format!("non-numeric operand {rv} in {ctx}"))
                        })?,
                    );
                    let out = match op {
                        BinaryOp::Plus => x + y,
                        BinaryOp::Minus => x - y,
                        BinaryOp::Multiply => x * y,
                        BinaryOp::Divide => {
                            if y == 0.0 {
                                b.push_null();
                                continue;
                            }
                            x / y
                        }
                        _ => unreachable!(),
                    };
                    b.push(&Value::Double(out))?;
                }
            }
            Ok(b.finish())
        }
        _ => Err(Error::Internal(format!("unhandled binary op {op}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_relational::batch::schema_ref;
    use dc_relational::schema::{Field, Schema};

    /// Three-valued truth, written out so the table below is checked against
    /// something that shares no code with the evaluator.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Truth {
        True,
        False,
        Unknown,
    }
    use Truth::{False as F, True as T, Unknown as U};

    impl Truth {
        fn and(self, other: Truth) -> Truth {
            match (self, other) {
                (F, _) | (_, F) => F,
                (T, T) => T,
                _ => U,
            }
        }

        fn or(self, other: Truth) -> Truth {
            match (self, other) {
                (T, _) | (_, T) => T,
                (F, F) => F,
                _ => U,
            }
        }

        fn not(self) -> Truth {
            match self {
                T => F,
                F => T,
                U => U,
            }
        }

        fn value(self) -> Value {
            match self {
                T => Value::Bool(true),
                F => Value::Bool(false),
                U => Value::Null,
            }
        }
    }

    /// One row per (p, q) pair over {TRUE, FALSE, NULL}².
    fn truth_pairs() -> (Batch, Vec<(Truth, Truth)>) {
        let pairs: Vec<(Truth, Truth)> = [T, F, U]
            .into_iter()
            .flat_map(|p| [T, F, U].map(|q| (p, q)))
            .collect();
        let schema = schema_ref(Schema::new(vec![
            Field::new("p", DataType::Bool),
            Field::new("q", DataType::Bool),
        ]));
        let rows: Vec<Vec<Value>> = pairs
            .iter()
            .map(|(p, q)| vec![p.value(), q.value()])
            .collect();
        (Batch::from_rows(schema, &rows).unwrap(), pairs)
    }

    #[test]
    fn kleene_connectives_match_the_explicit_fold() {
        let (batch, pairs) = truth_pairs();
        let (p, q) = (Expr::col("p"), Expr::col("q"));
        type Fold = fn(Truth, Truth) -> Truth;
        let test_cases: [(Expr, Fold); 5] = [
            (p.clone().and(q.clone()), |p, q| p.and(q)),
            (p.clone().or(q.clone()), |p, q| p.or(q)),
            (Expr::Not(Box::new(p.clone())), |p, _| p.not()),
            // De Morgan, and a fold deeper than one connective.
            (Expr::Not(Box::new(p.clone().and(q.clone()))), |p, q| {
                p.not().or(q.not())
            }),
            (
                p.clone().and(q.clone()).or(Expr::Not(Box::new(q.clone()))),
                |p, q| p.and(q).or(q.not()),
            ),
        ];
        for (expr, fold) in test_cases {
            let got = evaluate(&expr, &batch).unwrap();
            for (i, &(p, q)) in pairs.iter().enumerate() {
                assert_eq!(
                    got.value(i),
                    fold(p, q).value(),
                    "{expr} at p={p:?} q={q:?}"
                );
            }
            // A filter keeps exactly the TRUE rows — never the UNKNOWN ones.
            let kept = filter_rows(&expr, &batch).unwrap();
            let expect: Vec<usize> = (0..pairs.len())
                .filter(|&i| fold(pairs[i].0, pairs[i].1) == T)
                .collect();
            assert_eq!(kept, expect, "{expr}");
        }
    }

    fn numbers() -> Batch {
        let schema = schema_ref(Schema::new(vec![
            Field::new("i", DataType::Int),
            Field::new("d", DataType::Double),
            Field::new("s", DataType::Str),
        ]));
        Batch::from_rows(
            schema,
            &[
                vec![Value::Int(2), Value::Double(0.5), Value::str("x")],
                vec![Value::Null, Value::Double(2.0), Value::str("y")],
                vec![Value::Int(-3), Value::Null, Value::Null],
            ],
        )
        .unwrap()
    }

    /// (expression, expected value per row of `numbers()`).
    #[test]
    fn scalar_semantics_table() {
        let (i, d, s) = (Expr::col("i"), Expr::col("d"), Expr::col("s"));
        let bin = Expr::binary;
        let null = Value::Null;
        let test_cases = [
            // A comparison with NULL on either side is NULL.
            (
                i.clone().lt(Expr::lit(0i64)),
                [Value::Bool(false), null.clone(), Value::Bool(true)],
            ),
            // Int and Double compare numerically.
            (
                i.clone().gt(d.clone()),
                [Value::Bool(true), null.clone(), null.clone()],
            ),
            // Int arithmetic stays Int; a Double operand or a division widens.
            (
                bin(i.clone(), BinaryOp::Multiply, Expr::lit(3i64)),
                [Value::Int(6), null.clone(), Value::Int(-9)],
            ),
            (
                bin(i.clone(), BinaryOp::Plus, d.clone()),
                [Value::Double(2.5), null.clone(), null.clone()],
            ),
            (
                bin(i.clone(), BinaryOp::Divide, Expr::lit(4i64)),
                [Value::Double(0.5), null.clone(), Value::Double(-0.75)],
            ),
            // Division by zero is NULL, not an error.
            (
                bin(d.clone(), BinaryOp::Divide, Expr::lit(0i64)),
                [null.clone(), null.clone(), null.clone()],
            ),
            // IS NULL is never NULL itself.
            (
                Expr::IsNull {
                    expr: Box::new(s.clone()),
                    negated: true,
                },
                [Value::Bool(true), Value::Bool(true), Value::Bool(false)],
            ),
            // IN over a NULL probe is NULL, negated or not.
            (
                Expr::InList {
                    expr: Box::new(s.clone()),
                    list: vec![Value::str("y")],
                    negated: true,
                },
                [Value::Bool(true), Value::Bool(false), null.clone()],
            ),
            // CASE takes the first TRUE branch; no branch and no ELSE is NULL.
            (
                Expr::Case {
                    branches: vec![
                        (i.clone().gt(Expr::lit(0i64)), Expr::lit("pos")),
                        (i.clone().lt(Expr::lit(0i64)), Expr::lit("neg")),
                    ],
                    else_expr: None,
                },
                [Value::str("pos"), null.clone(), Value::str("neg")],
            ),
        ];
        let batch = numbers();
        for (expr, expect) in test_cases {
            let got = evaluate(&expr, &batch).unwrap();
            assert_eq!(got.iter().collect::<Vec<_>>(), expect, "{expr}");
        }
    }

    #[test]
    fn errors_and_selections() {
        let batch = numbers();
        let overflow = Expr::binary(Expr::col("i"), BinaryOp::Plus, Expr::lit(i64::MAX));
        assert!(evaluate(&overflow, &batch).is_err());
        // Only selected rows are evaluated: without row 0 nothing overflows.
        let tail = batch.with_selection(vec![1, 2]);
        let got = evaluate(&overflow, &tail).unwrap();
        assert_eq!(
            got.iter().collect::<Vec<_>>(),
            [Value::Null, Value::Int(i64::MAX - 3)]
        );
        assert!(evaluate(&Expr::Not(Box::new(Expr::col("i"))), &batch).is_err());
        assert!(filter_rows(&Expr::col("i"), &batch).is_err());
        assert!(evaluate(&Expr::CountIf(Box::new(Expr::col("i"))), &batch).is_err());
    }
}
