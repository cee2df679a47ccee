//! A materialized interpreter for [`LogicalPlan`]: every node computes its
//! whole output batch from its inputs' whole output batches, with the
//! reference operators of this crate. No lowering, no index access, no
//! streaming, no order sharing — `Window` always sorts its input itself.

use crate::agg::{aggregate, distinct};
use crate::expr::{evaluate, filter_rows};
use crate::join::join;
use crate::window::NaiveWindow;
use dc_relational::batch::Batch;
use dc_relational::column::Column;
use dc_relational::error::{Error, Result};
use dc_relational::plan::{window_sort_keys, LogicalPlan};
use dc_relational::schema::{Field, Schema};
use dc_relational::sort::SortKey;
use dc_relational::table::Catalog;
use dc_relational::value::Value;
use std::cmp::Ordering;
use std::sync::Arc;

/// Execute `plan` against `catalog` to its full result.
pub fn execute(plan: &LogicalPlan, catalog: &Catalog) -> Result<Batch> {
    match plan {
        LogicalPlan::Scan {
            table,
            alias,
            filter,
        } => {
            let t = catalog.get(table)?;
            let schema = match alias {
                Some(a) => Arc::new(t.schema().with_qualifier(a)),
                None => t.schema().clone(),
            };
            let rows = t.data().with_schema(schema)?;
            match filter {
                Some(f) => keep(&rows, f),
                None => Ok(rows),
            }
        }
        LogicalPlan::Filter { input, predicate } => keep(&execute(input, catalog)?, predicate),
        LogicalPlan::Project { input, exprs } => {
            let b = execute(input, catalog)?;
            let cols: Vec<Column> = exprs
                .iter()
                .map(|(e, _)| evaluate(e, &b))
                .collect::<Result<_>>()?;
            let fields = exprs
                .iter()
                .zip(&cols)
                .map(|((_, alias), c)| Field::from_flat_name(alias, c.data_type()))
                .collect();
            Batch::new(Arc::new(Schema::new(fields)), cols)
        }
        LogicalPlan::Sort { input, keys } => stable_sort(&execute(input, catalog)?, keys),
        LogicalPlan::Window {
            input,
            partition_by,
            order_by,
            exprs,
            presorted: _,
        } => {
            let b = stable_sort(
                &execute(input, catalog)?,
                &window_sort_keys(partition_by, order_by),
            )?;
            // RANGE frames are defined over a single order key.
            let order_key = match order_by.as_slice() {
                [only] => Some(&only.expr),
                _ => None,
            };
            let values = NaiveWindow::prepare(&b, partition_by, order_key, exprs)?.eval_all()?;
            let mut fields = b.schema().fields().to_vec();
            let mut cols = b.columns().to_vec();
            for (we, vals) in exprs.iter().zip(values) {
                let dt = we.data_type(b.schema())?;
                fields.push(Field::new(we.alias.clone(), dt));
                cols.push(Column::from_values(dt, &vals)?);
            }
            Batch::new(Arc::new(Schema::new(fields)), cols)
        }
        LogicalPlan::Join {
            left,
            right,
            left_keys,
            right_keys,
            join_type,
        } => join(
            &execute(left, catalog)?,
            &execute(right, catalog)?,
            left_keys,
            right_keys,
            *join_type,
        ),
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => aggregate(&execute(input, catalog)?, group_by, aggs),
        LogicalPlan::Distinct { input } => Ok(distinct(&execute(input, catalog)?)),
        LogicalPlan::Union { inputs } => {
            let parts: Vec<Batch> = inputs
                .iter()
                .map(|p| execute(p, catalog))
                .collect::<Result<_>>()?;
            let first = parts
                .first()
                .ok_or_else(|| Error::Plan("UNION of zero inputs".into()))?;
            // UNION output columns lose their source qualifiers.
            let schema = Arc::new(first.schema().unqualified());
            let rows: Vec<Vec<Value>> = parts.iter().flat_map(crate::rows_of).collect();
            Batch::from_rows(schema, &rows)
        }
        LogicalPlan::Limit { input, fetch } => {
            let b = execute(input, catalog)?;
            let keep: Vec<usize> = (0..b.num_rows().min(*fetch)).collect();
            Ok(b.take(&keep))
        }
        LogicalPlan::SubqueryAlias { input, alias } => {
            let b = execute(input, catalog)?;
            let schema = Arc::new(b.schema().with_qualifier(alias));
            b.with_schema(schema)
        }
    }
}

/// The rows of `b` where `pred` is TRUE, in order.
fn keep(b: &Batch, pred: &dc_relational::expr::Expr) -> Result<Batch> {
    Ok(b.take(&filter_rows(pred, b)?))
}

/// `b` reordered by `keys`; rows that compare equal keep their input order.
fn stable_sort(b: &Batch, keys: &[SortKey]) -> Result<Batch> {
    let cols: Vec<Column> = keys
        .iter()
        .map(|k| evaluate(&k.expr, b))
        .collect::<Result<_>>()?;
    let cmp = |&x: &usize, &y: &usize| -> Ordering {
        for (k, c) in keys.iter().zip(&cols) {
            let o = match (c.value(x), c.value(y)) {
                (Value::Null, Value::Null) => Ordering::Equal,
                (Value::Null, _) if k.nulls_first => Ordering::Less,
                (Value::Null, _) => Ordering::Greater,
                (_, Value::Null) if k.nulls_first => Ordering::Greater,
                (_, Value::Null) => Ordering::Less,
                (a, b) if k.ascending => a.total_cmp(&b),
                (a, b) => b.total_cmp(&a),
            };
            if o != Ordering::Equal {
                return o;
            }
        }
        Ordering::Equal
    };
    let mut perm: Vec<usize> = (0..b.num_rows()).collect();
    perm.sort_by(cmp);
    Ok(b.take(&perm))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rows_of;
    use dc_relational::agg::{AggExpr, AggFunc};
    use dc_relational::batch::schema_ref;
    use dc_relational::expr::Expr;
    use dc_relational::join::JoinType;
    use dc_relational::table::Table;
    use dc_relational::value::DataType;
    use dc_relational::window::{Frame, FrameBound, WindowExpr, WindowFuncKind};

    /// r(epc, t): (b,2) (a,3) (b,1) (a,NULL) (c,5); d(k): a, c.
    fn catalog() -> Catalog {
        let schema = schema_ref(Schema::new(vec![
            Field::new("epc", DataType::Str),
            Field::new("t", DataType::Int),
        ]));
        let rows: Vec<Vec<Value>> = [
            ("b", Some(2)),
            ("a", Some(3)),
            ("b", Some(1)),
            ("a", None),
            ("c", Some(5)),
        ]
        .into_iter()
        .map(|(e, t)| vec![Value::str(e), t.map_or(Value::Null, Value::Int)])
        .collect();
        let cat = Catalog::new();
        cat.register(Table::new("r", Batch::from_rows(schema, &rows).unwrap()));
        let dim = schema_ref(Schema::new(vec![Field::new("k", DataType::Str)]));
        let rows = [vec![Value::str("a")], vec![Value::str("c")]];
        cat.register(Table::new("d", Batch::from_rows(dim, &rows).unwrap()));
        cat
    }

    fn run(plan: LogicalPlan) -> Vec<Vec<Value>> {
        rows_of(&execute(&plan, &catalog()).unwrap())
    }

    fn row(epc: &str, t: Option<i64>) -> Vec<Value> {
        vec![Value::str(epc), t.map_or(Value::Null, Value::Int)]
    }

    /// One case per plan node, each pinning the node's row order.
    #[test]
    fn every_node_table() {
        let r = || LogicalPlan::scan("r");
        let t = || Expr::col("t");
        let test_cases = [
            (
                "scan with a pushed-down filter: table order, NULL dropped",
                LogicalPlan::Scan {
                    table: "r".into(),
                    alias: Some("x".into()),
                    filter: Some(Expr::col("x.t").gt(Expr::lit(1i64))),
                },
                vec![row("b", Some(2)), row("a", Some(3)), row("c", Some(5))],
            ),
            (
                "filter",
                r().filter(t().lt(Expr::lit(3i64))),
                vec![row("b", Some(2)), row("b", Some(1))],
            ),
            (
                "project",
                r().limit(1).project(vec![(t(), "u".into())]),
                vec![vec![Value::Int(2)]],
            ),
            (
                "sort: NULLS FIRST ascending, ties in input order",
                r().sort(vec![SortKey::asc(Expr::col("epc"))]),
                vec![
                    row("a", Some(3)),
                    row("a", None),
                    row("b", Some(2)),
                    row("b", Some(1)),
                    row("c", Some(5)),
                ],
            ),
            (
                "sort descending puts NULLs last",
                r().sort(vec![SortKey::desc(t())])
                    .limit(5)
                    .project(vec![(t(), "t".into())]),
                [Some(5), Some(3), Some(2), Some(1), None]
                    .map(|v| vec![v.map_or(Value::Null, Value::Int)])
                    .to_vec(),
            ),
            (
                "inner join: left order",
                r().join(
                    LogicalPlan::scan("d"),
                    vec![Expr::col("epc")],
                    vec![Expr::col("k")],
                    JoinType::Inner,
                )
                .project(vec![(t(), "t".into()), (Expr::col("k"), "k".into())]),
                vec![
                    vec![Value::Int(3), Value::str("a")],
                    vec![Value::Null, Value::str("a")],
                    vec![Value::Int(5), Value::str("c")],
                ],
            ),
            (
                "semi join keeps the left schema",
                r().join(
                    LogicalPlan::scan("d"),
                    vec![Expr::col("epc")],
                    vec![Expr::col("k")],
                    JoinType::LeftSemi,
                ),
                vec![row("a", Some(3)), row("a", None), row("c", Some(5))],
            ),
            (
                "aggregate: first-seen group order",
                r().aggregate(
                    vec![(Expr::col("epc"), "epc".into())],
                    vec![AggExpr {
                        func: AggFunc::Count(t()),
                        alias: "n".into(),
                    }],
                ),
                vec![row("b", Some(2)), row("a", Some(1)), row("c", Some(1))],
            ),
            (
                "distinct",
                r().project(vec![(Expr::col("epc"), "epc".into())])
                    .distinct(),
                vec![
                    vec![Value::str("b")],
                    vec![Value::str("a")],
                    vec![Value::str("c")],
                ],
            ),
            (
                "union all, then limit",
                LogicalPlan::Union {
                    inputs: vec![r().alias("x"), r()],
                }
                .limit(6)
                .filter(Expr::col("epc").eq(Expr::lit("b"))),
                vec![row("b", Some(2)), row("b", Some(1)), row("b", Some(2))],
            ),
            (
                "subquery alias requalifies",
                r().alias("v").filter(Expr::col("v.t").eq(Expr::lit(5i64))),
                vec![row("c", Some(5))],
            ),
            (
                "window sorts its own input and appends one column",
                r().window(
                    vec![Expr::col("epc")],
                    vec![SortKey::asc(t())],
                    vec![WindowExpr {
                        func: WindowFuncKind::Max,
                        arg: Some(t()),
                        frame: Frame::rows(FrameBound::Preceding(1), FrameBound::Preceding(1)),
                        alias: "prev".into(),
                    }],
                ),
                vec![
                    vec![Value::str("a"), Value::Null, Value::Null],
                    vec![Value::str("a"), Value::Int(3), Value::Null],
                    vec![Value::str("b"), Value::Int(1), Value::Null],
                    vec![Value::str("b"), Value::Int(2), Value::Int(1)],
                    vec![Value::str("c"), Value::Int(5), Value::Null],
                ],
            ),
        ];
        for (what, plan, expect) in test_cases {
            assert_eq!(run(plan), expect, "{what}");
        }
    }

    #[test]
    fn errors_surface() {
        let cat = catalog();
        assert!(execute(&LogicalPlan::scan("missing"), &cat).is_err());
        assert!(execute(&LogicalPlan::Union { inputs: vec![] }, &cat).is_err());
        let bad = LogicalPlan::scan("r").filter(Expr::col("nope").eq(Expr::lit(1i64)));
        assert!(execute(&bad, &cat).is_err());
    }
}
