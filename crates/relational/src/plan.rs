//! Logical query plans.
//!
//! Plans are trees of relational operators. A plan knows its output schema
//! and its *output ordering* (the sort keys its result is guaranteed to
//! satisfy), which the optimizer uses to eliminate redundant sorts — the
//! "order sharing" behaviour the paper's §6.2 highlights: a cleansing rule
//! and a downstream SQL/OLAP query that require the same (epc, rtime) order
//! pay for one sort only.

use crate::agg::AggExpr;
use crate::error::Result;
use crate::expr::Expr;
use crate::join::JoinType;
use crate::schema::{Field, Schema, SchemaRef};
use crate::sort::SortKey;
use crate::table::Catalog;
use crate::window::WindowExpr;
use std::fmt::Write as _;
use std::sync::Arc;

/// A logical plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Scan a catalog table, optionally under an alias, with an optional
    /// pushed-down filter (the executor turns it into an index range scan
    /// when possible).
    Scan {
        table: String,
        alias: Option<String>,
        filter: Option<Expr>,
    },
    Filter {
        input: Box<LogicalPlan>,
        predicate: Expr,
    },
    /// Projection: each output column is `(expr, alias)`.
    Project {
        input: Box<LogicalPlan>,
        exprs: Vec<(Expr, String)>,
    },
    Sort {
        input: Box<LogicalPlan>,
        keys: Vec<SortKey>,
    },
    /// SQL/OLAP window computation. Appends one column per window expression.
    /// `presorted` is set by the optimizer when the input already delivers
    /// the (partition, order) ordering, eliminating this node's sort.
    Window {
        input: Box<LogicalPlan>,
        partition_by: Vec<Expr>,
        order_by: Vec<SortKey>,
        exprs: Vec<WindowExpr>,
        presorted: bool,
    },
    Join {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        left_keys: Vec<Expr>,
        right_keys: Vec<Expr>,
        join_type: JoinType,
    },
    Aggregate {
        input: Box<LogicalPlan>,
        group_by: Vec<(Expr, String)>,
        aggs: Vec<AggExpr>,
    },
    Distinct {
        input: Box<LogicalPlan>,
    },
    Union {
        inputs: Vec<LogicalPlan>,
    },
    Limit {
        input: Box<LogicalPlan>,
        fetch: usize,
    },
    /// Re-qualify a derived table's output columns under an alias
    /// (`FROM (subquery) AS v1` / CTE references).
    SubqueryAlias {
        input: Box<LogicalPlan>,
        alias: String,
    },
}

impl LogicalPlan {
    pub fn scan(table: impl Into<String>) -> LogicalPlan {
        LogicalPlan::Scan {
            table: table.into(),
            alias: None,
            filter: None,
        }
    }

    pub fn scan_as(table: impl Into<String>, alias: impl Into<String>) -> LogicalPlan {
        LogicalPlan::Scan {
            table: table.into(),
            alias: Some(alias.into()),
            filter: None,
        }
    }

    pub fn filter(self, predicate: Expr) -> LogicalPlan {
        LogicalPlan::Filter {
            input: Box::new(self),
            predicate,
        }
    }

    pub fn project(self, exprs: Vec<(Expr, String)>) -> LogicalPlan {
        LogicalPlan::Project {
            input: Box::new(self),
            exprs,
        }
    }

    pub fn sort(self, keys: Vec<SortKey>) -> LogicalPlan {
        LogicalPlan::Sort {
            input: Box::new(self),
            keys,
        }
    }

    pub fn window(
        self,
        partition_by: Vec<Expr>,
        order_by: Vec<SortKey>,
        exprs: Vec<WindowExpr>,
    ) -> LogicalPlan {
        LogicalPlan::Window {
            input: Box::new(self),
            partition_by,
            order_by,
            exprs,
            presorted: false,
        }
    }

    pub fn join(
        self,
        right: LogicalPlan,
        left_keys: Vec<Expr>,
        right_keys: Vec<Expr>,
        join_type: JoinType,
    ) -> LogicalPlan {
        LogicalPlan::Join {
            left: Box::new(self),
            right: Box::new(right),
            left_keys,
            right_keys,
            join_type,
        }
    }

    pub fn aggregate(self, group_by: Vec<(Expr, String)>, aggs: Vec<AggExpr>) -> LogicalPlan {
        LogicalPlan::Aggregate {
            input: Box::new(self),
            group_by,
            aggs,
        }
    }

    pub fn distinct(self) -> LogicalPlan {
        LogicalPlan::Distinct {
            input: Box::new(self),
        }
    }

    pub fn limit(self, fetch: usize) -> LogicalPlan {
        LogicalPlan::Limit {
            input: Box::new(self),
            fetch,
        }
    }

    pub fn alias(self, alias: impl Into<String>) -> LogicalPlan {
        LogicalPlan::SubqueryAlias {
            input: Box::new(self),
            alias: alias.into().to_ascii_lowercase(),
        }
    }

    /// Compute the output schema against a catalog.
    pub fn schema(&self, catalog: &Catalog) -> Result<SchemaRef> {
        match self {
            LogicalPlan::Scan { table, alias, .. } => {
                let t = catalog.get(table)?;
                let schema = match alias {
                    Some(a) => t.schema().with_qualifier(a),
                    None => t.schema().as_ref().clone(),
                };
                Ok(Arc::new(schema))
            }
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::Limit { input, .. } => input.schema(catalog),
            LogicalPlan::Project { input, exprs } => {
                let in_schema = input.schema(catalog)?;
                let fields = exprs
                    .iter()
                    .map(|(e, alias)| Ok(Field::from_flat_name(alias, e.data_type(&in_schema)?)))
                    .collect::<Result<Vec<_>>>()?;
                Ok(Arc::new(Schema::new(fields)))
            }
            LogicalPlan::Window { input, exprs, .. } => {
                let in_schema = input.schema(catalog)?;
                let mut fields = in_schema.fields().to_vec();
                for we in exprs {
                    fields.push(Field::new(we.alias.clone(), we.data_type(&in_schema)?));
                }
                Ok(Arc::new(Schema::new(fields)))
            }
            LogicalPlan::Join {
                left,
                right,
                join_type,
                ..
            } => {
                let l = left.schema(catalog)?;
                match join_type {
                    JoinType::Inner => {
                        let r = right.schema(catalog)?;
                        Ok(Arc::new(l.join(&r)))
                    }
                    JoinType::LeftSemi => Ok(l),
                }
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let in_schema = input.schema(catalog)?;
                let mut fields = Vec::with_capacity(group_by.len() + aggs.len());
                for (e, alias) in group_by {
                    fields.push(Field::new(alias.clone(), e.data_type(&in_schema)?));
                }
                for a in aggs {
                    fields.push(Field::new(a.alias.clone(), a.func.output_type(&in_schema)?));
                }
                Ok(Arc::new(Schema::new(fields)))
            }
            LogicalPlan::Union { inputs } => inputs
                .first()
                .ok_or_else(|| crate::error::Error::Plan("UNION of zero inputs".into()))?
                .schema(catalog),
            LogicalPlan::SubqueryAlias { input, alias } => {
                Ok(Arc::new(input.schema(catalog)?.with_qualifier(alias)))
            }
        }
    }

    /// The ordering this plan's output is guaranteed to satisfy.
    ///
    /// Conservative: only orderings produced by explicit sorts (or window
    /// nodes, which sort) and preserved by order-preserving operators
    /// (filter, limit, window-on-sorted, our hash joins which keep left
    /// order, and pass-through projections).
    pub fn output_ordering(&self) -> Vec<SortKey> {
        match self {
            LogicalPlan::Scan { .. }
            | LogicalPlan::Union { .. }
            | LogicalPlan::Aggregate { .. } => {
                vec![]
            }
            LogicalPlan::Sort { keys, .. } => keys.clone(),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Distinct { input } => input.output_ordering(),
            LogicalPlan::SubqueryAlias { input, alias } => {
                // Re-qualify unqualified ordering key columns under the alias.
                let mut kept = Vec::new();
                for k in input.output_ordering() {
                    match &k.expr {
                        Expr::Column(c) if c.qualifier.is_none() => kept.push(SortKey {
                            expr: Expr::Column(crate::expr::ColumnRef::qualified(
                                alias.clone(),
                                c.name.clone(),
                            )),
                            ascending: k.ascending,
                            nulls_first: k.nulls_first,
                        }),
                        _ => break,
                    }
                }
                kept
            }
            LogicalPlan::Window {
                input,
                partition_by,
                order_by,
                presorted,
                ..
            } => {
                if *presorted {
                    input.output_ordering()
                } else {
                    // This node sorts by (partition, order).
                    window_sort_keys(partition_by, order_by)
                }
            }
            // Our hash join streams left rows in order.
            LogicalPlan::Join { left, .. } => left.output_ordering(),
            LogicalPlan::Project { input, exprs } => {
                // Ordering survives if every ordering key is passed through
                // unchanged under the same name.
                let inner = input.output_ordering();
                let mut kept = Vec::new();
                for k in inner {
                    let passes = exprs.iter().any(|(e, alias)| {
                        e == &k.expr
                            && matches!(&k.expr, Expr::Column(c) if c.flat_name().eq_ignore_ascii_case(alias))
                    });
                    if passes {
                        kept.push(k);
                    } else {
                        break;
                    }
                }
                kept
            }
        }
    }

    /// Children of this node.
    pub fn inputs(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } => vec![],
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Window { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::SubqueryAlias { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. } => vec![left, right],
            LogicalPlan::Union { inputs } => inputs.iter().collect(),
        }
    }

    /// Call `f` on every expression of this plan, inputs first.
    pub fn for_each_expr_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        use crate::agg::AggFunc;
        let (exprs, inputs): (Vec<&mut Expr>, Vec<&mut LogicalPlan>) = match self {
            LogicalPlan::Scan { filter, .. } => (filter.iter_mut().collect(), vec![]),
            LogicalPlan::Filter { input, predicate } => (vec![predicate], vec![input]),
            LogicalPlan::Project { input, exprs } => {
                (exprs.iter_mut().map(|(e, _)| e).collect(), vec![input])
            }
            LogicalPlan::Sort { input, keys } => {
                (keys.iter_mut().map(|k| &mut k.expr).collect(), vec![input])
            }
            LogicalPlan::Window {
                input,
                partition_by,
                order_by,
                exprs,
                ..
            } => {
                let mut all: Vec<&mut Expr> = partition_by.iter_mut().collect();
                all.extend(order_by.iter_mut().map(|k| &mut k.expr));
                all.extend(exprs.iter_mut().filter_map(|w| w.arg.as_mut()));
                (all, vec![input])
            }
            LogicalPlan::Join {
                left,
                right,
                left_keys,
                right_keys,
                ..
            } => (
                left_keys.iter_mut().chain(right_keys.iter_mut()).collect(),
                vec![left, right],
            ),
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let mut all: Vec<&mut Expr> = group_by.iter_mut().map(|(e, _)| e).collect();
                all.extend(aggs.iter_mut().filter_map(|a| match &mut a.func {
                    AggFunc::CountStar => None,
                    AggFunc::Count(e)
                    | AggFunc::CountDistinct(e)
                    | AggFunc::Sum(e)
                    | AggFunc::Avg(e)
                    | AggFunc::Min(e)
                    | AggFunc::Max(e) => Some(e),
                }));
                (all, vec![input])
            }
            LogicalPlan::Distinct { input }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::SubqueryAlias { input, .. } => (vec![], vec![input]),
            LogicalPlan::Union { inputs } => (vec![], inputs.iter_mut().collect()),
        };
        for input in inputs {
            input.for_each_expr_mut(f);
        }
        for e in exprs {
            f(e);
        }
    }

    /// Rebuild this node with each direct input replaced by `f(input)`.
    pub fn map_inputs(self, mut f: impl FnMut(LogicalPlan) -> LogicalPlan) -> LogicalPlan {
        match self {
            LogicalPlan::Scan { .. } => self,
            LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
                input: Box::new(f(*input)),
                predicate,
            },
            LogicalPlan::Project { input, exprs } => LogicalPlan::Project {
                input: Box::new(f(*input)),
                exprs,
            },
            LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
                input: Box::new(f(*input)),
                keys,
            },
            LogicalPlan::Window {
                input,
                partition_by,
                order_by,
                exprs,
                presorted,
            } => LogicalPlan::Window {
                input: Box::new(f(*input)),
                partition_by,
                order_by,
                exprs,
                presorted,
            },
            LogicalPlan::Join {
                left,
                right,
                left_keys,
                right_keys,
                join_type,
            } => LogicalPlan::Join {
                left: Box::new(f(*left)),
                right: Box::new(f(*right)),
                left_keys,
                right_keys,
                join_type,
            },
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => LogicalPlan::Aggregate {
                input: Box::new(f(*input)),
                group_by,
                aggs,
            },
            LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
                input: Box::new(f(*input)),
            },
            LogicalPlan::Union { inputs } => LogicalPlan::Union {
                inputs: inputs.into_iter().map(f).collect(),
            },
            LogicalPlan::Limit { input, fetch } => LogicalPlan::Limit {
                input: Box::new(f(*input)),
                fetch,
            },
            LogicalPlan::SubqueryAlias { input, alias } => LogicalPlan::SubqueryAlias {
                input: Box::new(f(*input)),
                alias,
            },
        }
    }

    /// One-line description of this node (no children).
    pub fn node_label(&self) -> String {
        match self {
            LogicalPlan::Scan {
                table,
                alias,
                filter,
            } => {
                let mut s = format!("Scan {table}");
                if let Some(a) = alias {
                    let _ = write!(s, " AS {a}");
                }
                if let Some(f) = filter {
                    let _ = write!(s, " [pushed: {f}]");
                }
                s
            }
            LogicalPlan::Filter { predicate, .. } => format!("Filter {predicate}"),
            LogicalPlan::Project { exprs, .. } => {
                let cols: Vec<String> = exprs.iter().map(|(e, a)| format!("{e} AS {a}")).collect();
                format!("Project [{}]", cols.join(", "))
            }
            LogicalPlan::Sort { keys, .. } => {
                let ks: Vec<String> = keys.iter().map(SortKey::to_string).collect();
                format!("Sort [{}]", ks.join(", "))
            }
            LogicalPlan::Window {
                partition_by,
                order_by,
                exprs,
                presorted,
                ..
            } => {
                let parts: Vec<String> = partition_by.iter().map(Expr::to_string).collect();
                let ords: Vec<String> = order_by.iter().map(SortKey::to_string).collect();
                let ws: Vec<String> = exprs.iter().map(WindowExpr::to_string).collect();
                format!(
                    "Window partition=[{}] order=[{}]{} [{}]",
                    parts.join(", "),
                    ords.join(", "),
                    if *presorted {
                        " (order shared)"
                    } else {
                        " (sorts input)"
                    },
                    ws.join("; ")
                )
            }
            LogicalPlan::Join {
                left_keys,
                right_keys,
                join_type,
                ..
            } => {
                let pairs: Vec<String> = left_keys
                    .iter()
                    .zip(right_keys)
                    .map(|(l, r)| format!("{l} = {r}"))
                    .collect();
                format!("{join_type} Join on [{}]", pairs.join(" AND "))
            }
            LogicalPlan::Aggregate { group_by, aggs, .. } => {
                let gs: Vec<String> = group_by
                    .iter()
                    .map(|(e, a)| format!("{e} AS {a}"))
                    .collect();
                let as_: Vec<String> = aggs
                    .iter()
                    .map(|a| format!("{} AS {}", a.func, a.alias))
                    .collect();
                format!(
                    "Aggregate group=[{}] aggs=[{}]",
                    gs.join(", "),
                    as_.join(", ")
                )
            }
            LogicalPlan::Distinct { .. } => "Distinct".to_string(),
            LogicalPlan::Union { inputs } => format!("Union ({} inputs)", inputs.len()),
            LogicalPlan::Limit { fetch, .. } => format!("Limit {fetch}"),
            LogicalPlan::SubqueryAlias { alias, .. } => format!("SubqueryAlias {alias}"),
        }
    }

    /// Multi-line EXPLAIN rendering.
    pub fn display_indent(&self) -> String {
        fn walk(plan: &LogicalPlan, depth: usize, out: &mut String) {
            let _ = writeln!(out, "{}{}", "  ".repeat(depth), plan.node_label());
            for c in plan.inputs() {
                walk(c, depth + 1, out);
            }
        }
        let mut out = String::new();
        walk(self, 0, &mut out);
        out
    }
}

/// The sort keys implied by a window's (partition, order) requirement:
/// partition keys ascending, then the order keys.
pub fn window_sort_keys(partition_by: &[Expr], order_by: &[SortKey]) -> Vec<SortKey> {
    let mut keys: Vec<SortKey> = partition_by.iter().cloned().map(SortKey::asc).collect();
    keys.extend(order_by.iter().cloned());
    keys
}

/// Does an available ordering `provided` satisfy `required` (prefix match)?
pub fn ordering_satisfies(provided: &[SortKey], required: &[SortKey]) -> bool {
    required.len() <= provided.len()
        && provided
            .iter()
            .zip(required)
            .all(|(p, r)| p.expr == r.expr && p.ascending == r.ascending)
}

impl std::fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.display_indent())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{schema_ref, Batch};
    use crate::table::Table;
    use crate::value::{DataType, Value};

    fn catalog() -> Catalog {
        let schema = schema_ref(Schema::new(vec![
            Field::new("epc", DataType::Str),
            Field::new("rtime", DataType::Int),
        ]));
        let b = Batch::from_rows(schema, &[vec![Value::str("e1"), Value::Int(1)]]).unwrap();
        let cat = Catalog::new();
        cat.register(Table::new("r", b));
        cat
    }

    #[test]
    fn scan_alias_requalifies_schema() {
        let cat = catalog();
        let s = LogicalPlan::scan_as("r", "c").schema(&cat).unwrap();
        assert_eq!(s.index_of_name("c.epc").unwrap(), 0);
    }

    #[test]
    fn window_schema_appends_columns() {
        let cat = catalog();
        let plan = LogicalPlan::scan("r").window(
            vec![Expr::col("epc")],
            vec![SortKey::asc(Expr::col("rtime"))],
            vec![WindowExpr {
                func: crate::window::WindowFuncKind::Max,
                arg: Some(Expr::col("rtime")),
                frame: crate::window::Frame::rows(
                    crate::window::FrameBound::Preceding(1),
                    crate::window::FrameBound::Preceding(1),
                ),
                alias: "prev_time".into(),
            }],
        );
        let s = plan.schema(&cat).unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.field(2).name, "prev_time");
    }

    #[test]
    fn ordering_propagates_through_filter() {
        let keys = vec![
            SortKey::asc(Expr::col("epc")),
            SortKey::asc(Expr::col("rtime")),
        ];
        let plan = LogicalPlan::scan("r")
            .sort(keys.clone())
            .filter(Expr::col("rtime").gt(Expr::lit(0i64)));
        assert_eq!(plan.output_ordering(), keys);
    }

    #[test]
    fn window_provides_its_sort_order() {
        let plan = LogicalPlan::scan("r").window(
            vec![Expr::col("epc")],
            vec![SortKey::asc(Expr::col("rtime"))],
            vec![],
        );
        let ord = plan.output_ordering();
        assert_eq!(ord.len(), 2);
        assert_eq!(ord[0].expr, Expr::col("epc"));
    }

    #[test]
    fn ordering_satisfies_prefix() {
        let provided = vec![
            SortKey::asc(Expr::col("epc")),
            SortKey::asc(Expr::col("rtime")),
        ];
        let required = vec![SortKey::asc(Expr::col("epc"))];
        assert!(ordering_satisfies(&provided, &required));
        assert!(!ordering_satisfies(&required, &provided));
        let wrong_dir = vec![SortKey::desc(Expr::col("epc"))];
        assert!(!ordering_satisfies(&provided, &wrong_dir));
    }

    #[test]
    fn explain_smoke() {
        let plan = LogicalPlan::scan("r")
            .filter(Expr::col("rtime").lt(Expr::lit(10i64)))
            .sort(vec![SortKey::asc(Expr::col("epc"))]);
        let s = plan.display_indent();
        assert!(s.contains("Sort"));
        assert!(s.contains("  Filter"));
        assert!(s.contains("    Scan r"));
    }
}
