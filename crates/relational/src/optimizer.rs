//! Plan optimization.
//!
//! Two rewrites matter for reproducing the paper's plan shapes:
//!
//! 1. **Predicate pushdown** — filters are merged into scans (enabling index
//!    range access) and pushed through joins to the side they reference.
//! 2. **Order sharing** (redundant-sort elimination) — a `Sort` whose keys
//!    are already provided by its input is removed, and a `Window` whose
//!    input is already sorted by its (partition, order) requirement is marked
//!    `presorted`. This is what makes q1_e pay for *one* sort while the
//!    cleansing rule and the dwell analysis both need (epc, rtime) order
//!    (paper §6.2), and q2_e pay for an extra sort because grouping and
//!    cleansing need different orders.

use crate::expr::{conjoin, split_conjuncts, Expr};
use crate::plan::{window_sort_keys, LogicalPlan};
use crate::schema::Schema;
use crate::table::Catalog;

/// Optimizer feature toggles (for ablation experiments).
#[derive(Debug, Clone, Copy)]
pub struct OptimizerConfig {
    pub enable_pushdown: bool,
    pub enable_order_sharing: bool,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            enable_pushdown: true,
            enable_order_sharing: true,
        }
    }
}

/// Optimize a plan (idempotent).
pub fn optimize(plan: LogicalPlan, catalog: &Catalog, config: &OptimizerConfig) -> LogicalPlan {
    let plan = if config.enable_pushdown {
        pushdown(plan, catalog)
    } else {
        plan
    };
    if config.enable_order_sharing {
        share_orders(plan, catalog)
    } else {
        plan
    }
}

/// Optimize with default configuration.
pub fn optimize_default(plan: LogicalPlan, catalog: &Catalog) -> LogicalPlan {
    optimize(plan, catalog, &OptimizerConfig::default())
}

/// Does `expr` only reference columns resolvable in `schema`?
fn refs_within(expr: &Expr, schema: &Schema) -> bool {
    let mut cols = Vec::new();
    expr.referenced_columns(&mut cols);
    cols.iter()
        .all(|c| schema.index_of(c.qualifier.as_deref(), &c.name).is_ok())
}

/// Push filter predicates down toward scans.
fn pushdown(plan: LogicalPlan, catalog: &Catalog) -> LogicalPlan {
    // Recurse first so children are already in pushed form.
    let plan = plan.map_inputs(|p| pushdown(p, catalog));
    match plan {
        LogicalPlan::Filter { input, predicate } => push_filter(*input, predicate, catalog),
        other => other,
    }
}

/// Push `predicate` into `input` as far as semantics allow.
fn push_filter(input: LogicalPlan, predicate: Expr, catalog: &Catalog) -> LogicalPlan {
    match input {
        // Merge into the scan's pushed filter (index access handles it).
        LogicalPlan::Scan {
            table,
            alias,
            filter,
        } => {
            let combined = match filter {
                Some(f) => f.and(predicate),
                None => predicate,
            };
            LogicalPlan::Scan {
                table,
                alias,
                filter: Some(combined),
            }
        }
        // Collapse stacked filters.
        LogicalPlan::Filter {
            input,
            predicate: inner,
        } => push_filter(*input, inner.and(predicate), catalog),
        // Filters commute with sorts.
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(push_filter(*input, predicate, catalog)),
            keys,
        },
        // Push each conjunct to the join side whose schema covers it.
        LogicalPlan::Join {
            left,
            right,
            left_keys,
            right_keys,
            join_type,
        } => {
            let lschema = left.schema(catalog);
            let rschema = right.schema(catalog);
            let (Ok(ls), Ok(rs)) = (lschema, rschema) else {
                // Cannot resolve schemas; keep the filter above the join.
                return LogicalPlan::Join {
                    left,
                    right,
                    left_keys,
                    right_keys,
                    join_type,
                }
                .filter(predicate);
            };
            let mut to_left = Vec::new();
            let mut to_right = Vec::new();
            let mut keep = Vec::new();
            for c in split_conjuncts(&predicate) {
                if refs_within(&c, &ls) {
                    to_left.push(c);
                } else if join_type == crate::join::JoinType::Inner && refs_within(&c, &rs) {
                    to_right.push(c);
                } else {
                    keep.push(c);
                }
            }
            let new_left = match conjoin(to_left) {
                Some(p) => push_filter(*left, p, catalog),
                None => *left,
            };
            let new_right = match conjoin(to_right) {
                Some(p) => push_filter(*right, p, catalog),
                None => *right,
            };
            let joined = LogicalPlan::Join {
                left: Box::new(new_left),
                right: Box::new(new_right),
                left_keys,
                right_keys,
                join_type,
            };
            match conjoin(keep) {
                Some(p) => joined.filter(p),
                None => joined,
            }
        }
        // Strip the alias from predicate columns and push inside.
        LogicalPlan::SubqueryAlias { input, alias } => {
            let a = alias.clone();
            let stripped = predicate.transform(&|e| match e {
                Expr::Column(c) if c.qualifier.as_deref() == Some(a.as_str()) => {
                    Expr::Column(crate::expr::ColumnRef {
                        qualifier: None,
                        name: c.name,
                    })
                }
                other => other,
            });
            LogicalPlan::SubqueryAlias {
                input: Box::new(push_filter(*input, stripped, catalog)),
                alias,
            }
        }
        // Push a copy of the predicate into every UNION branch (schemas are
        // positionally compatible; resolve by name in each branch).
        LogicalPlan::Union { inputs } => {
            let pushable = inputs.iter().all(|i| {
                i.schema(catalog)
                    .map(|s| refs_within(&predicate, &s))
                    .unwrap_or(false)
            });
            if pushable {
                LogicalPlan::Union {
                    inputs: inputs
                        .into_iter()
                        .map(|i| push_filter(i, predicate.clone(), catalog))
                        .collect(),
                }
            } else {
                LogicalPlan::Union { inputs }.filter(predicate)
            }
        }
        // Push through a projection when every referenced column is a simple
        // pass-through (possibly renamed) of an input column.
        LogicalPlan::Project { input, exprs } => {
            let mut cols = Vec::new();
            predicate.referenced_columns(&mut cols);
            let mapping: Option<Vec<(String, Expr)>> = cols
                .iter()
                .map(|c| {
                    exprs
                        .iter()
                        .find(|(_, alias)| alias.eq_ignore_ascii_case(&c.flat_name()))
                        .and_then(|(e, _)| match e {
                            Expr::Column(_) => Some((c.flat_name(), e.clone())),
                            _ => None,
                        })
                })
                .collect();
            match mapping {
                Some(map) => {
                    let rewritten = predicate.transform(&|e| match &e {
                        Expr::Column(c) => map
                            .iter()
                            .find(|(flat, _)| flat.eq_ignore_ascii_case(&c.flat_name()))
                            .map(|(_, src)| src.clone())
                            .unwrap_or(e),
                        _ => e,
                    });
                    LogicalPlan::Project {
                        input: Box::new(push_filter(*input, rewritten, catalog)),
                        exprs,
                    }
                }
                None => LogicalPlan::Project { input, exprs }.filter(predicate),
            }
        }
        // Window, Aggregate, Distinct, Limit: pushing a
        // filter below can change semantics (window frames, group contents,
        // row counts), so the filter stays above.
        other => other.filter(predicate),
    }
}

/// Compare orderings by *resolved column position* against the given schema,
/// so that qualifier differences introduced by aliasing (`epc` vs `v1.epc`)
/// do not defeat order sharing. Falls back to syntactic comparison for
/// non-column sort keys.
fn ordering_satisfies_resolved(
    provided: &[crate::sort::SortKey],
    required: &[crate::sort::SortKey],
    schema: Option<&Schema>,
) -> bool {
    if required.len() > provided.len() {
        return false;
    }
    provided.iter().zip(required).all(|(p, r)| {
        if p.ascending != r.ascending {
            return false;
        }
        if p.expr == r.expr {
            return true;
        }
        let Some(schema) = schema else { return false };
        match (&p.expr, &r.expr) {
            (Expr::Column(a), Expr::Column(b)) => {
                let ia = schema.index_of(a.qualifier.as_deref(), &a.name);
                let ib = schema.index_of(b.qualifier.as_deref(), &b.name);
                matches!((ia, ib), (Ok(x), Ok(y)) if x == y)
            }
            _ => false,
        }
    })
}

/// Remove redundant sorts; mark windows whose required order is available.
fn share_orders(plan: LogicalPlan, catalog: &Catalog) -> LogicalPlan {
    let plan = plan.map_inputs(|p| share_orders(p, catalog));
    match plan {
        LogicalPlan::Sort { input, keys } => {
            let schema = input.schema(catalog).ok();
            if ordering_satisfies_resolved(&input.output_ordering(), &keys, schema.as_deref()) {
                *input
            } else {
                LogicalPlan::Sort { input, keys }
            }
        }
        LogicalPlan::Window {
            input,
            partition_by,
            order_by,
            exprs,
            presorted,
        } => {
            let required = window_sort_keys(&partition_by, &order_by);
            let schema = input.schema(catalog).ok();
            let presorted = presorted
                || ordering_satisfies_resolved(
                    &input.output_ordering(),
                    &required,
                    schema.as_deref(),
                );
            LogicalPlan::Window {
                input,
                partition_by,
                order_by,
                exprs,
                presorted,
            }
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{schema_ref, Batch};
    use crate::join::JoinType;
    use crate::schema::Field;
    use crate::sort::SortKey;
    use crate::table::Table;
    use crate::value::{DataType, Value};
    use crate::window::{Frame, FrameBound, WindowExpr, WindowFuncKind};

    fn catalog() -> Catalog {
        let cat = Catalog::new();
        let schema = schema_ref(Schema::new(vec![
            Field::new("epc", DataType::Str),
            Field::new("rtime", DataType::Int),
            Field::new("biz_loc", DataType::Str),
        ]));
        let b = Batch::from_rows(
            schema,
            &[vec![Value::str("e1"), Value::Int(1), Value::str("x")]],
        )
        .unwrap();
        cat.register(Table::new("r", b));
        let dim = schema_ref(Schema::new(vec![
            Field::new("gln", DataType::Str),
            Field::new("site", DataType::Str),
        ]));
        let b = Batch::from_rows(dim, &[vec![Value::str("x"), Value::str("dc")]]).unwrap();
        cat.register(Table::new("locs", b));
        cat
    }

    #[test]
    fn filter_merges_into_scan() {
        let cat = catalog();
        let plan = LogicalPlan::scan("r").filter(Expr::col("rtime").lt(Expr::lit(5i64)));
        let opt = optimize_default(plan, &cat);
        match opt {
            LogicalPlan::Scan {
                filter: Some(_), ..
            } => {}
            other => panic!("expected pushed scan, got:\n{other}"),
        }
    }

    #[test]
    fn stacked_filters_collapse() {
        let cat = catalog();
        let plan = LogicalPlan::scan("r")
            .filter(Expr::col("rtime").lt(Expr::lit(5i64)))
            .filter(Expr::col("biz_loc").eq(Expr::lit("x")));
        let opt = optimize_default(plan, &cat);
        match &opt {
            LogicalPlan::Scan {
                filter: Some(f), ..
            } => {
                assert_eq!(split_conjuncts(f).len(), 2);
            }
            other => panic!("expected pushed scan, got:\n{other}"),
        }
    }

    #[test]
    fn join_pushdown_splits_sides() {
        let cat = catalog();
        let plan = LogicalPlan::scan_as("r", "c")
            .join(
                LogicalPlan::scan_as("locs", "l"),
                vec![Expr::col("c.biz_loc")],
                vec![Expr::col("l.gln")],
                JoinType::Inner,
            )
            .filter(
                Expr::col("c.rtime")
                    .lt(Expr::lit(5i64))
                    .and(Expr::col("l.site").eq(Expr::lit("dc"))),
            );
        let opt = optimize_default(plan, &cat);
        let LogicalPlan::Join { left, right, .. } = &opt else {
            panic!("expected join at root, got:\n{opt}");
        };
        assert!(matches!(
            left.as_ref(),
            LogicalPlan::Scan {
                filter: Some(_),
                ..
            }
        ));
        assert!(matches!(
            right.as_ref(),
            LogicalPlan::Scan {
                filter: Some(_),
                ..
            }
        ));
    }

    #[test]
    fn semi_join_does_not_push_to_right() {
        let cat = catalog();
        let plan = LogicalPlan::scan_as("r", "c")
            .join(
                LogicalPlan::scan_as("locs", "l"),
                vec![Expr::col("c.biz_loc")],
                vec![Expr::col("l.gln")],
                JoinType::LeftSemi,
            )
            .filter(Expr::col("c.rtime").lt(Expr::lit(5i64)));
        let opt = optimize_default(plan, &cat);
        let LogicalPlan::Join { left, .. } = &opt else {
            panic!("expected join at root, got:\n{opt}");
        };
        assert!(matches!(
            left.as_ref(),
            LogicalPlan::Scan {
                filter: Some(_),
                ..
            }
        ));
    }

    #[test]
    fn redundant_sort_removed() {
        let cat = catalog();
        let keys = vec![
            SortKey::asc(Expr::col("epc")),
            SortKey::asc(Expr::col("rtime")),
        ];
        let plan = LogicalPlan::scan("r")
            .sort(keys.clone())
            .sort(vec![SortKey::asc(Expr::col("epc"))]);
        let opt = optimize_default(plan, &cat);
        // The outer 1-key sort is satisfied by the inner 2-key sort.
        match &opt {
            LogicalPlan::Sort { keys: k, input } => {
                assert_eq!(k, &keys);
                assert!(matches!(input.as_ref(), LogicalPlan::Scan { .. }));
            }
            other => panic!("expected single sort, got:\n{other}"),
        }
    }

    #[test]
    fn window_becomes_presorted_after_matching_window() {
        let cat = catalog();
        let we = |alias: &str| WindowExpr {
            func: WindowFuncKind::Count,
            arg: None,
            frame: Frame::rows(FrameBound::UnboundedPreceding, FrameBound::CurrentRow),
            alias: alias.into(),
        };
        // Two windows with the same (partition, order): second shares the sort.
        let plan = LogicalPlan::scan("r")
            .window(
                vec![Expr::col("epc")],
                vec![SortKey::asc(Expr::col("rtime"))],
                vec![we("a")],
            )
            .window(
                vec![Expr::col("epc")],
                vec![SortKey::asc(Expr::col("rtime"))],
                vec![we("b")],
            );
        let opt = optimize_default(plan, &cat);
        let LogicalPlan::Window {
            presorted, input, ..
        } = &opt
        else {
            panic!("expected window at root");
        };
        assert!(*presorted);
        let LogicalPlan::Window {
            presorted: inner_ps,
            ..
        } = input.as_ref()
        else {
            panic!("expected inner window");
        };
        assert!(!inner_ps);
    }

    #[test]
    fn order_sharing_can_be_disabled() {
        let cat = catalog();
        let plan = LogicalPlan::scan("r")
            .sort(vec![SortKey::asc(Expr::col("epc"))])
            .sort(vec![SortKey::asc(Expr::col("epc"))]);
        let cfg = OptimizerConfig {
            enable_pushdown: true,
            enable_order_sharing: false,
        };
        let opt = optimize(plan, &cat, &cfg);
        // Both sorts remain.
        let LogicalPlan::Sort { input, .. } = &opt else {
            panic!()
        };
        assert!(matches!(input.as_ref(), LogicalPlan::Sort { .. }));
    }

    #[test]
    fn filter_not_pushed_below_window() {
        let cat = catalog();
        let plan = LogicalPlan::scan("r")
            .window(
                vec![Expr::col("epc")],
                vec![SortKey::asc(Expr::col("rtime"))],
                vec![WindowExpr {
                    func: WindowFuncKind::Count,
                    arg: None,
                    frame: Frame::rows(FrameBound::UnboundedPreceding, FrameBound::CurrentRow),
                    alias: "n".into(),
                }],
            )
            .filter(Expr::col("rtime").lt(Expr::lit(5i64)));
        let opt = optimize_default(plan, &cat);
        assert!(matches!(opt, LogicalPlan::Filter { .. }));
    }
}
