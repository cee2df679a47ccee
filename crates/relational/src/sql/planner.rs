//! SQL-to-plan translation.
//!
//! Clause order follows SQL semantics: FROM (comma joins resolved into an
//! equi-join tree) → WHERE → window functions → GROUP BY/aggregates →
//! SELECT projection → DISTINCT → ORDER BY → LIMIT.

use super::ast::{AstExpr, Query, Select, SelectItem};
use crate::agg::{AggExpr, AggFunc};
use crate::error::{Error, Result};
use crate::expr::{conjoin, split_conjuncts, BinaryOp, ColumnRef, Expr};
use crate::plan::LogicalPlan;
use crate::schema::{Schema, SchemaRef};
use crate::sort::SortKey;
use crate::table::Catalog;
use crate::window::{Frame, FrameBound, WindowExpr, WindowFuncKind};
use std::collections::HashMap;

/// Plan a parsed query against a catalog.
pub fn plan_query(query: &Query, catalog: &Catalog) -> Result<LogicalPlan> {
    reject_as_of(query)?;
    let mut ctes: HashMap<String, LogicalPlan> = HashMap::new();
    for (name, q) in &query.ctes {
        let plan = plan_query_with_ctes(q, catalog, &ctes)?;
        ctes.insert(name.clone(), plan);
    }
    plan_select(&query.body, catalog, &ctes)
}

/// `AS OF EPOCH` never reaches the planner: the durable query service
/// resolves it by materializing a historical snapshot and stripping the
/// clause. Anywhere else (direct engine execution, CTE bodies) it would
/// silently run against current data, so fail loudly instead.
fn reject_as_of(query: &Query) -> Result<()> {
    if let Some(epoch) = query.as_of {
        return Err(Error::Plan(format!(
            "as of epoch {epoch} is only supported on the top-level query \
             of a durable query service"
        )));
    }
    for (_, q) in &query.ctes {
        reject_as_of(q)?;
    }
    Ok(())
}

fn plan_query_with_ctes(
    query: &Query,
    catalog: &Catalog,
    outer_ctes: &HashMap<String, LogicalPlan>,
) -> Result<LogicalPlan> {
    reject_as_of(query)?;
    let mut ctes = outer_ctes.clone();
    for (name, q) in &query.ctes {
        let plan = plan_query_with_ctes(q, catalog, &ctes)?;
        ctes.insert(name.clone(), plan);
    }
    plan_select(&query.body, catalog, &ctes)
}

/// Convert a scalar AST expression (no aggregates, no windows) to an [`Expr`].
pub fn to_scalar_expr(ast: &AstExpr) -> Result<Expr> {
    match ast {
        AstExpr::Column(q, n) => Ok(Expr::Column(ColumnRef {
            qualifier: q.clone(),
            name: n.clone(),
        })),
        AstExpr::Literal(v) => Ok(Expr::Literal(v.clone())),
        AstExpr::Binary { left, op, right } => Ok(Expr::Binary {
            left: Box::new(to_scalar_expr(left)?),
            op: *op,
            right: Box::new(to_scalar_expr(right)?),
        }),
        AstExpr::Not(e) => Ok(Expr::Not(Box::new(to_scalar_expr(e)?))),
        AstExpr::IsNull { expr, negated } => Ok(Expr::IsNull {
            expr: Box::new(to_scalar_expr(expr)?),
            negated: *negated,
        }),
        AstExpr::InList {
            expr,
            list,
            negated,
        } => Ok(Expr::InList {
            expr: Box::new(to_scalar_expr(expr)?),
            list: list.clone(),
            negated: *negated,
        }),
        AstExpr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let e = to_scalar_expr(expr)?;
            let range = e
                .clone()
                .gt_eq(to_scalar_expr(low)?)
                .and(e.lt_eq(to_scalar_expr(high)?));
            Ok(if *negated {
                Expr::Not(Box::new(range))
            } else {
                range
            })
        }
        AstExpr::Case {
            branches,
            else_expr,
        } => Ok(Expr::Case {
            branches: branches
                .iter()
                .map(|(c, r)| Ok((to_scalar_expr(c)?, to_scalar_expr(r)?)))
                .collect::<Result<_>>()?,
            else_expr: else_expr
                .as_ref()
                .map(|e| to_scalar_expr(e).map(Box::new))
                .transpose()?,
        }),
        AstExpr::Function { name, .. } => Err(Error::Plan(format!(
            "function '{name}' is not valid in a scalar context"
        ))),
    }
}

fn agg_func_kind(name: &str) -> Option<&'static str> {
    match name {
        "count" | "sum" | "avg" | "min" | "max" => Some("agg"),
        _ => None,
    }
}

fn window_func_kind(name: &str) -> Result<WindowFuncKind> {
    Ok(match name {
        "max" => WindowFuncKind::Max,
        "min" => WindowFuncKind::Min,
        "sum" => WindowFuncKind::Sum,
        "count" => WindowFuncKind::Count,
        "avg" => WindowFuncKind::Avg,
        other => {
            return Err(Error::Plan(format!(
                "unsupported window function '{other}'"
            )))
        }
    })
}

/// Planned window group: one Window node per distinct (partition, order).
struct WindowGroup {
    partition_by: Vec<Expr>,
    order_by: Vec<SortKey>,
    exprs: Vec<WindowExpr>,
}

/// Walk an AST expression, extracting windowed function calls into groups
/// and replacing them with references to their generated output columns.
fn extract_windows(
    ast: &AstExpr,
    groups: &mut Vec<WindowGroup>,
    counter: &mut usize,
) -> Result<AstExpr> {
    match ast {
        AstExpr::Function {
            name,
            args,
            distinct,
            over: Some(spec),
        } => {
            if *distinct {
                return Err(Error::Plan(
                    "DISTINCT in window functions unsupported".into(),
                ));
            }
            let func = window_func_kind(name)?;
            let arg = match args {
                None => None, // count(*)
                Some(a) if a.len() == 1 => Some(to_scalar_expr(&a[0])?),
                Some(a) if a.is_empty() => None,
                Some(_) => {
                    return Err(Error::Plan(format!(
                        "window function '{name}' takes one argument"
                    )))
                }
            };
            if arg.is_none() && func != WindowFuncKind::Count {
                return Err(Error::Plan(format!("{name}(*) is not a valid window call")));
            }
            let partition_by: Vec<Expr> = spec
                .partition_by
                .iter()
                .map(to_scalar_expr)
                .collect::<Result<_>>()?;
            let order_by: Vec<SortKey> = spec
                .order_by
                .iter()
                .map(|(e, asc)| {
                    to_scalar_expr(e).map(|expr| {
                        if *asc {
                            SortKey::asc(expr)
                        } else {
                            SortKey::desc(expr)
                        }
                    })
                })
                .collect::<Result<_>>()?;
            let frame = match &spec.frame {
                Some(f) => Frame {
                    units: f.units,
                    start: f.start,
                    end: f.end,
                },
                // SQL default frame.
                None => Frame::rows(FrameBound::UnboundedPreceding, FrameBound::CurrentRow),
            };
            let alias = format!("__w{}", *counter);
            *counter += 1;
            let wexpr = WindowExpr {
                func,
                arg,
                frame,
                alias: alias.clone(),
            };
            // Find a group with the same (partition, order) — that group
            // shares one sort (the paper's order-sharing within a query).
            match groups
                .iter_mut()
                .find(|g| g.partition_by == partition_by && g.order_by == order_by)
            {
                Some(g) => g.exprs.push(wexpr),
                None => groups.push(WindowGroup {
                    partition_by,
                    order_by,
                    exprs: vec![wexpr],
                }),
            }
            Ok(AstExpr::Column(None, alias))
        }
        AstExpr::Binary { left, op, right } => Ok(AstExpr::Binary {
            left: Box::new(extract_windows(left, groups, counter)?),
            op: *op,
            right: Box::new(extract_windows(right, groups, counter)?),
        }),
        AstExpr::Not(e) => Ok(AstExpr::Not(Box::new(extract_windows(e, groups, counter)?))),
        AstExpr::IsNull { expr, negated } => Ok(AstExpr::IsNull {
            expr: Box::new(extract_windows(expr, groups, counter)?),
            negated: *negated,
        }),
        AstExpr::Case {
            branches,
            else_expr,
        } => Ok(AstExpr::Case {
            branches: branches
                .iter()
                .map(|(c, r)| {
                    Ok((
                        extract_windows(c, groups, counter)?,
                        extract_windows(r, groups, counter)?,
                    ))
                })
                .collect::<Result<_>>()?,
            else_expr: else_expr
                .as_ref()
                .map(|e| extract_windows(e, groups, counter).map(Box::new))
                .transpose()?,
        }),
        other => Ok(other.clone()),
    }
}

/// Walk an AST expression, extracting aggregate calls (no OVER) into `aggs`
/// and replacing them with references to generated columns.
fn extract_aggregates(
    ast: &AstExpr,
    aggs: &mut Vec<AggExpr>,
    counter: &mut usize,
) -> Result<AstExpr> {
    match ast {
        AstExpr::Function {
            name,
            args,
            distinct,
            over: None,
        } if agg_func_kind(name).is_some() => {
            let alias = format!("__a{}", *counter);
            *counter += 1;
            let func = match (name.as_str(), args, distinct) {
                ("count", None, false) => AggFunc::CountStar,
                ("count", Some(a), false) if a.len() == 1 => AggFunc::Count(to_scalar_expr(&a[0])?),
                ("count", Some(a), true) if a.len() == 1 => {
                    AggFunc::CountDistinct(to_scalar_expr(&a[0])?)
                }
                ("sum", Some(a), false) if a.len() == 1 => AggFunc::Sum(to_scalar_expr(&a[0])?),
                ("avg", Some(a), false) if a.len() == 1 => AggFunc::Avg(to_scalar_expr(&a[0])?),
                ("min", Some(a), false) if a.len() == 1 => AggFunc::Min(to_scalar_expr(&a[0])?),
                ("max", Some(a), false) if a.len() == 1 => AggFunc::Max(to_scalar_expr(&a[0])?),
                _ => return Err(Error::Plan(format!("unsupported aggregate call '{name}'"))),
            };
            aggs.push(AggExpr {
                func,
                alias: alias.clone(),
            });
            Ok(AstExpr::Column(None, alias))
        }
        AstExpr::Binary { left, op, right } => Ok(AstExpr::Binary {
            left: Box::new(extract_aggregates(left, aggs, counter)?),
            op: *op,
            right: Box::new(extract_aggregates(right, aggs, counter)?),
        }),
        AstExpr::Case {
            branches,
            else_expr,
        } => Ok(AstExpr::Case {
            branches: branches
                .iter()
                .map(|(c, r)| {
                    Ok((
                        extract_aggregates(c, aggs, counter)?,
                        extract_aggregates(r, aggs, counter)?,
                    ))
                })
                .collect::<Result<_>>()?,
            else_expr: else_expr
                .as_ref()
                .map(|e| extract_aggregates(e, aggs, counter).map(Box::new))
                .transpose()?,
        }),
        other => Ok(other.clone()),
    }
}

fn contains_function(ast: &AstExpr) -> bool {
    match ast {
        AstExpr::Function { .. } => true,
        AstExpr::Binary { left, right, .. } => contains_function(left) || contains_function(right),
        AstExpr::Not(e) => contains_function(e),
        AstExpr::IsNull { expr, .. } => contains_function(expr),
        AstExpr::InList { expr, .. } => contains_function(expr),
        AstExpr::Between {
            expr, low, high, ..
        } => contains_function(expr) || contains_function(low) || contains_function(high),
        AstExpr::Case {
            branches,
            else_expr,
        } => {
            branches
                .iter()
                .any(|(c, r)| contains_function(c) || contains_function(r))
                || else_expr.as_deref().is_some_and(contains_function)
        }
        _ => false,
    }
}

/// Does `expr` resolve entirely within `schema`?
fn resolves_in(expr: &Expr, schema: &Schema) -> bool {
    let mut cols = Vec::new();
    expr.referenced_columns(&mut cols);
    cols.iter()
        .all(|c| schema.index_of(c.qualifier.as_deref(), &c.name).is_ok())
}

fn plan_select(
    select: &Select,
    catalog: &Catalog,
    ctes: &HashMap<String, LogicalPlan>,
) -> Result<LogicalPlan> {
    if select.from.is_empty() {
        return Err(Error::Plan("FROM clause is required".into()));
    }

    // --- FROM: build factors ---
    let mut factors: Vec<(LogicalPlan, SchemaRef)> = Vec::new();
    for tref in &select.from {
        let alias = tref.effective_alias().to_string();
        let plan = if let Some(cte) = ctes.get(&tref.name) {
            cte.clone().alias(&alias)
        } else if catalog.contains(&tref.name) {
            LogicalPlan::scan_as(&tref.name, &alias)
        } else {
            return Err(Error::Plan(format!("unknown table or CTE '{}'", tref.name)));
        };
        let schema = plan.schema(catalog)?;
        factors.push((plan, schema));
    }

    // --- WHERE: classify conjuncts ---
    let mut single: Vec<Vec<Expr>> = vec![Vec::new(); factors.len()];
    let mut join_conds: Vec<(usize, usize, Expr, Expr)> = Vec::new(); // (fi, fj, key_i, key_j)
    let mut leftover: Vec<Expr> = Vec::new();
    if let Some(w) = &select.where_clause {
        if contains_function(w) {
            return Err(Error::Plan("aggregates are not allowed in WHERE".into()));
        }
        let pred = to_scalar_expr(w)?;
        for conj in split_conjuncts(&pred) {
            // Single-factor?
            let homes: Vec<usize> = factors
                .iter()
                .enumerate()
                .filter(|(_, (_, s))| resolves_in(&conj, s))
                .map(|(i, _)| i)
                .collect();
            if homes.len() == 1 {
                single[homes[0]].push(conj);
                continue;
            }
            if homes.len() > 1 {
                // Ambiguous but self-contained (e.g. literal-only) — keep above.
                leftover.push(conj);
                continue;
            }
            // Equi-join conjunct?
            if let Expr::Binary {
                left,
                op: BinaryOp::Eq,
                right,
            } = &conj
            {
                let find_home = |e: &Expr| -> Option<usize> {
                    factors
                        .iter()
                        .enumerate()
                        .find(|(_, (_, s))| resolves_in(e, s))
                        .map(|(i, _)| i)
                };
                if let (Some(li), Some(ri)) = (find_home(left), find_home(right)) {
                    if li != ri {
                        join_conds.push((li, ri, (**left).clone(), (**right).clone()));
                        continue;
                    }
                }
            }
            leftover.push(conj);
        }
    }

    // Apply single-factor filters (the optimizer merges them into scans).
    let mut nodes: Vec<Option<LogicalPlan>> = factors
        .iter()
        .zip(single)
        .map(|((p, _), preds)| {
            Some(match conjoin(preds) {
                Some(pred) => p.clone().filter(pred),
                None => p.clone(),
            })
        })
        .collect();
    let schemas: Vec<SchemaRef> = factors.iter().map(|(_, s)| s.clone()).collect();

    // --- Join tree: greedy, starting from factor 0 ---
    let mut current = nodes[0]
        .take()
        .ok_or_else(|| Error::Internal("factor 0 missing".into()))?;
    let mut joined: Vec<usize> = vec![0];
    let mut remaining_conds = join_conds;
    while joined.len() < factors.len() {
        // Find a condition connecting the joined set to a new factor.
        let pick = remaining_conds.iter().position(|(li, ri, _, _)| {
            (joined.contains(li) && !joined.contains(ri))
                || (joined.contains(ri) && !joined.contains(li))
        });
        let Some(pos) = pick else {
            let missing: Vec<&str> = (0..factors.len())
                .filter(|i| !joined.contains(i))
                .map(|i| select.from[i].effective_alias())
                .collect();
            return Err(Error::Plan(format!(
                "no join condition connects table(s) [{}] — cross joins are not supported",
                missing.join(", ")
            )));
        };
        let (li, ri, lk, rk) = remaining_conds.remove(pos);
        let (new_factor, cur_key, new_key) = if joined.contains(&li) {
            (ri, lk, rk)
        } else {
            (li, rk, lk)
        };
        // Collect all other conditions between the joined set ∪ {new} pairs
        // involving new_factor for a multi-key join.
        let mut cur_keys = vec![cur_key];
        let mut new_keys = vec![new_key];
        let mut rest = Vec::new();
        for (li, ri, lk, rk) in remaining_conds.drain(..) {
            if joined.contains(&li) && ri == new_factor {
                cur_keys.push(lk);
                new_keys.push(rk);
            } else if joined.contains(&ri) && li == new_factor {
                cur_keys.push(rk);
                new_keys.push(lk);
            } else {
                rest.push((li, ri, lk, rk));
            }
        }
        remaining_conds = rest;
        let right = nodes[new_factor]
            .take()
            .ok_or_else(|| Error::Internal("factor reused".into()))?;
        current = current.join(right, cur_keys, new_keys, crate::join::JoinType::Inner);
        joined.push(new_factor);
        let _ = &schemas; // schemas kept for potential diagnostics
    }
    // Unconsumed join conditions (cycles in the join graph) become filters.
    for (_, _, lk, rk) in remaining_conds {
        leftover.push(lk.eq(rk));
    }
    if let Some(pred) = conjoin(leftover) {
        current = current.filter(pred);
    }

    // --- Window extraction from the select list ---
    let mut wgroups: Vec<WindowGroup> = Vec::new();
    let mut wcounter = 0usize;
    let mut items_past_windows: Vec<(AstExpr, Option<String>)> = Vec::new();
    for item in &select.items {
        match item {
            SelectItem::Wildcard => {
                // Expand to the current schema's columns.
                let schema = current.schema(catalog)?;
                for f in schema.fields().iter() {
                    items_past_windows.push((
                        AstExpr::Column(f.qualifier.clone(), f.name.clone()),
                        Some(f.name.clone()),
                    ));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let replaced = extract_windows(expr, &mut wgroups, &mut wcounter)?;
                items_past_windows.push((replaced, alias.clone()));
            }
        }
    }
    for g in wgroups {
        current = current.window(g.partition_by, g.order_by, g.exprs);
    }

    // --- Aggregation ---
    let mut aggs: Vec<AggExpr> = Vec::new();
    let mut acounter = 0usize;
    let items_past_aggs: Vec<(AstExpr, Option<String>)> = items_past_windows
        .iter()
        .map(|(e, a)| Ok((extract_aggregates(e, &mut aggs, &mut acounter)?, a.clone())))
        .collect::<Result<_>>()?;

    let has_grouping = !aggs.is_empty() || !select.group_by.is_empty();
    let mut final_items: Vec<(Expr, String)> = Vec::new();
    // Group expressions and the aggregate output columns naming them.
    let mut group_by: Vec<(Expr, String)> = Vec::new();
    let to_group_columns = |e: Expr, group_by: &[(Expr, String)]| {
        e.transform(&|e| {
            for (gexpr, gname) in group_by {
                if &e == gexpr {
                    return Expr::col(gname.clone());
                }
            }
            e
        })
    };
    if has_grouping {
        // Group keys: named after matching select aliases when possible,
        // de-duplicated so that e.g. GROUP BY l1.loc_desc, l2.loc_desc
        // produces two distinct output columns.
        let mut used_names: Vec<String> = Vec::new();
        for (gi, g) in select.group_by.iter().enumerate() {
            let gexpr = to_scalar_expr(g)?;
            // Find a select item that is exactly this expression.
            let mut name = select
                .items
                .iter()
                .find_map(|item| match item {
                    SelectItem::Expr { expr, alias } if expr == g => {
                        Some(alias.clone().unwrap_or_else(|| default_name(&gexpr, gi)))
                    }
                    _ => None,
                })
                .unwrap_or_else(|| default_name(&gexpr, gi));
            if used_names.iter().any(|u| u.eq_ignore_ascii_case(&name)) {
                name = format!("{name}_{gi}");
            }
            used_names.push(name.clone());
            group_by.push((gexpr, name));
        }
        current = current.aggregate(group_by.clone(), aggs);
        // Rewrite select items: group expressions become their output columns.
        for (i, (ast, alias)) in items_past_aggs.iter().enumerate() {
            let rewritten = to_group_columns(to_scalar_expr(ast)?, &group_by);
            let name = alias.clone().unwrap_or_else(|| default_name(&rewritten, i));
            final_items.push((rewritten, name));
        }
    } else {
        for (i, (ast, alias)) in items_past_aggs.iter().enumerate() {
            let scalar = to_scalar_expr(ast)?;
            let name = alias.clone().unwrap_or_else(|| default_name(&scalar, i));
            final_items.push((scalar, name));
        }
    }
    let pre_projection = current.clone();
    current = current.project(final_items);

    if select.distinct {
        current = current.distinct();
    }
    if !select.order_by.is_empty() {
        let keys: Vec<SortKey> = select
            .order_by
            .iter()
            .map(|(e, asc)| {
                to_scalar_expr(e).map(|expr| {
                    if *asc {
                        SortKey::asc(expr)
                    } else {
                        SortKey::desc(expr)
                    }
                })
            })
            .collect::<Result<_>>()?;
        // SQL permits ordering by columns that are not in the select list;
        // when a key only resolves against the pre-projection schema, sort
        // first and project afterwards (not valid under DISTINCT, where the
        // sort key must survive into the output).
        let out_schema = current.schema(catalog)?;
        // Over an aggregate, a key that names a group expression the way
        // GROUP BY spelled it (`order by d.name` after `group by d.name`)
        // means the output column the aggregate named it by.
        let keys: Vec<SortKey> = keys
            .into_iter()
            .map(|mut k| {
                if !resolves_in(&k.expr, &out_schema) {
                    k.expr = to_group_columns(k.expr, &group_by);
                }
                k
            })
            .collect();
        let resolves_in_output = keys.iter().all(|k| resolves_in(&k.expr, &out_schema));
        if resolves_in_output {
            current = current.sort(keys);
        } else if select.distinct {
            return Err(Error::Plan(
                "ORDER BY column must appear in the select list when DISTINCT is used".into(),
            ));
        } else {
            let LogicalPlan::Project { exprs, .. } = &current else {
                return Err(Error::Internal("projection expected".into()));
            };
            let exprs = exprs.clone();
            current = pre_projection.sort(keys).project(exprs);
        }
    }
    if let Some(fetch) = select.limit {
        current = current.limit(fetch);
    }
    Ok(current)
}

fn default_name(expr: &Expr, i: usize) -> String {
    match expr {
        Expr::Column(c) => c.name.clone(),
        _ => format!("_c{i}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{schema_ref, Batch};
    use crate::exec::Executor;
    use crate::schema::Field;
    use crate::sql::parser::parse_query;
    use crate::table::Table;
    use crate::value::{DataType, Value};

    fn catalog() -> Catalog {
        let cat = Catalog::new();
        let schema = schema_ref(Schema::new(vec![
            Field::new("epc", DataType::Str),
            Field::new("rtime", DataType::Int),
            Field::new("biz_loc", DataType::Str),
        ]));
        let rows: Vec<Vec<Value>> = (0..20)
            .map(|i| {
                vec![
                    Value::str(format!("e{}", i % 4)),
                    Value::Int(i),
                    Value::str(format!("l{}", i % 3)),
                ]
            })
            .collect();
        cat.register(Table::new("r", Batch::from_rows(schema, &rows).unwrap()));
        let ls = schema_ref(Schema::new(vec![
            Field::new("gln", DataType::Str),
            Field::new("site", DataType::Str),
        ]));
        cat.register(Table::new(
            "locs",
            Batch::from_rows(
                ls,
                &[
                    vec![Value::str("l0"), Value::str("s0")],
                    vec![Value::str("l1"), Value::str("s1")],
                    vec![Value::str("l2"), Value::str("s2")],
                ],
            )
            .unwrap(),
        ));
        cat
    }

    fn run(sql: &str) -> Batch {
        let cat = catalog();
        let q = parse_query(sql).unwrap();
        let plan = plan_query(&q, &cat).unwrap();
        Executor::new(&cat).execute(&plan).unwrap()
    }

    #[test]
    fn select_where_project() {
        let out = run("select epc, rtime from r where rtime < 5");
        assert_eq!(out.num_rows(), 5);
        assert_eq!(out.schema().field(0).name, "epc");
    }

    #[test]
    fn select_star() {
        let out = run("select * from r where rtime = 0");
        assert_eq!(out.num_columns(), 3);
        assert_eq!(out.num_rows(), 1);
    }

    #[test]
    fn group_by_aggregates() {
        let out = run("select epc, count(*) as n, max(rtime) as mx from r group by epc");
        assert_eq!(out.num_rows(), 4);
        assert_eq!(out.column_by_name("n").unwrap().int_at(0), Some(5));
    }

    #[test]
    fn joins_by_where_equality() {
        let out = run("select c.epc, l.site from r c, locs l \
             where c.biz_loc = l.gln and l.site = 's1'");
        assert!(out.num_rows() > 0);
        for i in 0..out.num_rows() {
            assert_eq!(out.row(i)[1], Value::str("s1"));
        }
    }

    #[test]
    fn self_join_with_two_aliases() {
        let out = run("select a.epc from r a, r b \
             where a.epc = b.epc and a.rtime = 0 and b.rtime = 4");
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.row(0)[0], Value::str("e0"));
    }

    #[test]
    fn window_function_lag() {
        let out = run(
            "select epc, rtime, max(rtime) over (partition by epc order by rtime \
             rows between 1 preceding and 1 preceding) as prev from r where epc = 'e0'",
        );
        assert_eq!(out.num_rows(), 5);
        // Sorted inside window node; first row of partition has NULL prev.
        let prev = out.column_by_name("prev").unwrap();
        assert!(prev.is_null(0));
        assert_eq!(prev.int_at(1), Some(0));
    }

    #[test]
    fn cte_and_requalification() {
        let out = run("with v1 as (select epc, rtime from r where rtime < 10) \
             select v1.epc, count(*) as n from v1 group by v1.epc");
        assert_eq!(out.num_rows(), 4);
    }

    #[test]
    fn count_distinct() {
        let out = run("select count(distinct biz_loc) as d from r");
        assert_eq!(out.row(0)[0], Value::Int(3));
    }

    #[test]
    fn distinct_and_order_and_limit() {
        let out = run("select distinct epc from r order by epc desc limit 2");
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.row(0)[0], Value::str("e3"));
    }

    #[test]
    fn avg_of_difference_with_window_inside_cte() {
        // Shape of the paper's q1.
        let out = run(
            "with v1 as (select biz_loc as cur, rtime, \
               max(rtime) over (partition by epc order by rtime rows between 1 preceding and 1 preceding) as prev_time \
             from r) \
             select cur, avg(rtime - prev_time) as dwell from v1 where prev_time is not null group by cur",
        );
        assert!(out.num_rows() > 0);
    }

    #[test]
    fn order_by_a_qualified_group_key() {
        let cat = catalog();
        let reads = cat.get("r").unwrap();
        cat.register(Table::new("caser", reads.data().clone()));
        let dim = schema_ref(Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("name", DataType::Str),
        ]));
        let dims: Vec<Vec<Value>> = (0..20)
            .map(|i| vec![Value::Int(i), Value::str(format!("n{}", i % 3))])
            .collect();
        cat.register(Table::new("dim", Batch::from_rows(dim, &dims).unwrap()));
        let run = |sql: &str| {
            let plan = plan_query(&parse_query(sql).unwrap(), &cat).unwrap();
            Executor::new(&cat).execute(&plan).unwrap()
        };
        let qualified = run("select d.name, count(distinct c.epc) as epcs \
             from caser c, dim d where c.rtime = d.k group by d.name order by d.name");
        let bare = run("select d.name, count(distinct c.epc) as epcs \
             from caser c, dim d where c.rtime = d.k group by d.name order by name");
        assert_eq!(qualified.num_rows(), 3);
        assert_eq!(qualified.row(0)[0], Value::str("n0"));
        assert_eq!(
            (0..3).map(|i| qualified.row(i)).collect::<Vec<_>>(),
            (0..3).map(|i| bare.row(i)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn cross_join_rejected() {
        let cat = catalog();
        let q = parse_query("select * from r, locs").unwrap();
        let err = plan_query(&q, &cat).unwrap_err();
        assert!(err.to_string().contains("cross join"));
    }

    #[test]
    fn unknown_table_rejected() {
        let cat = catalog();
        let q = parse_query("select * from nope").unwrap();
        assert!(plan_query(&q, &cat).is_err());
    }

    #[test]
    fn aggregate_in_where_rejected() {
        let cat = catalog();
        let q = parse_query("select epc from r where count(*) > 1").unwrap();
        assert!(plan_query(&q, &cat).is_err());
    }

    #[test]
    fn or_predicate_stays_above_join_sides() {
        // An OR spanning two tables cannot be pushed to either side.
        let out = run("select c.epc from r c, locs l \
             where c.biz_loc = l.gln and (c.rtime < 2 or l.site = 's2')");
        assert!(out.num_rows() > 0);
    }
}
