//! Lowering: [`LogicalPlan`] → [`PhysicalOperator`] tree.
//!
//! This pass is where optimizer decisions become explicit physical
//! structure instead of runtime re-derivation:
//!
//! * **Index bounds** — for each scan with a pushed-down filter, the
//!   per-column range bounds and IN-lists implied by the predicate
//!   (including bounds shared by every OR branch, which is how the paper's
//!   §5.2 relaxed expanded condition becomes index-usable, and the IN-list
//!   every OR arm shares, which is how a scoped join-back's outer scan
//!   fetches only the touched sequences) are derived here
//!   and stored on the [`PhysicalScan`] as [`IndexCandidate`]s. At runtime
//!   the scan only picks the most selective candidate on the actual table —
//!   a data-dependent choice, not a plan-level one.
//! * **Sort placement** — a `Window` whose `presorted` flag was set by the
//!   optimizer (order sharing) lowers to a bare [`PhysicalWindow`]; an
//!   unsorted one gets an explicit [`PhysicalSort`] on (partition keys,
//!   order keys) inserted in front. The physical window operator itself
//!   never sorts.
//! * **Required columns** — the column references a node's parent reads
//!   are threaded down the tree (`Required`), so a [`PhysicalScan`] emits
//!   only the table columns something above it reads (its pushed-down
//!   filter still sees the whole table) and a [`PhysicalHashJoin`] gathers
//!   only those. The logical plan is not rewritten. Four places pin their
//!   child's full schema: the root (the caller gets the columns the plan
//!   declares), `Union` inputs and `Distinct` (both positional: every
//!   column is part of the row), and `SubqueryAlias` (it renames every
//!   column, so the names read above it say nothing about the names
//!   below). `Project` and `Aggregate` read exactly what their expressions
//!   reference; `Filter`, `Sort`, `Window`, `Limit` and the joins pass
//!   their parent's needs on and add their own. References are matched by
//!   name with the rule expression evaluation resolves them by, and every
//!   field a reference *could* mean is kept — so a reference that is
//!   ambiguous, or unresolvable, fails during execution exactly as it
//!   does over the unpruned schema.

use super::aggregate::PhysicalAggregate;
use super::distinct::PhysicalDistinct;
use super::filter::PhysicalFilter;
use super::hash_join::PhysicalHashJoin;
use super::limit::PhysicalLimit;
use super::project::PhysicalProject;
use super::scan::{IndexCandidate, PhysicalScan};
use super::semi_join::PhysicalSemiJoin;
use super::sort::PhysicalSort;
use super::subquery_alias::PhysicalSubqueryAlias;
use super::union::PhysicalUnion;
use super::window::PhysicalWindow;
use super::PhysicalOperator;
use crate::error::Result;
use crate::expr::{split_conjuncts, BinaryOp, ColumnRef, Expr};
use crate::index::ScanBound;
use crate::join::JoinType;
use crate::plan::{window_sort_keys, LogicalPlan};
use crate::schema::{Field, Schema};
use crate::table::{Catalog, Table};
use crate::value::Value;
use std::collections::HashMap;

/// The columns of a node's output that are read above it, as the distinct
/// column references (borrowed from the plan) evaluated there; `None` pins
/// the node's full schema.
type Required<'p> = Option<Vec<&'p ColumnRef>>;

/// What a node's child must deliver: everything `required` of the node
/// itself (its output carries the child's columns through) plus what the
/// node's own `exprs` read.
fn passing_on<'p>(
    required: &Required<'p>,
    exprs: impl IntoIterator<Item = &'p Expr>,
) -> Required<'p> {
    let mut refs = required.clone()?;
    for e in exprs {
        e.for_each_column(&mut |c| {
            if !refs.contains(&c) {
                refs.push(c);
            }
        });
    }
    Some(refs)
}

/// What the child of a node with a schema of its own must deliver: the
/// columns the node's `exprs` read, nothing else.
fn reading<'p>(exprs: impl IntoIterator<Item = &'p Expr>) -> Required<'p> {
    passing_on(&Some(Vec::new()), exprs)
}

/// The columns of `table` (bare names, table order) a scan under `alias`
/// must emit for `refs` to resolve above it; `None` when that is all of
/// them.
fn scan_columns(table: &Table, alias: Option<&str>, refs: &[&ColumnRef]) -> Option<Vec<String>> {
    let read = |f: &Field| {
        refs.iter().any(|r| match alias {
            // Under an alias a field answers to that qualifier alone.
            Some(a) => {
                f.name.eq_ignore_ascii_case(&r.name)
                    && r.qualifier
                        .as_deref()
                        .is_none_or(|q| q.eq_ignore_ascii_case(a))
            }
            None => f.matches(r.qualifier.as_deref(), &r.name),
        })
    };
    let fields = table.schema().fields();
    let mut kept: Vec<String> = fields
        .iter()
        .filter(|f| read(f))
        .map(|f| f.name.clone())
        .collect();
    if kept.is_empty() {
        // `count(*)` reads no column, but a batch carries its row count in
        // its columns.
        kept.extend(fields.first().map(|f| f.name.clone()));
    }
    (kept.len() < fields.len()).then_some(kept)
}

/// Lower a logical plan to an executable physical operator tree.
pub fn lower(plan: &LogicalPlan, catalog: &Catalog) -> Result<Box<dyn PhysicalOperator>> {
    lower_node(plan, catalog, None)
}

fn lower_node<'p>(
    plan: &'p LogicalPlan,
    catalog: &Catalog,
    required: Required<'p>,
) -> Result<Box<dyn PhysicalOperator>> {
    Ok(match plan {
        LogicalPlan::Scan {
            table,
            alias,
            filter,
        } => {
            let t = catalog.get(table)?;
            let columns = required.and_then(|refs| scan_columns(&t, alias.as_deref(), &refs));
            let candidates = match filter {
                Some(f) => {
                    // The scan's output schema (possibly requalified by the
                    // alias) is what the filter's column references resolve
                    // against; it is positionally identical to the table.
                    let scan_schema = match alias {
                        Some(a) => t.schema().with_qualifier(a),
                        None => t.schema().as_ref().clone(),
                    };
                    derive_index_candidates(&t, &scan_schema, f)
                }
                None => Vec::new(),
            };
            Box::new(PhysicalScan {
                table: table.clone(),
                alias: alias.clone(),
                filter: filter.clone(),
                candidates,
                columns,
            })
        }
        LogicalPlan::Filter { input, predicate } => Box::new(PhysicalFilter {
            input: lower_node(input, catalog, passing_on(&required, [predicate]))?,
            predicate: predicate.clone(),
        }),
        LogicalPlan::Project { input, exprs } => Box::new(PhysicalProject {
            input: lower_node(input, catalog, reading(exprs.iter().map(|(e, _)| e)))?,
            exprs: exprs.clone(),
        }),
        LogicalPlan::Sort { input, keys } => Box::new(PhysicalSort {
            input: lower_node(
                input,
                catalog,
                passing_on(&required, keys.iter().map(|k| &k.expr)),
            )?,
            keys: keys.clone(),
            run_hint_table: table_order_source(input),
        }),
        LogicalPlan::Window {
            input,
            partition_by,
            order_by,
            exprs,
            presorted,
        } => {
            let reads = partition_by
                .iter()
                .chain(order_by.iter().map(|k| &k.expr))
                .chain(exprs.iter().filter_map(|we| we.arg.as_ref()));
            let mut child = lower_node(input, catalog, passing_on(&required, reads))?;
            if !presorted {
                // The optimizer did not find a shared order: make the sort
                // an explicit physical operator (same counter semantics as
                // a logical Sort node).
                child = Box::new(PhysicalSort {
                    input: child,
                    keys: window_sort_keys(partition_by, order_by),
                    run_hint_table: table_order_source(input),
                });
            }
            // RANGE frames need the single order key for binary searches.
            let order_key = if order_by.len() == 1 {
                Some(order_by[0].expr.clone())
            } else {
                None
            };
            Box::new(PhysicalWindow {
                input: child,
                partition_by: partition_by.clone(),
                order_key,
                exprs: exprs.clone(),
            })
        }
        LogicalPlan::Join {
            left,
            right,
            left_keys,
            right_keys,
            join_type,
        } => {
            let l = lower_node(left, catalog, passing_on(&required, left_keys))?;
            let r = match join_type {
                JoinType::Inner => passing_on(&required, right_keys),
                // A semi-join emits no right column: the keys are all it reads.
                JoinType::LeftSemi => reading(right_keys),
            };
            let r = lower_node(right, catalog, r)?;
            match join_type {
                JoinType::Inner => Box::new(PhysicalHashJoin {
                    left: l,
                    right: r,
                    left_keys: left_keys.clone(),
                    right_keys: right_keys.clone(),
                    emit: required.map(|refs| refs.into_iter().cloned().collect()),
                }),
                JoinType::LeftSemi => Box::new(PhysicalSemiJoin {
                    left: l,
                    right: r,
                    left_keys: left_keys.clone(),
                    right_keys: right_keys.clone(),
                }),
            }
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let reads = group_by
                .iter()
                .map(|(e, _)| e)
                .chain(aggs.iter().filter_map(|a| a.func.arg()));
            Box::new(PhysicalAggregate {
                input: lower_node(input, catalog, reading(reads))?,
                group_by: group_by.clone(),
                aggs: aggs.clone(),
            })
        }
        LogicalPlan::Distinct { input } => Box::new(PhysicalDistinct {
            input: lower_node(input, catalog, None)?,
        }),
        LogicalPlan::Union { inputs } => Box::new(PhysicalUnion {
            inputs: inputs
                .iter()
                .map(|p| lower_node(p, catalog, None))
                .collect::<Result<_>>()?,
        }),
        LogicalPlan::Limit { input, fetch } => Box::new(PhysicalLimit {
            input: lower_node(input, catalog, required)?,
            fetch: *fetch,
        }),
        LogicalPlan::SubqueryAlias { input, alias } => Box::new(PhysicalSubqueryAlias {
            input: lower_node(input, catalog, None)?,
            alias: alias.clone(),
        }),
    })
}

/// The catalog table whose rows a sort placed directly above `input` would
/// receive *in table row order*, if any. Only an unfiltered scan qualifies:
/// a filtered scan may answer through an index (index order, not table
/// order), and any other operator reshapes or reorders rows. Used to attach
/// segment-metadata run hints to [`PhysicalSort`].
fn table_order_source(input: &LogicalPlan) -> Option<String> {
    match input {
        LogicalPlan::Scan {
            table,
            filter: None,
            ..
        } => Some(table.clone()),
        LogicalPlan::SubqueryAlias { input, .. } => table_order_source(input),
        _ => None,
    }
}

/// Range bounds accumulated for one column while deriving candidates.
#[derive(Default)]
struct ColBounds {
    lower: Option<(Value, bool)>, // (value, inclusive)
    upper: Option<(Value, bool)>,
    in_values: Option<Vec<Value>>,
}

impl ColBounds {
    fn tighten_lower(&mut self, v: Value, inclusive: bool) {
        let replace = match &self.lower {
            None => true,
            Some((cur, cur_inc)) => match v.total_cmp(cur) {
                std::cmp::Ordering::Greater => true,
                std::cmp::Ordering::Equal => *cur_inc && !inclusive,
                std::cmp::Ordering::Less => false,
            },
        };
        if replace {
            self.lower = Some((v, inclusive));
        }
    }

    fn tighten_upper(&mut self, v: Value, inclusive: bool) {
        let replace = match &self.upper {
            None => true,
            Some((cur, cur_inc)) => match v.total_cmp(cur) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Equal => *cur_inc && !inclusive,
                std::cmp::Ordering::Greater => false,
            },
        };
        if replace {
            self.upper = Some((v, inclusive));
        }
    }

    fn lower_bound(&self) -> ScanBound {
        match &self.lower {
            None => ScanBound::Unbounded,
            Some((v, true)) => ScanBound::Inclusive(v.clone()),
            Some((v, false)) => ScanBound::Exclusive(v.clone()),
        }
    }

    fn upper_bound(&self) -> ScanBound {
        match &self.upper {
            None => ScanBound::Unbounded,
            Some((v, true)) => ScanBound::Inclusive(v.clone()),
            Some((v, false)) => ScanBound::Exclusive(v.clone()),
        }
    }
}

/// Derive the per-column index-access candidates implied by `filter`:
/// range bounds from the whole predicate (including bounds every OR branch
/// shares), positive IN-lists, and the IN-list every arm of a top-level
/// disjunction shares ([`shared_in_values`]). Candidates are ordered by
/// column position for deterministic tie-breaking at runtime.
fn derive_index_candidates(
    table: &Table,
    scan_schema: &Schema,
    filter: &Expr,
) -> Vec<IndexCandidate> {
    let mut bounds: HashMap<usize, ColBounds> = HashMap::new();
    for (ci, interval) in crate::constraint::implied_bounds_resolved(filter, scan_schema) {
        let b = bounds.entry(ci).or_default();
        if let Some(l) = &interval.lower {
            b.tighten_lower(l.value.clone(), l.inclusive);
        }
        if let Some(u) = &interval.upper {
            b.tighten_upper(u.value.clone(), u.inclusive);
        }
    }
    for conj in split_conjuncts(filter) {
        if let Expr::InList {
            expr,
            list,
            negated: false,
        } = &conj
        {
            if let Expr::Column(c) = expr.as_ref() {
                if let Ok(ci) = scan_schema.index_of(c.qualifier.as_deref(), &c.name) {
                    bounds.entry(ci).or_default().in_values = Some(list.clone());
                }
            }
        } else if let Expr::InSet {
            expr,
            set,
            negated: false,
            ..
        } = &conj
        {
            if let Expr::Column(c) = expr.as_ref() {
                if let Ok(ci) = scan_schema.index_of(c.qualifier.as_deref(), &c.name) {
                    bounds.entry(ci).or_default().in_values = Some(set.iter().cloned().collect());
                }
            }
        } else if let Expr::Binary {
            op: BinaryOp::Or, ..
        } = &conj
        {
            // A top-level IN-list on the same column wins, in either order.
            for (ci, values) in shared_in_values(&conj, scan_schema) {
                bounds
                    .entry(ci)
                    .or_default()
                    .in_values
                    .get_or_insert(values);
            }
        }
    }

    let mut candidates: Vec<(usize, IndexCandidate)> = bounds
        .into_iter()
        .filter(|(_, b)| b.in_values.is_some() || b.lower.is_some() || b.upper.is_some())
        .map(|(ci, b)| {
            // Scan schema is positionally identical to the table schema.
            let column = table.schema().field(ci).name.clone();
            (
                ci,
                IndexCandidate {
                    column,
                    lower: b.lower_bound(),
                    upper: b.upper_bound(),
                    in_values: b.in_values,
                },
            )
        })
        .collect();
    candidates.sort_by_key(|(ci, _)| *ci);
    candidates.into_iter().map(|(_, c)| c).collect()
}

/// The values `expr` restricts each column to through positive
/// `col IN (…)` and `col = literal` terms: an AND keeps the shorter of its
/// sides' lists, an OR keeps only the columns every arm restricts, with the
/// union of their values. This is how the join-back's outer scan under a
/// scoped plan, `(epc IN K ∧ …) ∨ (… ∧ caser.epc IN K ∧ …)`, becomes an
/// index fetch of `K`. Columns are resolved against `schema` (so `epc` and
/// `caser.epc` merge) and keyed by position; NULL elements are dropped
/// (they never match); `NOT IN` restricts nothing. Each list is sorted and
/// deduplicated.
fn shared_in_values(expr: &Expr, schema: &Schema) -> HashMap<usize, Vec<Value>> {
    let (col, values): (&Expr, Vec<&Value>) = match expr {
        Expr::Binary {
            left,
            op: BinaryOp::And,
            right,
        } => {
            let mut out = shared_in_values(left, schema);
            for (ci, values) in shared_in_values(right, schema) {
                match out.get_mut(&ci) {
                    Some(cur) if cur.len() <= values.len() => {}
                    Some(cur) => *cur = values,
                    None => {
                        out.insert(ci, values);
                    }
                }
            }
            return out;
        }
        Expr::Binary {
            left,
            op: BinaryOp::Or,
            right,
        } => {
            let mut out = shared_in_values(left, schema);
            let mut other = shared_in_values(right, schema);
            out.retain(|ci, values| match other.remove(ci) {
                Some(more) => {
                    *values = sorted_values(std::mem::take(values).iter().chain(&more));
                    true
                }
                None => false,
            });
            return out;
        }
        Expr::Binary {
            left,
            op: BinaryOp::Eq,
            right,
        } => match (left.as_ref(), right.as_ref()) {
            (col, Expr::Literal(v)) | (Expr::Literal(v), col) => (col, vec![v]),
            _ => return HashMap::new(),
        },
        Expr::InList {
            expr,
            list,
            negated: false,
        } => (expr, list.iter().collect()),
        Expr::InSet {
            expr,
            set,
            negated: false,
            ..
        } => (expr, set.iter().collect()),
        _ => return HashMap::new(),
    };
    let Expr::Column(c) = col else {
        return HashMap::new();
    };
    match schema.index_of(c.qualifier.as_deref(), &c.name) {
        Ok(ci) => HashMap::from([(ci, sorted_values(values))]),
        Err(_) => HashMap::new(),
    }
}

/// `values` without NULLs, sorted and deduplicated.
fn sorted_values<'v>(values: impl IntoIterator<Item = &'v Value>) -> Vec<Value> {
    let mut out: Vec<Value> = values
        .into_iter()
        .filter(|v| !v.is_null())
        .cloned()
        .collect();
    out.sort_by(Value::total_cmp);
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{schema_ref, Batch};
    use crate::value::DataType;

    fn caser() -> Table {
        let schema = schema_ref(Schema::new(vec![
            Field::new("epc", DataType::Str),
            Field::new("rtime", DataType::Int),
            Field::new("reader", DataType::Str),
        ]));
        Table::new("caser", Batch::empty(schema))
    }

    fn s(v: &str) -> Expr {
        Expr::lit(Value::str(v))
    }

    fn in_list(col: &str, values: &[Value], negated: bool) -> Expr {
        Expr::InList {
            expr: Box::new(Expr::col(col)),
            list: values.to_vec(),
            negated,
        }
    }

    /// The `epc` candidate's IN-list the filter yields over `caser AS
    /// caser`, or `None` when it has none.
    fn epc_in_values(filter: &Expr) -> Option<Vec<Value>> {
        let t = caser();
        let schema = t.schema().with_qualifier("caser");
        derive_index_candidates(&t, &schema, filter)
            .into_iter()
            .find(|c| c.column == "epc")
            .and_then(|c| c.in_values)
    }

    fn strs(values: &[&str]) -> Vec<Value> {
        values.iter().map(|v| Value::str(*v)).collect()
    }

    #[test]
    fn arms_with_mixed_qualification_share_one_in_list() {
        // The join-back's outer filter under a scoped plan.
        let f = in_list("epc", &strs(&["k1", "k2"]), false)
            .and(Expr::col("rtime").gt_eq(Expr::lit(5i64)))
            .or(Expr::col("caser.reader").eq(s("x")).and(in_list(
                "caser.epc",
                &strs(&["k2", "k1"]),
                false,
            )));
        assert_eq!(epc_in_values(&f), Some(strs(&["k1", "k2"])));
    }

    #[test]
    fn equalities_in_every_arm_union() {
        let f = Expr::col("epc").eq(s("b")).or(s("a").eq(Expr::col("epc")));
        assert_eq!(epc_in_values(&f), Some(strs(&["a", "b"])));
    }

    #[test]
    fn and_nested_inside_or() {
        let f = Expr::col("epc")
            .eq(s("a"))
            .and(Expr::col("rtime").gt(Expr::lit(1i64)))
            .or(Expr::col("rtime").lt(Expr::lit(0i64)).and(in_list(
                "epc",
                &strs(&["b", "c"]),
                false,
            )));
        assert_eq!(epc_in_values(&f), Some(strs(&["a", "b", "c"])));
        // The range candidates are unchanged by it: `rtime` is bounded in
        // only one arm of each side, so it has none.
        let t = caser();
        let cols: Vec<String> = derive_index_candidates(&t, t.schema(), &f)
            .into_iter()
            .map(|c| c.column)
            .collect();
        assert_eq!(cols, vec!["epc"]);
    }

    #[test]
    fn an_arm_without_the_column_gives_no_candidate() {
        let f = Expr::col("epc")
            .eq(s("a"))
            .or(Expr::col("reader").eq(s("x")));
        assert_eq!(epc_in_values(&f), None);
    }

    #[test]
    fn not_in_gives_no_candidate() {
        let f = in_list("epc", &strs(&["a"]), true).or(Expr::col("epc").eq(s("b")));
        assert_eq!(epc_in_values(&f), None);
    }

    #[test]
    fn null_elements_are_dropped() {
        let f = in_list("epc", &[Value::str("a"), Value::Null], false)
            .or(Expr::col("epc").eq(Expr::lit(Value::Null)))
            .or(Expr::col("epc").eq(s("b")));
        assert_eq!(epc_in_values(&f), Some(strs(&["a", "b"])));
    }

    #[test]
    fn a_top_level_in_list_wins_over_a_shared_one() {
        let shared = Expr::col("epc").eq(s("a")).or(Expr::col("epc").eq(s("b")));
        let top = in_list("epc", &strs(&["c"]), false);
        for f in [shared.clone().and(top.clone()), top.and(shared)] {
            assert_eq!(epc_in_values(&f), Some(strs(&["c"])));
        }
    }
}
