//! Lowering: [`LogicalPlan`] → [`PhysicalOperator`] tree.
//!
//! This pass is where optimizer decisions become explicit physical
//! structure instead of runtime re-derivation:
//!
//! * **Index bounds** — for each scan with a pushed-down filter, the
//!   per-column range bounds and IN-lists implied by the predicate
//!   (including bounds shared by every OR branch, which is how the paper's
//!   §5.2 relaxed expanded condition becomes index-usable) are derived here
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
use crate::expr::{split_conjuncts, ColumnRef, Expr};
use crate::index::ScanBound;
use crate::join::JoinType;
use crate::plan::{window_sort_keys, LogicalPlan};
use crate::schema::{Field, Schema};
use crate::table::{Catalog, Table};
use crate::value::Value;

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
/// shares) plus positive IN-lists. Candidates are ordered by column
/// position for deterministic tie-breaking at runtime.
fn derive_index_candidates(
    table: &Table,
    scan_schema: &Schema,
    filter: &Expr,
) -> Vec<IndexCandidate> {
    use std::collections::HashMap;
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
