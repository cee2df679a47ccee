//! Maintenance planning: decide how a standing query's plan can be
//! maintained incrementally.
//!
//! The soundness basis is the paper's partitioning: cleansing rules group
//! the reads table by the cluster key and never let sequences interact
//! across keys, so a restriction `ckey IN K` pushed onto the reads scan
//! commutes with cleansing. A plan is **ckey-decomposable** when that
//! restriction also commutes with every operator above the scan — then the
//! difference between two epochs' full results equals the difference
//! between the two epochs' *scoped* results over the touched keys, and
//! maintenance never has to look at untouched sequences.
//!
//! [`classify`] maps a user plan onto the cheapest sound maintenance mode:
//!
//! * decomposable plan → [`Classified::Scoped`] (per-row delta);
//! * `ORDER BY` (+ optional `LIMIT`) over a decomposable input →
//!   [`Classified::Ordered`] (sorted buffer, visible-prefix top-k);
//! * `count/sum/avg` aggregate (grouped by non-ckey keys or global) over a
//!   decomposable input → [`Classified::Aggregate`] (exact i128
//!   accumulators fed by scoped partial aggregates);
//! * everything else → [`Classified::Fallback`] with the reason —
//!   recompute-and-diff, always correct, never silently wrong.
//!
//! Conservatism notes: `DISTINCT` (and `count(distinct)`) eliminate
//! duplicates *across* cluster keys, so a scoped run cannot tell whether a
//! disappearing row is still contributed by an untouched key — fallback.
//! `min`/`max` are not invertible under deletion (re-cleansing can shrink
//! a sequence's output) — fallback. Floating-point `sum`/`avg` are
//! order-sensitive, so add/subtract maintenance cannot reproduce the cold
//! result bit-for-bit — fallback. Integer `avg` is maintainable because
//! the engine itself accumulates it exactly (i128 sum ÷ count).

use dc_relational::agg::{AggExpr, AggFunc};
use dc_relational::delta::scan_count;
use dc_relational::expr::Expr;
use dc_relational::plan::LogicalPlan;
use dc_relational::schema::SchemaRef;
use dc_relational::sort::SortKey;
use dc_relational::table::Catalog;
use dc_relational::value::DataType;

/// How one user aggregate is reconstructed from accumulator slots.
#[derive(Debug, Clone)]
pub enum UserAgg {
    /// `count(*)` — one count slot.
    CountStar { slot: usize },
    /// `count(e)` — one non-null count slot.
    Count { slot: usize },
    /// `sum(e)` over integers — sum slot + non-null count slot (the count
    /// distinguishes an all-NULL group, whose sum is NULL, from a zero sum).
    Sum { sum: usize, cnt: usize },
    /// `avg(e)` over integers — exact integer sum slot + count slot.
    Avg { sum: usize, cnt: usize },
}

/// Everything aggregate maintenance needs: the partial aggregate to run
/// scoped per epoch, and how to rebuild final result rows from
/// accumulators.
#[derive(Debug, Clone)]
pub struct AggSpec {
    /// The aggregate's input subtree (unscoped; decomposable).
    pub input: LogicalPlan,
    /// Group keys of the user aggregate (may be empty: global aggregate).
    pub group_by: Vec<(Expr, String)>,
    /// Partial aggregates executed per maintenance step; all integer
    /// valued. The last slot is always a hidden `count(*)` tracking group
    /// liveness.
    pub partials: Vec<AggExpr>,
    /// Reconstruction recipe, one entry per user aggregate, in order.
    pub user_aggs: Vec<UserAgg>,
    /// Projection applied above the aggregate in the user plan (`None`
    /// when the aggregate itself is the plan root).
    pub project: Option<Vec<(Expr, String)>>,
    /// Output schema of the aggregate node (group keys then aggregates) —
    /// the schema `project` expressions resolve in.
    pub agg_schema: SchemaRef,
}

/// The maintenance mode chosen for a subscription's plan.
#[derive(Debug, Clone)]
pub enum Classified {
    /// The whole plan is ckey-decomposable: the scoped diff is the delta.
    Scoped,
    /// Top-level `ORDER BY` (+ optional `LIMIT`) over a decomposable
    /// input: keep the input's rows in a sorted buffer, report changes to
    /// the visible prefix.
    Ordered {
        /// The sort's input subtree (produces the result rows).
        inner: LogicalPlan,
        keys: Vec<SortKey>,
        /// `LIMIT` fetch when present; `None` shows the whole buffer.
        fetch: Option<usize>,
        /// Schema the sort keys resolve in (the inner subtree's output).
        inner_schema: SchemaRef,
    },
    /// Global or non-ckey-grouped aggregation maintained by accumulators.
    Aggregate(AggSpec),
    /// Undecomposable: recompute and diff against the retained result.
    Fallback { reason: String },
}

impl Classified {
    /// Short mode name used in counters and the `-- stream:` line.
    pub fn mode_name(&self) -> &'static str {
        match self {
            Classified::Scoped => "scoped",
            Classified::Ordered { .. } => "ordered",
            Classified::Aggregate(_) => "aggregate",
            Classified::Fallback { .. } => "fallback",
        }
    }

    /// The unscoped plan this mode's maintenance runs, restricted to the
    /// appended keys on each step: the user plan (scoped), the sort's
    /// input (ordered), or the partial aggregate (aggregate). `None` in
    /// fallback mode, which only ever re-runs the user's query.
    pub fn maintenance_plan(&self, user_plan: &LogicalPlan) -> Option<LogicalPlan> {
        match self {
            Classified::Scoped => Some(user_plan.clone()),
            Classified::Ordered { inner, .. } => Some(inner.clone()),
            Classified::Aggregate(spec) => Some(partial_plan(spec)),
            Classified::Fallback { .. } => None,
        }
    }
}

/// True when `e` is a bare reference to the cluster-key column (any
/// qualifier).
fn is_ckey_col(e: &Expr, ckey: &str) -> bool {
    matches!(e, Expr::Column(c) if c.name.eq_ignore_ascii_case(ckey))
}

/// Is `plan` ckey-decomposable: does `σ_{ckey∈K}` at the reads scan
/// commute all the way to the root? Subtrees that never scan the reads
/// table are constant across reads-appends and cancel in the diff, so
/// they are trivially fine.
pub fn decomposable(plan: &LogicalPlan, table: &str, ckey: &str) -> bool {
    if scan_count(plan, table) == 0 {
        return true;
    }
    match plan {
        LogicalPlan::Scan { .. } => true,
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::SubqueryAlias { input, .. }
        // A mid-plan sort is multiset-preserving; order is owned by the
        // maintenance mode, not the scoped diff.
        | LogicalPlan::Sort { input, .. } => decomposable(input, table, ckey),
        LogicalPlan::Join { left, right, .. } => {
            // Sound when only one side reads the cleansed table: the scope
            // predicate references only that side's columns and commutes
            // through the join.
            (scan_count(right, table) == 0 && decomposable(left, table, ckey))
                || (scan_count(left, table) == 0 && decomposable(right, table, ckey))
        }
        LogicalPlan::Window {
            input, partition_by, ..
        } => {
            // Windows partitioned by the cluster key never mix rows across
            // keys, so scoping the input scopes every partition whole.
            partition_by.iter().any(|e| is_ckey_col(e, ckey))
                && decomposable(input, table, ckey)
        }
        LogicalPlan::Aggregate { input, group_by, .. } => {
            // Same argument for grouping: ckey in the group keys makes
            // every group single-key.
            group_by.iter().any(|(e, _)| is_ckey_col(e, ckey))
                && decomposable(input, table, ckey)
        }
        LogicalPlan::Union { inputs } => inputs
            .iter()
            .all(|i| decomposable(i, table, ckey)),
        // DISTINCT deduplicates across cluster keys; LIMIT's cutoff
        // depends on rows outside the scope. Both break commutation.
        LogicalPlan::Distinct { .. } | LogicalPlan::Limit { .. } => false,
    }
}

/// Classify `plan` (keyed on `table`/`ckey`, the reads table and its
/// cluster key) into a maintenance mode. `catalog` supplies schemas for
/// type checks; appends never change schemas, so classifying once at
/// subscribe time is safe.
pub fn classify(plan: &LogicalPlan, catalog: &Catalog, table: &str, ckey: &str) -> Classified {
    if scan_count(plan, table) == 0 {
        return Classified::Fallback {
            reason: format!("query does not read the cleansed table {table}"),
        };
    }
    if scan_count(plan, table) > 1 {
        return Classified::Fallback {
            reason: format!("query reads {table} more than once (self-join)"),
        };
    }

    // Top-level ORDER BY (+ optional LIMIT) gets the sorted-buffer mode so
    // the visible order is maintained, not just the multiset.
    let (sorted, fetch) = match plan {
        LogicalPlan::Limit { input, fetch } => match input.as_ref() {
            LogicalPlan::Sort { .. } => (Some(input.as_ref()), Some(*fetch)),
            _ => (None, None),
        },
        LogicalPlan::Sort { .. } => (Some(plan), None),
        _ => (None, None),
    };
    if let Some(LogicalPlan::Sort { input, keys }) = sorted {
        if decomposable(input, table, ckey) {
            match input.schema(catalog) {
                Ok(inner_schema) => {
                    return Classified::Ordered {
                        inner: input.as_ref().clone(),
                        keys: keys.clone(),
                        fetch,
                        inner_schema,
                    }
                }
                Err(e) => {
                    return Classified::Fallback {
                        reason: format!("sort input schema unavailable: {e}"),
                    }
                }
            }
        }
        return Classified::Fallback {
            reason: "ORDER BY over a non-decomposable input".into(),
        };
    }

    if decomposable(plan, table, ckey) {
        return Classified::Scoped;
    }

    // Project(Aggregate(input)) / Aggregate(input) with non-ckey groups.
    let (project, agg) = match plan {
        LogicalPlan::Project { input, exprs } => match input.as_ref() {
            LogicalPlan::Aggregate { .. } => (Some(exprs.clone()), input.as_ref()),
            _ => (None, plan),
        },
        _ => (None, plan),
    };
    if let LogicalPlan::Aggregate {
        input,
        group_by,
        aggs,
    } = agg
    {
        if decomposable(input, table, ckey) {
            match build_agg_spec(agg, input, group_by, aggs, project, catalog) {
                Ok(spec) => return Classified::Aggregate(spec),
                Err(reason) => return Classified::Fallback { reason },
            }
        }
        return Classified::Fallback {
            reason: "aggregate over a non-decomposable input".into(),
        };
    }

    Classified::Fallback {
        reason: format!("plan shape is not decomposable by {ckey}"),
    }
}

/// Build the partial-aggregate spec, or a human-readable fallback reason
/// when some aggregate cannot be maintained exactly.
fn build_agg_spec(
    agg_node: &LogicalPlan,
    input: &LogicalPlan,
    group_by: &[(Expr, String)],
    aggs: &[AggExpr],
    project: Option<Vec<(Expr, String)>>,
    catalog: &Catalog,
) -> std::result::Result<AggSpec, String> {
    let input_schema = input
        .schema(catalog)
        .map_err(|e| format!("aggregate input schema unavailable: {e}"))?;
    let int_arg = |e: &Expr| -> std::result::Result<(), String> {
        match e.data_type(&input_schema) {
            Ok(DataType::Int) => Ok(()),
            Ok(other) => Err(format!(
                "{e} has type {other:?}; only integer sums/averages are order-insensitive"
            )),
            Err(err) => Err(format!("cannot type {e}: {err}")),
        }
    };

    let mut partials: Vec<AggExpr> = Vec::new();
    let mut user_aggs: Vec<UserAgg> = Vec::new();
    let slot = |partials: &mut Vec<AggExpr>, func: AggFunc| -> usize {
        let s = partials.len();
        partials.push(AggExpr {
            func,
            alias: format!("__p{s}"),
        });
        s
    };
    for a in aggs {
        match &a.func {
            AggFunc::CountStar => {
                let s = slot(&mut partials, AggFunc::CountStar);
                user_aggs.push(UserAgg::CountStar { slot: s });
            }
            AggFunc::Count(e) => {
                let s = slot(&mut partials, AggFunc::Count(e.clone()));
                user_aggs.push(UserAgg::Count { slot: s });
            }
            AggFunc::Sum(e) => {
                int_arg(e).map_err(|r| format!("sum: {r}"))?;
                let sum = slot(&mut partials, AggFunc::Sum(e.clone()));
                let cnt = slot(&mut partials, AggFunc::Count(e.clone()));
                user_aggs.push(UserAgg::Sum { sum, cnt });
            }
            AggFunc::Avg(e) => {
                int_arg(e).map_err(|r| format!("avg: {r}"))?;
                let sum = slot(&mut partials, AggFunc::Sum(e.clone()));
                let cnt = slot(&mut partials, AggFunc::Count(e.clone()));
                user_aggs.push(UserAgg::Avg { sum, cnt });
            }
            AggFunc::CountDistinct(_) => {
                return Err("count(distinct) deduplicates across cluster keys".into())
            }
            AggFunc::Min(_) | AggFunc::Max(_) => {
                return Err("min/max are not invertible under re-cleansing deletions".into())
            }
        }
    }
    // Hidden liveness counter: a group leaves the result exactly when its
    // input-row count reaches zero.
    slot(&mut partials, AggFunc::CountStar);

    let agg_schema = agg_node
        .schema(catalog)
        .map_err(|e| format!("aggregate schema unavailable: {e}"))?;
    Ok(AggSpec {
        input: input.clone(),
        group_by: group_by.to_vec(),
        partials,
        user_aggs,
        project,
        agg_schema,
    })
}

/// The partial aggregate over `spec`: group keys plus one integer partial
/// per accumulator slot.
pub fn partial_plan(spec: &AggSpec) -> LogicalPlan {
    LogicalPlan::Aggregate {
        input: Box::new(spec.input.clone()),
        group_by: spec.group_by.clone(),
        aggs: spec.partials.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_relational::batch::{schema_ref, Batch};
    use dc_relational::schema::{Field, Schema};
    use dc_relational::sql::plan_sql;
    use dc_relational::table::{Catalog, Table};
    use dc_relational::value::Value;

    fn catalog() -> Catalog {
        let cat = Catalog::new();
        let schema = schema_ref(Schema::new(vec![
            Field::new("epc", DataType::Str),
            Field::new("rtime", DataType::Int),
            Field::new("biz_loc", DataType::Str),
        ]));
        cat.register(Table::new(
            "caser",
            Batch::from_rows(
                schema,
                &[vec![Value::str("e1"), Value::Int(1), Value::str("l1")]],
            )
            .unwrap(),
        ));
        cat
    }

    fn classify_sql(sql: &str) -> Classified {
        let cat = catalog();
        let plan = plan_sql(sql, &cat).unwrap();
        classify(&plan, &cat, "caser", "epc")
    }

    #[test]
    fn filter_project_is_scoped() {
        let c = classify_sql("SELECT epc, rtime FROM caser WHERE rtime > 5");
        assert!(matches!(c, Classified::Scoped), "{c:?}");
    }

    #[test]
    fn ckey_grouped_aggregate_is_scoped() {
        let c = classify_sql("SELECT epc, count(*) FROM caser GROUP BY epc");
        assert!(matches!(c, Classified::Scoped), "{c:?}");
    }

    #[test]
    fn order_by_limit_is_ordered_with_fetch() {
        let c = classify_sql("SELECT epc, rtime FROM caser ORDER BY rtime DESC LIMIT 5");
        match c {
            Classified::Ordered { fetch, keys, .. } => {
                assert_eq!(fetch, Some(5));
                assert_eq!(keys.len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn global_count_sum_avg_is_aggregate() {
        let c = classify_sql("SELECT count(*), sum(rtime), avg(rtime) FROM caser");
        match c {
            Classified::Aggregate(spec) => {
                // count(*) + (sum,count) + (sum,count) + hidden liveness.
                assert_eq!(spec.partials.len(), 6);
                assert_eq!(spec.user_aggs.len(), 3);
                assert!(spec.group_by.is_empty());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn non_ckey_grouped_aggregate_is_aggregate() {
        let c = classify_sql("SELECT biz_loc, count(*) FROM caser GROUP BY biz_loc");
        assert!(matches!(c, Classified::Aggregate(_)), "{c:?}");
    }

    #[test]
    fn distinct_min_max_fall_back() {
        assert!(matches!(
            classify_sql("SELECT DISTINCT biz_loc FROM caser"),
            Classified::Fallback { .. }
        ));
        assert!(matches!(
            classify_sql("SELECT min(rtime) FROM caser"),
            Classified::Fallback { .. }
        ));
        assert!(matches!(
            classify_sql("SELECT count(distinct biz_loc) FROM caser"),
            Classified::Fallback { .. }
        ));
    }

    #[test]
    fn constant_query_falls_back() {
        let cat = catalog();
        let plan = plan_sql("SELECT biz_loc FROM caser", &cat).unwrap();
        // A plan over a *different* table never matches the reads table.
        let c = classify(&plan, &cat, "other", "epc");
        assert!(matches!(c, Classified::Fallback { .. }), "{c:?}");
    }
}
