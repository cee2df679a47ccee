//! Scatter-gather plan decomposition for a ckey-sharded catalog.
//!
//! Deferred cleansing partitions every rule by the cluster key, so a
//! catalog hashed on `ckey` makes cleansing embarrassingly parallel: no EPC
//! sequence ever spans two shards. This module is the relational half of
//! that architecture — given the coordinator's already-rewritten plan, it
//! decides how to run it across N shard catalogs:
//!
//! * [`split_scatter`] decomposes a plan into the plans every shard executes
//!   locally plus a *gather plan*: an ordinary [`LogicalPlan`] over
//!   transient partials tables — [`PARTIALS`] for the first shard plan,
//!   `__scatter_partials__1`, `__scatter_partials__2`, … for the next —
//!   each holding one shard plan's outputs concatenated in shard order;
//! * [`gather`] registers those tables over the coordinator's catalog and
//!   runs the gather plan through the one [`Executor`], under the query's
//!   budget. A `Sort` merges the shards' sorted outputs (the run-aware sort
//!   finds them as runs), an `Aggregate` combines count/sum/min/max
//!   partials (a `Project` above it divides each AVG's sum by its count), a
//!   `Distinct` removes cross-shard duplicates, and a `Limit` applies the
//!   final LIMIT. The gather plan's operators count their own work; a
//!   `GatherExec` node above them carries `shard_rows_merged`.
//!
//! Every plan that reads a partitioned table scatters. A subplan fans out
//! whole only when every window partition, join group, aggregate group, and
//! distinct row is provably local to one shard (it mentions the shard key,
//! or touches only replicated dimension tables); aggregates and DISTINCTs
//! over such a subplan lower to partials. An operator with no shard-side
//! form (`count(distinct)` over non-key groups, a non-key window or join of
//! two partitioned inputs, an interior LIMIT, a union with a replicated
//! arm) stays in the gather plan, and each of its inputs that reads a
//! partitioned table is cut again: the cut ships the input's rows under
//! their own schema, so the operator above resolves exactly as before.
//! Replicated scans left in the gather plan read the coordinator's copy. A
//! plan touching only replicated tables is [`ScatterPlan::SingleShard`]:
//! any one shard has the full answer.
//!
//! [`pinned_keys`] finds the plans that need fewer shards than that: a user
//! plan whose every partitioned scan is restricted to cluster-key values K
//! reads only rows the shards owning K hold. When its rewritten plan also
//! runs whole on every shard (`reuses_plan`), the caller runs it on those
//! shards alone — on one shard, with no gather at all.
//!
//! Row-order contract: fan-out concatenates shard outputs in shard order,
//! so queries without ORDER BY come back in a different (equally valid)
//! row order than an unsharded run; under ORDER BY the stable sort
//! reproduces the exact global ordering (ties within one shard keep their
//! shard-local order, and ties on the cluster key never span shards).
//! Floating-point SUM/AVG partials are combined shard-major, which is
//! exact for integer-valued inputs and associative-up-to-rounding
//! otherwise.

use crate::agg::{AggExpr, AggFunc};
use crate::batch::Batch;
use crate::error::Result;
use crate::exec::{ExecStats, Executor};
use crate::expr::{BinaryOp, ColumnRef, Expr};
use crate::join::JoinType;
use crate::physical::{ExecOptions, OperatorMetrics, QueryBudget};
use crate::plan::LogicalPlan;
use crate::table::{Catalog, Table};
use crate::value::{DataType, Value};
use std::collections::{BTreeSet, HashSet};
use std::time::Instant;

/// The transient table every gather plan scans: the outputs of the first
/// shard plan, concatenated in shard order. Later shard plans' outputs
/// land in the same name suffixed with their index.
pub const PARTIALS: &str = "__scatter_partials__";

/// The partials table holding the outputs of shard plan `i`.
fn partials_table(i: usize) -> String {
    if i == 0 {
        PARTIALS.to_string()
    } else {
        format!("{PARTIALS}{i}")
    }
}

/// How the catalog is sharded: the cluster-key column and the set of
/// tables partitioned on it (all other tables are replicated to every
/// shard). An empty set — what a one-shard service uses — makes every plan
/// [`ScatterPlan::SingleShard`].
#[derive(Debug, Clone)]
pub struct ShardingSpec {
    /// Unqualified shard-key column name (the rules' cluster key).
    pub key: String,
    /// Tables partitioned by `key`; everything else is replicated.
    pub partitioned: BTreeSet<String>,
}

/// The decomposition of one query over a sharded catalog.
#[derive(Debug, Clone, PartialEq)]
pub enum ScatterPlan {
    /// The plan touches no partitioned table — every shard holds the full
    /// (replicated) inputs, so any single shard produces the complete
    /// answer.
    SingleShard,
    /// Fan `shard_plans` out to every shard, then run `gather` over the
    /// collected partials.
    Scatter {
        /// The plans each shard executes against its local catalog, in
        /// order; plan `i`'s outputs become partials table `i`.
        shard_plans: Vec<LogicalPlan>,
        /// The coordinator's merge: a plan over the partials tables (`None`
        /// = plain concatenation of the one shard plan's outputs).
        gather: Option<Box<LogicalPlan>>,
        /// The one shard plan is byte-identical to the coordinator's
        /// rewritten plan, so shard executors may reuse its cached
        /// execution path.
        reuses_plan: bool,
    },
}

/// Decompose `plan` for execution over a catalog sharded per `spec`.
pub fn split_scatter(plan: &LogicalPlan, spec: &ShardingSpec) -> ScatterPlan {
    if !touches_partitioned(plan, spec) {
        return ScatterPlan::SingleShard;
    }
    let mut shard_plans = Vec::new();
    let gather = match split_top(plan, spec, PARTIALS) {
        Some((shard_plan, gather)) => {
            shard_plans.push(shard_plan);
            gather
        }
        None => Some(cut_inputs(plan.clone(), spec, &mut shard_plans)),
    };
    let reuses_plan = matches!(&shard_plans[..], [only] if only == plan);
    ScatterPlan::Scatter {
        shard_plans,
        gather: gather.map(Box::new),
        reuses_plan,
    }
}

/// The gather-side form of `plan`, an input of an operator that has no
/// shard-side form. A subtree reading no partitioned table stays as it is
/// (replicated tables are whole in the coordinator's catalog). One that
/// [`split_top`] decomposes adds its shard plan to `shard_plans` and leaves
/// its gather fragment over the next partials table; when `ordered` (the
/// operator above reads its input's order) a concatenation there is
/// merge-sorted back into the subtree's output order. Any other node
/// stays, over the cuts of its inputs.
fn cut(
    plan: LogicalPlan,
    spec: &ShardingSpec,
    shard_plans: &mut Vec<LogicalPlan>,
    ordered: bool,
) -> LogicalPlan {
    if !touches_partitioned(&plan, spec) {
        return plan;
    }
    let partials = partials_table(shard_plans.len());
    match split_top(&plan, spec, &partials) {
        Some((shard_plan, gather)) => {
            shard_plans.push(shard_plan);
            gather.unwrap_or_else(|| {
                let scan = LogicalPlan::scan(partials);
                let ordering = plan.output_ordering();
                if ordered && !ordering.is_empty() {
                    scan.sort(ordering)
                } else {
                    scan
                }
            })
        }
        None => cut_inputs(plan, spec, shard_plans),
    }
}

/// Keep `plan` in the gather plan, over the cuts of its inputs. An
/// aggregate, a union and a window that sorts for itself neither rely on
/// their input's order nor pass it up; every other operator that can sit
/// above a cut does (a presorted window, or a sort the optimizer dropped
/// above it).
fn cut_inputs(
    plan: LogicalPlan,
    spec: &ShardingSpec,
    shard_plans: &mut Vec<LogicalPlan>,
) -> LogicalPlan {
    let ordered = !matches!(
        plan,
        LogicalPlan::Aggregate { .. }
            | LogicalPlan::Union { .. }
            | LogicalPlan::Window {
                presorted: false,
                ..
            }
    );
    plan.map_inputs(|input| cut(input, spec, shard_plans, ordered))
}

/// Does any scan under `plan` read a partitioned table?
fn touches_partitioned(plan: &LogicalPlan, spec: &ShardingSpec) -> bool {
    match plan {
        LogicalPlan::Scan { table, .. } => spec.partitioned.contains(table),
        _ => plan
            .inputs()
            .into_iter()
            .any(|p| touches_partitioned(p, spec)),
    }
}

/// Is `e` a bare reference to the shard-key column (any qualifier)?
fn is_key_column(e: &Expr, key: &str) -> bool {
    matches!(e, Expr::Column(c) if c.name == key)
}

/// Can `plan` run unchanged on every shard with plain concatenation as the
/// gather — i.e. is every group/partition/join-match provably shard-local?
fn shardable(plan: &LogicalPlan, spec: &ShardingSpec) -> bool {
    match plan {
        LogicalPlan::Scan { .. } => true,
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::SubqueryAlias { input, .. } => shardable(input, spec),
        LogicalPlan::Window {
            input,
            partition_by,
            ..
        } => partition_by.iter().any(|e| is_key_column(e, &spec.key)) && shardable(input, spec),
        LogicalPlan::Join {
            left,
            right,
            left_keys,
            right_keys,
            ..
        } => {
            if !shardable(left, spec) || !shardable(right, spec) {
                return false;
            }
            // A side without partitioned tables is fully replicated on
            // every shard, so any join against it is shard-local. When
            // both sides are partitioned the equi-keys must include the
            // shard key (co-partitioned join).
            if !(touches_partitioned(left, spec) && touches_partitioned(right, spec)) {
                return true;
            }
            left_keys
                .iter()
                .zip(right_keys)
                .any(|(l, r)| is_key_column(l, &spec.key) && is_key_column(r, &spec.key))
        }
        LogicalPlan::Aggregate {
            input, group_by, ..
        } => group_by.iter().any(|(e, _)| is_key_column(e, &spec.key)) && shardable(input, spec),
        LogicalPlan::Distinct { input } => {
            // Identical rows agree on every column; if the shard key is
            // among them, duplicates can never span shards.
            distinct_keeps_key(input, &spec.key) && shardable(input, spec)
        }
        LogicalPlan::Union { inputs } => inputs
            .iter()
            .all(|p| touches_partitioned(p, spec) && shardable(p, spec)),
        // First-n-rows of a global order cannot be computed per shard.
        LogicalPlan::Limit { .. } => false,
    }
}

/// Best-effort check that `input`'s output rows still carry the shard-key
/// column (so whole-row DISTINCT groups are shard-local).
fn distinct_keeps_key(input: &LogicalPlan, key: &str) -> bool {
    match input {
        LogicalPlan::Project { exprs, .. } => exprs.iter().any(|(e, _)| is_key_column(e, key)),
        LogicalPlan::Aggregate { group_by, .. } => {
            group_by.iter().any(|(e, _)| is_key_column(e, key))
        }
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. }
        | LogicalPlan::Distinct { input }
        | LogicalPlan::SubqueryAlias { input, .. } => distinct_keeps_key(input, key),
        // Scans/joins/windows keep all input columns (windows append).
        LogicalPlan::Scan { .. } | LogicalPlan::Join { .. } | LogicalPlan::Window { .. } => true,
        LogicalPlan::Union { inputs } => inputs.iter().all(|p| distinct_keeps_key(p, key)),
    }
}

/// A column of the gather input, addressed by its bare name.
fn partial_col(name: &str) -> Expr {
    Expr::Column(ColumnRef {
        qualifier: None,
        name: name.to_ascii_lowercase(),
    })
}

/// Lower `aggs` to shard-side partial aggregates plus the gather plan that
/// rebuilds each output column from them: counts and sums are summed, MIN
/// and MAX re-taken, and AVG becomes `sum / count` of its partial pair
/// (`Divide` yields a Double, and NULL on a zero count). `None` for
/// `count(distinct)`, which has no partial form, and when two output names
/// coincide or carry a qualifier dot — the gather addresses every partial
/// column by its bare name and re-emits it under that name.
fn lower_partials(
    group_by: &[(Expr, String)],
    aggs: &[AggExpr],
    partials_name: &str,
) -> Option<(Vec<AggExpr>, LogicalPlan)> {
    let group_keys: Vec<(Expr, String)> = group_by
        .iter()
        .map(|(_, alias)| (partial_col(alias), alias.clone()))
        .collect();
    let mut outputs = group_keys.clone();
    let mut partials = Vec::new();
    let mut merges = Vec::new();
    let mut remerge = |func: fn(Expr) -> AggFunc, alias: &str| {
        merges.push(AggExpr {
            func: func(partial_col(alias)),
            alias: alias.to_string(),
        });
        partial_col(alias)
    };
    for a in aggs {
        let out = match &a.func {
            AggFunc::CountStar | AggFunc::Count(_) | AggFunc::Sum(_) => {
                partials.push(a.clone());
                remerge(AggFunc::Sum, &a.alias)
            }
            AggFunc::Min(_) => {
                partials.push(a.clone());
                remerge(AggFunc::Min, &a.alias)
            }
            AggFunc::Max(_) => {
                partials.push(a.clone());
                remerge(AggFunc::Max, &a.alias)
            }
            AggFunc::Avg(e) => {
                let (sum, cnt) = (
                    format!("__shard_sum_{}", a.alias),
                    format!("__shard_cnt_{}", a.alias),
                );
                partials.push(AggExpr {
                    func: AggFunc::Sum(e.clone()),
                    alias: sum.clone(),
                });
                partials.push(AggExpr {
                    func: AggFunc::Count(e.clone()),
                    alias: cnt.clone(),
                });
                Expr::binary(
                    remerge(AggFunc::Sum, &sum),
                    BinaryOp::Divide,
                    remerge(AggFunc::Sum, &cnt),
                )
            }
            AggFunc::CountDistinct(_) => return None,
        };
        outputs.push((out, a.alias.clone()));
    }
    let mut names = BTreeSet::new();
    let addressable = group_by
        .iter()
        .map(|(_, alias)| alias)
        .chain(partials.iter().map(|a| &a.alias))
        .all(|n| !n.contains('.') && names.insert(n.to_ascii_lowercase()));
    if !addressable {
        return None;
    }
    let gather = LogicalPlan::scan(partials_name).aggregate(group_keys, merges);
    // Only an AVG needs a step after the aggregate.
    if aggs.iter().any(|a| matches!(a.func, AggFunc::Avg(_))) {
        Some((partials, gather.project(outputs)))
    } else {
        Some((partials, gather))
    }
}

/// Does `gather` deliver final rows in final order, so a LIMIT above it may
/// also cut every shard's output? True for concatenation, a merge of the
/// shards' sorted outputs (a sort directly over the partials), projections
/// and limits; false once partial rows are combined (re-aggregation,
/// cross-shard DISTINCT) or re-sorted after that.
fn gathers_final_rows(gather: &LogicalPlan) -> bool {
    match gather {
        LogicalPlan::Scan { .. } => true,
        LogicalPlan::Sort { input, .. } => matches!(**input, LogicalPlan::Scan { .. }),
        LogicalPlan::Project { input, .. } | LogicalPlan::Limit { input, .. } => {
            gathers_final_rows(input)
        }
        _ => false,
    }
}

/// Top-down decomposition of the gather-relevant plan prefix: the shard
/// plan, and the gather plan over its outputs, read as the table named
/// `partials_name` (`None` = concatenation).
fn split_top(
    plan: &LogicalPlan,
    spec: &ShardingSpec,
    partials_name: &str,
) -> Option<(LogicalPlan, Option<LogicalPlan>)> {
    let partials = || LogicalPlan::scan(partials_name);
    match plan {
        LogicalPlan::Limit { input, fetch } => {
            let (sp, gather) = split_top(input, spec, partials_name)?;
            // Limit pushes into the shards only while every gathered row is
            // a final row; partial rows must stay unlimited.
            let sp = if gather.as_ref().is_none_or(gathers_final_rows) {
                sp.limit(*fetch)
            } else {
                sp
            };
            Some((sp, Some(gather.unwrap_or_else(partials).limit(*fetch))))
        }
        LogicalPlan::Sort { input, keys } => match split_top(input, spec, partials_name)? {
            // Shards deliver sorted outputs; the stable run-aware sort
            // merges them into the exact global order.
            (sp, None) => Some((sp.sort(keys.clone()), Some(partials().sort(keys.clone())))),
            // The sort consumed partial rows; re-sort after merging.
            (sp, Some(gather)) => Some((sp, Some(gather.sort(keys.clone())))),
        },
        LogicalPlan::Project { input, exprs } => match split_top(input, spec, partials_name)? {
            // The whole subtree fans out; keep the projection on the shard
            // side so partials are already final rows.
            (sp, None) => Some((sp.project(exprs.clone()), None)),
            // The projection consumes coordinator-merged rows.
            (sp, Some(gather)) => Some((sp, Some(gather.project(exprs.clone())))),
        },
        _ if shardable(plan, spec) => Some((plan.clone(), None)),
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } if shardable(input, spec) => {
            let (partial_aggs, gather) = lower_partials(group_by, aggs, partials_name)?;
            let shard_plan = LogicalPlan::Aggregate {
                input: input.clone(),
                group_by: group_by.clone(),
                aggs: partial_aggs,
            };
            Some((shard_plan, Some(gather)))
        }
        LogicalPlan::Distinct { input } if shardable(input, spec) => Some((
            LogicalPlan::Distinct {
                input: input.clone(),
            },
            Some(partials().distinct()),
        )),
        _ => None,
    }
}

/// Merge the shard outputs: `parts[i]` holds shard plan `i`'s outputs in
/// shard order. With a gather plan each list is concatenated and
/// registered as partials table `i` in an overlay of `base` — the
/// coordinator's catalog, where replicated scans left in the gather plan
/// resolve — and the plan runs through [`Executor`] under `budget`.
/// Without one the single list is concatenated and nothing else runs.
///
/// Returns the rows and a `GatherExec` metrics node: its own stats carry
/// `shard_rows_merged`, its wall-clock covers the merge, and the gather
/// plan's operator tree is its child. The caller appends the shard side
/// (and adds its wall-clock).
pub fn gather(
    parts: &[Vec<Batch>],
    plan: Option<&LogicalPlan>,
    base: &Catalog,
    options: ExecOptions,
    budget: QueryBudget,
) -> Result<(Batch, OperatorMetrics)> {
    let start = Instant::now();
    let shards = parts.first().map_or(0, Vec::len);
    let rows_merged: u64 = parts.iter().flatten().map(|b| b.num_rows() as u64).sum();
    let (batch, children) = match plan {
        None => (Batch::concat(&parts.concat())?, Vec::new()),
        Some(plan) => {
            let catalog = base.overlay();
            for (i, outputs) in parts.iter().enumerate() {
                catalog.register(Table::new(partials_table(i), Batch::concat(outputs)?));
            }
            let mut ex = Executor::with_budget(&catalog, options, budget);
            let batch = ex.execute(plan)?;
            (batch, ex.metrics.into_iter().collect())
        }
    };
    let node = OperatorMetrics {
        name: "GatherExec".to_string(),
        label: format!("GatherExec: {shards} shards rows_merged={rows_merged}"),
        rows_in: rows_merged,
        rows_out: batch.num_rows() as u64,
        stats: ExecStats {
            shard_rows_merged: rows_merged,
            ..ExecStats::default()
        },
        wall_nanos: start.elapsed().as_nanos() as u64,
        children,
        ..OperatorMetrics::default()
    };
    Ok((batch, node))
}

/// The cluster-key values `plan` is pinned to: `Some(K)` when every scan of
/// a partitioned table is restricted to rows whose key is in K, so the
/// shards owning K hold every row the plan can read. `plan` is the user
/// plan. The caller checks that cleansing commutes with σ_{key∈K}: no rule
/// rewrites the key, and the rewritten plan is shard-local
/// ([`ScatterPlan::Scatter`] with `reuses_plan`), so no rule clusters by
/// another column or reads another shard's rows.
///
/// A scan is pinned by a conjunct `key = lit`, `lit = key` or
/// `key IN (lits)` naming the key under the scan's alias, in its pushed
/// filter or in a `Filter` above it reached only through operators the
/// selection commutes with: `Filter`, a `Project` that passes the column
/// through, `Sort`, `SubqueryAlias` and an inner `Join`. Every other
/// operator (`Limit`, `Aggregate`, `Distinct`, `Window`, `Union`, a semi
/// join) stops what is above it from reaching its inputs. A literal pins
/// only when it is non-null and of the key column's catalog type (the
/// partitioner hashes type-tagged bytes, so `'5'` and `5` land apart), and
/// never for a `Double` key (`0.0 = -0.0` while their bits differ). A scan
/// pinned by several conjuncts takes the shortest list. `None` when some
/// partitioned scan is not pinned or none is read.
pub fn pinned_keys(
    plan: &LogicalPlan,
    spec: &ShardingSpec,
    catalog: &Catalog,
) -> Option<Vec<Value>> {
    let mut keys = Vec::new();
    pin_scans(plan, Vec::new(), spec, catalog, &mut keys)?;
    let mut seen = HashSet::new();
    keys.retain(|k| seen.insert(k.clone()));
    (!keys.is_empty()).then_some(keys)
}

/// A `column = literal` or `column IN (literals)` conjunct, its column
/// named as the node the walk has reached sees it.
#[derive(Clone)]
struct Pin {
    col: ColumnRef,
    values: Vec<Value>,
}

impl Pin {
    /// Does the pin's column resolve to `field`, as a schema resolves it:
    /// an unqualified pin matches any qualifier.
    fn names(&self, field: &ColumnRef) -> bool {
        let qualified =
            |q: &str| (field.qualifier.as_deref()).is_some_and(|fq| fq.eq_ignore_ascii_case(q));
        self.col.name.eq_ignore_ascii_case(&field.name)
            && self.col.qualifier.as_deref().is_none_or(qualified)
    }
}

/// Add the pin-shaped conjuncts of `predicate` to `pins`.
fn collect_pins(predicate: &Expr, pins: &mut Vec<Pin>) {
    match predicate {
        Expr::Binary {
            left,
            op: BinaryOp::And,
            right,
        } => {
            collect_pins(left, pins);
            collect_pins(right, pins);
        }
        Expr::Binary {
            left,
            op: BinaryOp::Eq,
            right,
        } => {
            if let (Expr::Column(c), Expr::Literal(v)) | (Expr::Literal(v), Expr::Column(c)) =
                (left.as_ref(), right.as_ref())
            {
                pins.push(Pin {
                    col: c.clone(),
                    values: vec![v.clone()],
                });
            }
        }
        Expr::InList {
            expr,
            list,
            negated: false,
        } => {
            if let Expr::Column(c) = expr.as_ref() {
                pins.push(Pin {
                    col: c.clone(),
                    values: list.clone(),
                });
            }
        }
        _ => {}
    }
}

/// Walk `plan` with the `pins` that reach it from above, adding each
/// partitioned scan's keys to `keys`; `None` at the first unpinned one.
fn pin_scans(
    plan: &LogicalPlan,
    mut pins: Vec<Pin>,
    spec: &ShardingSpec,
    catalog: &Catalog,
    keys: &mut Vec<Value>,
) -> Option<()> {
    match plan {
        LogicalPlan::Scan {
            table,
            alias,
            filter,
        } => {
            if !spec.partitioned.contains(table) {
                return Some(());
            }
            if let Some(f) = filter {
                collect_pins(f, &mut pins);
            }
            let t = catalog.get(table).ok()?;
            let ty = t
                .schema()
                .field(t.schema().index_of_name(&spec.key).ok()?)
                .data_type;
            let routable = |v: &Value| ty != DataType::Double && v.data_type() == Some(ty);
            let key = ColumnRef {
                qualifier: alias.clone(),
                name: spec.key.clone(),
            };
            let best = pins
                .into_iter()
                .filter(|p| p.names(&key) && p.values.iter().all(routable))
                .min_by_key(|p| p.values.len())?;
            keys.extend(best.values);
            Some(())
        }
        LogicalPlan::Filter { input, predicate } => {
            collect_pins(predicate, &mut pins);
            pin_scans(input, pins, spec, catalog, keys)
        }
        LogicalPlan::Sort { input, .. } => pin_scans(input, pins, spec, catalog, keys),
        LogicalPlan::Project { input, exprs } => {
            // A pin passes when exactly one output column resolves it and
            // that column is a bare input column.
            let through = pins
                .iter()
                .filter_map(|p| {
                    let mut hits = exprs
                        .iter()
                        .filter(|(_, alias)| p.names(&ColumnRef::new(alias.as_str())));
                    match (hits.next(), hits.next()) {
                        (Some((Expr::Column(c), _)), None) => Some(Pin {
                            col: c.clone(),
                            values: p.values.clone(),
                        }),
                        _ => None,
                    }
                })
                .collect();
            pin_scans(input, through, spec, catalog, keys)
        }
        LogicalPlan::SubqueryAlias { input, alias } => {
            // Every output column carries `alias`; below it the column is
            // the input's one field of that name.
            let through = pins
                .into_iter()
                .filter(|p| {
                    (p.col.qualifier.as_deref()).is_none_or(|q| q.eq_ignore_ascii_case(alias))
                })
                .map(|p| Pin {
                    col: ColumnRef::new(p.col.name),
                    values: p.values,
                })
                .collect();
            pin_scans(input, through, spec, catalog, keys)
        }
        LogicalPlan::Join {
            left,
            right,
            join_type: JoinType::Inner,
            ..
        } => {
            pin_scans(left, pins.clone(), spec, catalog, keys)?;
            pin_scans(right, pins, spec, catalog, keys)
        }
        _ => plan
            .inputs()
            .into_iter()
            .try_for_each(|input| pin_scans(input, Vec::new(), spec, catalog, keys)),
    }
}

/// Build the sharding spec for `catalog`: every table carrying the `key`
/// column is partitioned, everything else is replicated.
pub fn sharding_spec_for(catalog: &Catalog, key: &str) -> ShardingSpec {
    let mut partitioned = BTreeSet::new();
    for name in catalog.table_names() {
        if let Ok(t) = catalog.get(&name) {
            if t.schema().index_of_name(key).is_ok() {
                partitioned.insert(name);
            }
        }
    }
    ShardingSpec {
        key: key.to_string(),
        partitioned,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::schema_ref;
    use crate::error::{AbortReason, Error};
    use crate::schema::{Field, Schema};
    use crate::sort::SortKey;
    use crate::sql::plan_sql;
    use crate::value::{DataType, Value};

    fn catalog() -> Catalog {
        let schema = schema_ref(Schema::new(vec![
            Field::new("epc", DataType::Str),
            Field::new("rtime", DataType::Int),
            Field::new("w", DataType::Double),
            Field::new("g", DataType::Str),
            Field::new("v", DataType::Int),
        ]));
        // `v` is NULL on every row of group `g0`.
        let rows: Vec<Vec<Value>> = (0..40)
            .map(|i| {
                vec![
                    Value::str(format!("e{}", i % 7)),
                    Value::Int((i * 13) % 29),
                    Value::Double((i % 5) as f64),
                    Value::str(format!("g{}", i % 4)),
                    if i % 4 == 0 {
                        Value::Null
                    } else {
                        Value::Int(i * 3)
                    },
                ]
            })
            .collect();
        let catalog = Catalog::new();
        catalog.register(Table::new(
            "caser",
            Batch::from_rows(schema, &rows).unwrap(),
        ));
        // Replicated: every shard, and the coordinator, hold all of it.
        let dim = schema_ref(Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("name", DataType::Str),
        ]));
        let dims: Vec<Vec<Value>> = (0..20)
            .map(|k| vec![Value::Int(k), Value::str(format!("d{}", k % 3))])
            .collect();
        catalog.register(Table::new("dim", Batch::from_rows(dim, &dims).unwrap()));
        catalog
    }

    fn spec() -> ShardingSpec {
        ShardingSpec {
            key: "epc".into(),
            partitioned: BTreeSet::from(["caser".to_string()]),
        }
    }

    /// [`plan_oracle`] for the optimized plan of `sql`.
    fn scatter_oracle(sql: &str, n: usize, exact_order: bool) {
        let cat = catalog();
        plan_oracle(&cat, &plan_sql(sql, &cat).unwrap(), n, exact_order);
    }

    /// Partition rows by cluster key into `n` parts (order-preserving
    /// within a part — the invariant the shard router maintains), run every
    /// shard plan on each part, and gather over the unsharded catalog's
    /// replicated tables — the unsharded run is the oracle (canonical row
    /// order unless the gather ends sorted).
    fn plan_oracle(cat: &Catalog, plan: &LogicalPlan, n: usize, exact_order: bool) {
        let split = split_scatter(plan, &spec());
        let ScatterPlan::Scatter {
            shard_plans,
            gather: gather_plan,
            ..
        } = &split
        else {
            panic!("expected a scatter decomposition for {plan:?}, got {split:?}");
        };

        let base = cat.get("caser").unwrap();
        let key_col = base.schema().index_of_name("epc").unwrap();
        let shard_of = |i: usize| -> usize {
            let v = base.data().column(key_col).value(i).to_string();
            v.bytes().fold(0usize, |h, b| h.wrapping_add(b as usize)) % n
        };
        let shard_cats: Vec<Catalog> = (0..n)
            .map(|s| {
                let idx: Vec<usize> = (0..base.num_rows()).filter(|&i| shard_of(i) == s).collect();
                let shard_cat = cat.overlay();
                shard_cat.register(Table::new("caser", base.data().take(&idx)));
                shard_cat
            })
            .collect();
        let parts: Vec<Vec<Batch>> = shard_plans
            .iter()
            .map(|p| {
                let run = |c: &Catalog| crate::exec::Executor::new(c).execute(p).unwrap();
                shard_cats.iter().map(run).collect()
            })
            .collect();
        let (got, node) = gather(
            &parts,
            gather_plan.as_deref(),
            cat,
            ExecOptions::default(),
            QueryBudget::unlimited(),
        )
        .unwrap();
        assert_eq!(
            node.stats.shard_rows_merged,
            parts
                .iter()
                .flatten()
                .map(|b| b.num_rows() as u64)
                .sum::<u64>()
        );
        assert_eq!(node.children.len(), usize::from(gather_plan.is_some()));

        let want = crate::exec::Executor::new(cat).execute(plan).unwrap();
        let ctx = format!("{} with {n} shards", plan.display_indent());
        assert_eq!(got.schema(), want.schema(), "{ctx}");
        if exact_order {
            let rows = |b: &Batch| (0..b.num_rows()).map(|i| b.row(i)).collect::<Vec<_>>();
            assert_eq!(rows(&got), rows(&want), "{ctx}");
        } else {
            assert_eq!(got.sorted_rows(), want.sorted_rows(), "{ctx}");
        }
    }

    /// The shard plans and gather plan of a query that scatters.
    fn split_sql(sql: &str) -> (Vec<LogicalPlan>, Option<Box<LogicalPlan>>) {
        let cat = catalog();
        match split_scatter(&plan_sql(sql, &cat).unwrap(), &spec()) {
            ScatterPlan::Scatter {
                shard_plans,
                gather,
                ..
            } => (shard_plans, gather),
            other => panic!("expected scatter for {sql}, got {other:?}"),
        }
    }

    #[test]
    fn plain_scan_concats() {
        scatter_oracle("select epc, rtime from caser where rtime < 20", 3, false);
    }

    #[test]
    fn order_by_merges_to_exact_global_order() {
        scatter_oracle("select epc, rtime from caser order by epc, rtime", 4, true);
    }

    #[test]
    fn key_grouped_aggregate_is_shard_complete() {
        // Groups on the cluster key never span shards: the whole aggregate
        // runs shard-side and the gather is plain concatenation.
        let cat = catalog();
        let sql = "select epc, count(*) as n, sum(rtime) as s, avg(rtime) as a, \
                   min(rtime) as lo, max(rtime) as hi from caser group by epc";
        let plan = plan_sql(sql, &cat).unwrap();
        match split_scatter(&plan, &spec()) {
            ScatterPlan::Scatter {
                gather,
                reuses_plan,
                ..
            } => {
                assert!(gather.is_none(), "expected concat gather, got {gather:?}");
                assert!(reuses_plan);
            }
            other => panic!("expected scatter, got {other:?}"),
        }
        for n in [1, 2, 4] {
            scatter_oracle(sql, n, false);
        }
    }

    #[test]
    fn non_key_groups_lower_to_partials() {
        // Groups on a non-key column span shards: the shards compute
        // partial count/sum/avg/min/max and the coordinator re-aggregates.
        let cat = catalog();
        let sql = "select rtime, count(*) as n, sum(rtime) as s, avg(rtime) as a, \
                   min(epc) as lo, max(epc) as hi from caser group by rtime";
        let plan = plan_sql(sql, &cat).unwrap();
        match split_scatter(&plan, &spec()) {
            ScatterPlan::Scatter {
                gather: Some(gather),
                ..
            } => {
                let text = gather.display_indent();
                assert!(
                    text.contains("Aggregate group=[rtime AS rtime]"),
                    "expected a re-aggregation gather, got {text}"
                );
            }
            other => panic!("expected scatter, got {other:?}"),
        }
        for n in [1, 2, 4] {
            scatter_oracle(sql, n, false);
        }
    }

    #[test]
    fn global_aggregate_over_doubles() {
        scatter_oracle(
            "select count(*) as n, sum(w) as s, avg(w) as a from caser",
            2,
            false,
        );
    }

    #[test]
    fn aggregate_then_order_by_sorts_after_merge() {
        // Non-key groups + ORDER BY: the shard-side sort is subsumed by
        // re-aggregation, so the coordinator sorts after the merge.
        scatter_oracle(
            "select rtime, count(*) as n from caser group by rtime order by rtime, n",
            3,
            true,
        );
    }

    #[test]
    fn cross_shard_distinct_on_a_non_key_column() {
        for n in [2, 3] {
            scatter_oracle("select distinct rtime from caser", n, false);
            scatter_oracle(
                "select distinct g, rtime from caser order by g, rtime",
                n,
                true,
            );
        }
    }

    #[test]
    fn aggregate_then_order_by_desc_limit() {
        scatter_oracle(
            "select rtime, count(*) as n from caser group by rtime order by n desc, rtime limit 5",
            3,
            true,
        );
    }

    #[test]
    fn avg_over_an_all_null_group_and_over_doubles() {
        for n in [2, 4] {
            scatter_oracle(
                "select g, avg(v) as av, avg(w) as aw, sum(v) as sv, count(v) as cv \
                 from caser group by g",
                n,
                false,
            );
        }
    }

    #[test]
    fn min_max_of_strings_over_non_key_groups() {
        scatter_oracle(
            "select g, min(epc) as lo, max(epc) as hi from caser group by g",
            3,
            false,
        );
    }

    #[test]
    fn global_aggregate_over_an_empty_filter() {
        for n in [1, 3] {
            scatter_oracle(
                "select count(*) as n, sum(rtime) as s, avg(w) as a, min(epc) as lo, \
                 max(v) as hi from caser where rtime < 0",
                n,
                false,
            );
        }
    }

    #[test]
    fn projection_over_a_reaggregate() {
        for filter in ["", " where rtime < 0"] {
            scatter_oracle(
                &format!(
                    "select rtime + 1 as r1, count(*) * 2 as n2, avg(w) / 2 as half, \
                     max(epc) as hi from caser{filter} group by rtime"
                ),
                3,
                false,
            );
        }
    }

    #[test]
    fn order_by_limit_pushes_down() {
        let cat = catalog();
        let plan = plan_sql(
            "select epc, rtime from caser order by epc, rtime limit 5",
            &cat,
        )
        .unwrap();
        let split = split_scatter(&plan, &spec());
        let ScatterPlan::Scatter {
            shard_plans,
            gather,
            ..
        } = &split
        else {
            panic!("expected scatter, got {split:?}");
        };
        assert!(
            matches!(shard_plans[..], [LogicalPlan::Limit { .. }]),
            "limit must push into the shard plan: {shard_plans:?}"
        );
        assert!(
            matches!(gather.as_deref(), Some(LogicalPlan::Limit { fetch: 5, .. })),
            "coordinator applies the final limit: {gather:?}"
        );
        scatter_oracle(
            "select epc, rtime from caser order by epc, rtime limit 5",
            4,
            true,
        );
    }

    /// Two shard outputs of `select epc, rtime from caser order by rtime`:
    /// each sorted on its own, interleaved across shards.
    fn sorted_parts() -> (Vec<Batch>, LogicalPlan) {
        let schema = schema_ref(Schema::new(vec![
            Field::qualified("caser", "epc", DataType::Str),
            Field::new("rtime", DataType::Int),
        ]));
        let part = |rows: &[(&str, i64)]| {
            let rows: Vec<Vec<Value>> = rows
                .iter()
                .map(|(e, t)| vec![Value::str(*e), Value::Int(*t)])
                .collect();
            Batch::from_rows(schema.clone(), &rows).unwrap()
        };
        let parts = vec![
            part(&[("e1", 1), ("e1", 4), ("e3", 9)]),
            part(&[("e2", 2), ("e2", 4), ("e4", 5)]),
        ];
        let plan = LogicalPlan::scan(PARTIALS).sort(vec![SortKey::asc(Expr::col("rtime"))]);
        (parts, plan)
    }

    #[test]
    fn gather_runs_the_plan_under_a_gather_exec_node() {
        let (parts, plan) = sorted_parts();
        let (got, node) = gather(
            std::slice::from_ref(&parts),
            Some(&plan),
            &Catalog::new(),
            ExecOptions::default(),
            QueryBudget::unlimited(),
        )
        .unwrap();
        let times: Vec<Value> = (0..got.num_rows()).map(|i| got.row(i)[1].clone()).collect();
        assert_eq!(times, [1, 2, 4, 4, 5, 9].map(Value::Int));
        // Ties keep shard order: e1's read at 4 precedes e2's.
        assert_eq!(got.row(2)[0], Value::str("e1"));
        assert_eq!(
            got.schema(),
            parts[0].schema(),
            "qualifiers survive the gather"
        );
        assert_eq!(node.label, "GatherExec: 2 shards rows_merged=6");
        assert_eq!((node.rows_in, node.rows_out), (6, 6));
        assert_eq!(node.children.len(), 1);
        assert_eq!(node.children[0].name, "SortExec");
        let total = node.total_stats();
        assert_eq!(total.shard_rows_merged, 6);
        assert_eq!(total.rows_scanned, 6);
        assert_eq!(total.rows_sorted, 6);
        // Concatenation runs no plan and builds no table.
        let (concat, node) = gather(
            &[parts],
            None,
            &Catalog::new(),
            ExecOptions::default(),
            QueryBudget::unlimited(),
        )
        .unwrap();
        assert_eq!(concat.num_rows(), 6);
        assert!(node.children.is_empty());
        assert_eq!(node.total_stats().rows_scanned, 0);
    }

    #[test]
    fn gather_runs_under_the_query_budget() {
        let (parts, plan) = sorted_parts();
        let (parts, base) = ([parts], Catalog::new());
        let run = |budget| gather(&parts, Some(&plan), &base, ExecOptions::default(), budget);
        // The scan and the sort each move all six rows.
        assert!(run(QueryBudget::unlimited().with_row_limit(12)).is_ok());
        assert!(matches!(
            run(QueryBudget::unlimited().with_row_limit(11)),
            Err(Error::Aborted(AbortReason::RowLimitExceeded))
        ));
        let cancelled = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        assert!(matches!(
            run(QueryBudget::unlimited().with_cancel(cancelled)),
            Err(Error::Aborted(AbortReason::Cancelled))
        ));
    }

    #[test]
    fn colliding_partial_names_run_in_the_gather() {
        // The gather addresses partials by bare name, so an aggregate whose
        // output names repeat has no partial form: it runs in the gather
        // plan over the shipped scan.
        let plan = LogicalPlan::scan("caser").aggregate(
            vec![
                (Expr::col("rtime"), "k".into()),
                (Expr::col("g"), "k".into()),
            ],
            vec![AggExpr {
                func: AggFunc::CountStar,
                alias: "n".into(),
            }],
        );
        for n in [2, 3, 4] {
            plan_oracle(&catalog(), &plan, n, false);
        }
    }

    #[test]
    fn replicated_only_plans_run_single_shard() {
        let cat = catalog();
        let plan = plan_sql("select k from dim", &cat).unwrap();
        assert_eq!(split_scatter(&plan, &spec()), ScatterPlan::SingleShard);
    }

    #[test]
    fn count_distinct_over_non_key_groups_runs_in_the_gather() {
        let sql = "select rtime, count(distinct epc) as n from caser group by rtime";
        let (shard_plans, gather) = split_sql(sql);
        assert_eq!(shard_plans.len(), 1);
        let text = gather.expect("a gather plan").display_indent();
        assert!(text.contains("count(distinct epc)"), "{text}");
        assert!(text.contains(&format!("Scan {PARTIALS}")), "{text}");
        for n in [2, 3, 4] {
            scatter_oracle(sql, n, false);
        }
    }

    #[test]
    fn count_distinct_shapes_match_the_unsharded_run() {
        for n in [2, 3, 4] {
            scatter_oracle("select count(distinct epc) as n from caser", n, false);
            scatter_oracle(
                "select g, count(distinct epc) as n from caser group by g order by g",
                n,
                true,
            );
            scatter_oracle(
                "select g, count(distinct v) as dv, count(*) as n, avg(w) as aw \
                 from caser group by g order by g",
                n,
                true,
            );
            // q2's shape: two distinct counts over a join with a
            // replicated dimension, grouped on a dimension column.
            scatter_oracle(
                "select name, count(distinct c.epc) as epcs, count(distinct c.g) as gs \
                 from caser c, dim d where c.rtime = d.k group by name order by name",
                n,
                true,
            );
        }
    }

    #[test]
    fn order_by_a_qualified_group_key_matches_the_unsharded_run() {
        for n in [1, 2] {
            scatter_oracle(
                "select d.name, count(distinct c.epc) as epcs from caser c, dim d \
                 where c.rtime = d.k group by d.name order by d.name",
                n,
                true,
            );
        }
    }

    #[test]
    fn non_key_self_join_ships_both_sides() {
        let sql = "select a.epc, b.epc as other, a.rtime from caser a, caser b \
                   where a.rtime = b.rtime";
        let (shard_plans, gather) = split_sql(sql);
        assert_eq!(shard_plans.len(), 2, "{shard_plans:?}");
        let text = gather.expect("a gather plan").display_indent();
        assert!(text.contains(&format!("Scan {PARTIALS}1")), "{text}");
        for n in [2, 3, 4] {
            scatter_oracle(sql, n, false);
            scatter_oracle(&format!("{sql} order by a.rtime, a.epc, b.epc"), n, true);
        }
    }

    #[test]
    fn non_key_window_runs_in_the_gather() {
        for n in [2, 3, 4] {
            // (g, rtime) is unique, so the running sum is order-exact.
            scatter_oracle(
                "select epc, g, rtime, sum(w) over (partition by g order by rtime \
                 rows between unbounded preceding and current row) as s from caser",
                n,
                false,
            );
        }
    }

    #[test]
    fn presorted_window_over_a_cut_keeps_its_input_order() {
        // The key window sorts by (epc, rtime); the global running sum
        // above it is presorted on that order, so its cut input is
        // merge-sorted back into it at the gather.
        let sql = "select epc, rtime, \
                   max(rtime) over (partition by epc order by rtime \
                   rows between 1 preceding and 1 preceding) as prev, \
                   sum(w) over (order by epc, rtime \
                   rows between unbounded preceding and current row) as s from caser";
        let (_, gather) = split_sql(sql);
        let text = gather.expect("a gather plan").display_indent();
        assert!(text.contains("(order shared)"), "{text}");
        assert!(
            text.contains(&format!("Sort [epc ASC, rtime ASC]\n      Scan {PARTIALS}")),
            "{text}"
        );
        for n in [2, 3, 4] {
            scatter_oracle(sql, n, false);
        }
    }

    #[test]
    fn interior_limit_under_an_aggregate() {
        // `select count(*), sum(rtime), max(epc) from (select … order by
        // rtime, epc limit 7) t`: the first rows of a global order.
        let plan = LogicalPlan::scan("caser")
            .sort(vec![
                SortKey::asc(Expr::col("rtime")),
                SortKey::asc(Expr::col("epc")),
            ])
            .limit(7)
            .aggregate(
                vec![],
                vec![
                    AggExpr {
                        func: AggFunc::CountStar,
                        alias: "n".into(),
                    },
                    AggExpr {
                        func: AggFunc::Sum(Expr::col("rtime")),
                        alias: "s".into(),
                    },
                    AggExpr {
                        func: AggFunc::Max(Expr::col("epc")),
                        alias: "hi".into(),
                    },
                ],
            );
        for n in [2, 3, 4] {
            plan_oracle(&catalog(), &plan, n, false);
        }
    }

    #[test]
    fn union_with_a_replicated_arm() {
        let arm = |table: &str, col: &str| {
            LogicalPlan::scan(table).project(vec![(Expr::col(col), "x".into())])
        };
        let plan = LogicalPlan::Union {
            inputs: vec![arm("caser", "rtime"), arm("dim", "k")],
        };
        for n in [2, 3, 4] {
            plan_oracle(&catalog(), &plan, n, false);
            let sorted = plan.clone().sort(vec![SortKey::asc(Expr::col("x"))]);
            plan_oracle(&catalog(), &sorted, n, true);
        }
    }

    #[test]
    fn key_partitioned_window_is_shardable() {
        let plan = LogicalPlan::Window {
            input: Box::new(LogicalPlan::Scan {
                table: "caser".into(),
                alias: None,
                filter: None,
            }),
            partition_by: vec![Expr::col("epc")],
            order_by: vec![SortKey::asc(Expr::col("rtime"))],
            exprs: vec![],
            presorted: false,
        };
        assert!(shardable(&plan, &spec()));
        let non_key = LogicalPlan::Window {
            input: Box::new(LogicalPlan::Scan {
                table: "caser".into(),
                alias: None,
                filter: None,
            }),
            partition_by: vec![Expr::col("rtime")],
            order_by: vec![],
            exprs: vec![],
            presorted: false,
        };
        assert!(!shardable(&non_key, &spec()));
    }

    #[test]
    fn sharding_spec_partitions_tables_with_the_key() {
        let cat = catalog();
        let s = sharding_spec_for(&cat, "epc");
        assert!(s.partitioned.contains("caser"));
        assert!(!s.partitioned.contains("dim"));
    }

    /// [`pinned_keys`] of the user plan of `sql` (planned, not optimized,
    /// as the service routes it).
    fn pins_of(sql: &str, spec: &ShardingSpec) -> Option<Vec<Value>> {
        let cat = catalog();
        let plan = crate::sql::plan_query(&crate::sql::parse_query(sql).unwrap(), &cat).unwrap();
        pinned_keys(&plan, spec, &cat)
    }

    #[test]
    fn pinned_keys_follow_the_walk_rules() {
        let keys = |ks: &[&str]| Some(ks.iter().map(Value::str).collect::<Vec<_>>());
        let cases: &[(&str, Option<Vec<Value>>)] = &[
            // The conjunct forms, alone and beside other conjuncts.
            (
                "select epc, rtime from caser where epc = 'e1'",
                keys(&["e1"]),
            ),
            ("select epc from caser where 'e1' = epc", keys(&["e1"])),
            (
                "select epc from caser where epc in ('e1', 'e2')",
                keys(&["e1", "e2"]),
            ),
            (
                "select epc from caser where epc = 'e1' and rtime < 5",
                keys(&["e1"]),
            ),
            // The shortest list of a scan's pins routes it.
            (
                "select epc from caser where epc in ('e1', 'e2', 'e3') and epc = 'e2'",
                keys(&["e2"]),
            ),
            // Not pins: a disjunction, a negation, a non-key column, NULL.
            ("select epc from caser where epc = 'e1' or epc = 'e2'", None),
            ("select epc from caser where epc not in ('e1')", None),
            ("select epc from caser where rtime = 5", None),
            ("select epc from caser where epc in ('e1', null)", None),
            ("select epc from caser", None),
            // Sort, a passing (or renaming) Project and SubqueryAlias carry
            // a pin down; a computed column does not.
            (
                "select epc, rtime from caser where epc = 'e3' order by rtime",
                keys(&["e3"]),
            ),
            (
                "with v as (select epc, rtime from caser order by rtime) \
                 select v.epc from v where v.epc = 'e1'",
                keys(&["e1"]),
            ),
            (
                "with v as (select epc as x from caser) select x from v where x = 'e1'",
                keys(&["e1"]),
            ),
            (
                "with v as (select rtime + 1 as x, epc from caser) select x from v where x = 5",
                None,
            ),
            // Aggregate, Distinct, Window and Limit stop a pin above them...
            (
                "with g as (select epc, count(*) as n from caser group by epc) \
                 select g.epc, g.n from g where g.epc = 'e1'",
                None,
            ),
            (
                "with v as (select epc, rtime from caser limit 5) select v.epc from v \
                 where v.epc = 'e1'",
                None,
            ),
            (
                "with v as (select distinct epc from caser) select v.epc from v where v.epc = 'e1'",
                None,
            ),
            (
                "with v as (select epc, sum(rtime) over (partition by epc) as s from caser) \
                 select v.epc from v where v.epc = 'e1'",
                None,
            ),
            // ...but not one below them.
            (
                "select count(*) as n from caser where epc = 'e2'",
                keys(&["e2"]),
            ),
            // Inner joins: a replicated side needs no pin, every
            // partitioned scan needs its own, a filter above reaches both.
            (
                "select a.epc, d.name from caser a, dim d where a.v = d.k and a.epc = 'e1'",
                keys(&["e1"]),
            ),
            (
                "select a.epc from caser a, caser b where a.epc = b.epc and a.epc = 'e1'",
                None,
            ),
            (
                "select a.epc from caser a, caser b \
                 where a.epc = b.epc and a.epc = 'e1' and b.epc in ('e1', 'e2')",
                keys(&["e1", "e2"]),
            ),
            (
                "with j as (select a.epc, a.rtime from caser a, dim d where a.v = d.k) \
                 select j.epc from j where j.epc = 'e2'",
                keys(&["e2"]),
            ),
            // Nothing partitioned is read: nothing to route.
            ("select name from dim where k = 3", None),
        ];
        for (sql, want) in cases {
            assert_eq!(&pins_of(sql, &spec()), want, "{sql}");
        }
    }

    #[test]
    fn pinned_keys_check_scan_filters_unions_semi_joins_and_types() {
        let cat = catalog();
        let pinned = |plan: &LogicalPlan| pinned_keys(plan, &spec(), &cat);
        let eq = |col: &str, v: &str| Expr::col(col).eq(Expr::lit(Value::str(v)));
        let scan = |alias: &str, filter: Option<Expr>| LogicalPlan::Scan {
            table: "caser".into(),
            alias: Some(alias.into()),
            filter,
        };
        // A pushed scan filter pins under the scan's alias only.
        let c1 = Some(vec![Value::str("e1")]);
        assert_eq!(pinned(&scan("c", Some(eq("c.epc", "e1")))), c1);
        assert_eq!(pinned(&scan("c", Some(eq("x.epc", "e1")))), None);
        // A union stops a pin above it, not the pins of its arms.
        let union = LogicalPlan::Union {
            inputs: vec![scan("c", None), scan("c", None)],
        };
        assert_eq!(pinned(&union.filter(eq("epc", "e1"))), None);
        let union = LogicalPlan::Union {
            inputs: vec![
                scan("c", Some(eq("c.epc", "e1"))),
                scan("c", Some(eq("c.epc", "e2"))),
            ],
        };
        assert_eq!(
            pinned(&union),
            Some(vec![Value::str("e1"), Value::str("e2")])
        );
        // A semi join passes no pin to either side.
        let semi = |right_filter| LogicalPlan::Join {
            left: Box::new(scan("a", None)),
            right: Box::new(scan("b", right_filter)),
            left_keys: vec![Expr::col("a.epc")],
            right_keys: vec![Expr::col("b.epc")],
            join_type: JoinType::LeftSemi,
        };
        assert_eq!(
            pinned(&semi(Some(eq("b.epc", "e1"))).filter(eq("a.epc", "e1"))),
            None
        );
        // A literal routes only with the key column's catalog type: an Int
        // key is not pinned by a string, and a Double key never is.
        let by = |key: &str, table: &str| ShardingSpec {
            key: key.into(),
            partitioned: BTreeSet::from([table.to_string()]),
        };
        let int_key = by("k", "dim");
        assert_eq!(
            pins_of("select name from dim where k = '5'", &int_key),
            None
        );
        assert_eq!(
            pins_of("select name from dim where k in (5, 7)", &int_key),
            Some(vec![Value::Int(5), Value::Int(7)])
        );
        assert_eq!(
            pins_of("select epc from caser where w = 1.0", &by("w", "caser")),
            None
        );
    }
}
