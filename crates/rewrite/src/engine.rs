//! The query rewrite engine (paper §3 steps 3–5, §5).
//!
//! Given a user plan and an application's rule chain, the engine generates
//! candidate rewrites that all compute Q[C₁…Cₙ]:
//!
//! * the **naive** rewrite Q_n — clean all of R, then run Q (baseline);
//! * **expanded** rewrites Q_e (§5.2) — push the expanded condition
//!   `ec = s ∨ cc` below cleansing, with 0..m eligible dimension joins also
//!   pushed below (in ascending selectivity order);
//! * **join-back** rewrites Q_j (§5.3) — clean only the sequences the query
//!   touches, with 0..n semi-joins narrowing the sequence set, using the
//!   improved variant `σ_s′(Φ(σ_ec(R) ⋉ Π_ckey(σ_s(R ⋈ …))))` when an
//!   expanded condition exists.
//!
//! Every candidate is "compiled" — optimized and cost-estimated — and the
//! cheapest is chosen (§5.2/§5.3: "the statement with the cheapest cost
//! estimate is selected").

use crate::analysis::{bind_to_target, context_condition, join_key_propagates, requalify};
use crate::cache::JoinBackCacheSpec;
use crate::memo::MemoHit;
use crate::shape::{analyze, QueryShape};
use dc_relational::cost::{base_table_rows, estimate};
use dc_relational::error::{Error, Result};
use dc_relational::exec::Executor;
use dc_relational::expr::{conjoin, disjoin, ColumnRef, Expr};
use dc_relational::join::JoinType;
use dc_relational::optimizer::optimize_default;
use dc_relational::physical::{ExecOptions, QueryBudget};
use dc_relational::plan::LogicalPlan;
use dc_relational::table::Catalog;
use dc_rules::{cleansing_plan_qualified, validate_chain, RuleTemplate};
use dc_sqlts::Action;
use std::collections::HashMap;
use std::sync::Arc;

/// Which rewrite to produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Strategy {
    /// Generate all candidates, pick the cheapest estimate (the default).
    #[default]
    Auto,
    /// Force the best expanded variant (error when infeasible).
    Expanded,
    /// Force the best join-back variant.
    JoinBack,
    /// Clean everything first (Q_n).
    Naive,
}

/// One compiled candidate, for reporting.
#[derive(Debug, Clone)]
pub struct Candidate {
    pub label: String,
    pub cost: f64,
    pub est_rows: f64,
}

/// The outcome of a rewrite.
#[derive(Debug, Clone)]
pub struct Rewritten {
    /// The chosen, optimized plan computing Q[C₁…Cₙ].
    pub plan: LogicalPlan,
    /// Label of the winning candidate.
    pub chosen: String,
    /// All compiled candidates with their cost estimates.
    pub candidates: Vec<Candidate>,
    /// The expanded condition `ec` (reads-alias-qualified), when feasible.
    pub expanded_condition: Option<Expr>,
    /// The overall context condition `cc`, when feasible.
    pub context_condition: Option<Expr>,
    /// Diagnostics (soundness fallbacks etc.).
    pub notes: Vec<String>,
    /// When the winning candidate is a join-back over a base reads table,
    /// everything [`Rewritten::execute_cached`] needs to run it through the
    /// cleansed-sequence cache. `None` = cached execution falls back to
    /// [`Rewritten::execute`].
    pub cache_spec: Option<JoinBackCacheSpec>,
    /// Set when the rewrite came from a [`ShapeMemo`](crate::memo::ShapeMemo)
    /// entry; every other field is what a fresh rewrite returns.
    pub memo_hit: Option<MemoHit>,
}

/// A fully executed rewrite: the result batch plus the run's accounting.
#[derive(Debug, Clone)]
pub struct Executed {
    pub batch: dc_relational::batch::Batch,
    /// Deterministic work counters — identical at any parallelism.
    pub stats: dc_relational::exec::ExecStats,
    /// Wall-clock nanoseconds spent in window evaluation (the Φ_C hot
    /// path) — the quantity parallelism is expected to improve.
    pub window_eval_nanos: u64,
    /// Per-operator metrics tree of the executed physical plan (the
    /// EXPLAIN ANALYZE data source).
    pub metrics: Option<dc_relational::physical::OperatorMetrics>,
}

impl Rewritten {
    /// Execute the chosen plan. `options` controls partition-parallel
    /// window evaluation; the strategy choice (cost estimates, candidate
    /// ranking) is unaffected by it, and results and work counters are
    /// identical at any parallelism.
    pub fn execute(&self, catalog: &Catalog, options: ExecOptions) -> Result<Executed> {
        self.execute_with_budget(catalog, options, QueryBudget::unlimited())
    }

    /// [`Rewritten::execute`] under a [`QueryBudget`]: the plan aborts with
    /// `Error::Aborted` at the next operator (or window-partition)
    /// checkpoint once the deadline passes, the cancellation token flips,
    /// or the row budget is exhausted — never returning partial rows.
    pub fn execute_with_budget(
        &self,
        catalog: &Catalog,
        options: ExecOptions,
        budget: QueryBudget,
    ) -> Result<Executed> {
        let mut ex = Executor::with_budget(catalog, options, budget);
        let batch = ex.execute(&self.plan)?;
        Ok(Executed {
            batch,
            stats: ex.stats,
            window_eval_nanos: ex.window_eval_nanos,
            metrics: ex.metrics,
        })
    }
}

/// The rewrite engine. Holds registered derived inputs — plans backing rule
/// `FROM` tables that are not base tables (e.g. the union of case reads and
/// expected reads for the missing rule, paper §4.3 Example 5 / §6.3).
#[derive(Debug, Default)]
pub struct RewriteEngine {
    derived_inputs: HashMap<String, LogicalPlan>,
}

impl RewriteEngine {
    pub fn new() -> Self {
        RewriteEngine::default()
    }

    /// Register the plan backing a derived rule input. Its output schema must
    /// include every column of the reads table (validated when rules are
    /// defined).
    pub fn register_derived_input(&mut self, name: impl Into<String>, plan: LogicalPlan) {
        self.derived_inputs
            .insert(name.into().to_ascii_lowercase(), plan);
    }

    /// The plan registered for derived input `name` (case-insensitive).
    pub fn derived_input(&self, name: &str) -> Option<&LogicalPlan> {
        self.derived_inputs.get(&name.to_ascii_lowercase())
    }

    /// Names of the registered derived inputs, sorted.
    pub fn derived_input_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.derived_inputs.keys().cloned().collect();
        names.sort();
        names
    }

    /// The per-rule context condition for a query shape — the contents of the
    /// paper's Table 1. `None` = expanded rewrite infeasible for this rule.
    pub fn rule_context_condition(&self, rule: &RuleTemplate, shape: &QueryShape) -> Option<Expr> {
        let target = rule.def.target().to_string();
        let s_bound = bind_to_target(&shape.s, &shape.alias, &target);
        let mut per_ref: Vec<Expr> = Vec::new();
        for x in rule.def.context_refs() {
            let conjs = context_condition(rule, x, &s_bound)?;
            let on_alias: Vec<Expr> = conjs
                .iter()
                .map(|c| requalify(c, &x.name, &shape.alias))
                .collect();
            per_ref.push(conjoin(on_alias).expect("non-empty by contract"));
        }
        // A rule whose pattern has no context references cleans rows
        // in isolation; its context condition is just `s` itself.
        if per_ref.is_empty() {
            return shape.s_expr().or(Some(Expr::lit(true)));
        }
        disjoin(per_ref)
    }

    /// Rewrite a user plan with respect to a rule chain.
    pub fn rewrite_plan(
        &self,
        user_plan: &LogicalPlan,
        rules: &[Arc<RuleTemplate>],
        catalog: &Catalog,
        strategy: Strategy,
    ) -> Result<Rewritten> {
        self.rewrite_plan_opts(user_plan, rules, catalog, strategy, true)
    }

    /// [`RewriteEngine::rewrite_plan`] with the improved join-back (§5.3 —
    /// pushing the expanded condition into the join-back's outer arm)
    /// toggleable, for ablation studies.
    pub fn rewrite_plan_opts(
        &self,
        user_plan: &LogicalPlan,
        rules: &[Arc<RuleTemplate>],
        catalog: &Catalog,
        strategy: Strategy,
        improved_joinback: bool,
    ) -> Result<Rewritten> {
        if rules.is_empty() {
            let plan = optimize_default(user_plan.clone(), catalog);
            return Ok(Rewritten {
                plan,
                chosen: "original (no rules)".into(),
                candidates: vec![],
                expanded_condition: None,
                context_condition: None,
                notes: vec![],
                cache_spec: None,
                memo_hit: None,
            });
        }
        let rule_refs: Vec<&RuleTemplate> = rules.iter().map(Arc::as_ref).collect();
        validate_chain(&rule_refs)?;
        let reads_table = rules[0].def.on_table.clone();
        let shape = analyze(user_plan, &reads_table, catalog)?;
        let mut notes = Vec::new();

        // --- Soundness guard: MODIFY on columns the query constrains. ---
        // Pushing s (or joins) below cleansing assumes the rules do not
        // change the columns those predicates read. The paper leaves this
        // implicit; we enforce it and fall back to the naive rewrite.
        let modified: Vec<String> = rules
            .iter()
            .flat_map(|r| match &r.action {
                Action::Modify { assignments, .. } => {
                    assignments.iter().map(|(c, _)| c.clone()).collect()
                }
                _ => Vec::new(),
            })
            .collect();
        // Unqualified references in s come from R's pushed scan filter, so
        // they are R columns; qualified ones must match the alias.
        let is_modified_reads_col = |c: &ColumnRef| {
            let is_reads_col =
                c.qualifier.is_none() || c.qualifier.as_deref() == Some(shape.alias.as_str());
            is_reads_col && modified.iter().any(|m| m.eq_ignore_ascii_case(&c.name))
        };
        // (a) s itself constrains a modified column: both ec pushdown and the
        //     join-back sequence-set computation read pre-cleansing values —
        //     only the naive rewrite is sound.
        let mut s_cols: Vec<ColumnRef> = Vec::new();
        for e in &shape.s {
            e.referenced_columns(&mut s_cols);
        }
        let conflict = s_cols.iter().find(|c| is_modified_reads_col(c));
        // (b) a dimension joins on a modified column: the join itself stays
        //     above cleansing (sound — it sees post-MODIFY values), but that
        //     dim must not be pushed below cleansing nor used in the
        //     join-back semi-join. Recorded here, enforced below.
        let mut tainted_dims: Vec<usize> = Vec::new();
        for (i, d) in shape.dims.iter().enumerate() {
            let mut key_cols: Vec<ColumnRef> = Vec::new();
            for k in &d.left_keys {
                k.referenced_columns(&mut key_cols);
            }
            if key_cols.iter().any(&is_modified_reads_col) {
                tainted_dims.push(i);
                notes.push(format!(
                    "dimension join {i} uses a MODIFY-rewritten column; it is kept \
                     above cleansing and excluded from semi-join narrowing"
                ));
            }
        }
        if let Some(c) = conflict {
            notes.push(format!(
                "query constrains column '{}' which a MODIFY rule rewrites; \
                 only the naive rewrite is sound",
                c.flat_name()
            ));
            let plan = self.naive(&shape, &rule_refs, catalog)?;
            let plan = optimize_default(plan, catalog);
            let est = estimate(&plan, catalog);
            return Ok(Rewritten {
                plan,
                chosen: "naive (forced by MODIFY conflict)".into(),
                candidates: vec![Candidate {
                    label: "naive".into(),
                    cost: est.cost,
                    est_rows: est.rows,
                }],
                expanded_condition: None,
                context_condition: None,
                notes,
                cache_spec: None,
                memo_hit: None,
            });
        }

        // --- Context / expanded conditions (§5.2, §5.4). ---
        let per_rule_cc: Vec<Option<Expr>> = rules
            .iter()
            .map(|r| self.rule_context_condition(r, &shape))
            .collect();
        let all_feasible = per_rule_cc.iter().all(Option::is_some);
        let cc: Option<Expr> = if all_feasible {
            disjoin(per_rule_cc.iter().flatten().cloned().collect())
        } else {
            None
        };
        let ec: Option<Expr> = match (&cc, shape.s_expr()) {
            (Some(cc), Some(s)) => Some(s.or(cc.clone())),
            // With no selection on R the query needs all of R anyway.
            _ => None,
        };

        // s' = s minus conjuncts covered by every cc disjunct (§5.2).
        let s_prime: Vec<Expr> = match &cc {
            Some(cc) => {
                let disjuncts = split_disjuncts(cc);
                shape
                    .s
                    .iter()
                    .filter(|q| {
                        !disjuncts
                            .iter()
                            .all(|d| dc_relational::expr::split_conjuncts(d).contains(q))
                    })
                    .cloned()
                    .collect()
            }
            None => shape.s.clone(),
        };

        // --- Candidate generation. ---
        let mut candidates: Vec<(String, LogicalPlan)> = Vec::new();

        if matches!(strategy, Strategy::Naive) {
            candidates.push(("naive".into(), self.naive(&shape, &rule_refs, catalog)?));
        }

        if matches!(strategy, Strategy::Auto | Strategy::Expanded) {
            if let Some(ec) = &ec {
                let eligible: Vec<usize> = self
                    .eligible_dims(&shape, &rule_refs)
                    .into_iter()
                    .filter(|i| !tainted_dims.contains(i))
                    .collect();
                let ordered = order_by_selectivity(&shape, &eligible, catalog);
                for k in 0..=ordered.len() {
                    let label = format!("expanded({k} joins below cleansing)");
                    let plan =
                        self.expanded(&shape, &rule_refs, catalog, ec, &s_prime, &ordered[..k])?;
                    candidates.push((label, plan));
                }
            } else if matches!(strategy, Strategy::Expanded) {
                return Err(Error::Plan(format!(
                    "no feasible expanded rewrite: {}",
                    if all_feasible {
                        "the query has no selection on the reads table"
                    } else {
                        "a rule's context condition is empty"
                    }
                )));
            }
        }

        if matches!(strategy, Strategy::Auto | Strategy::JoinBack) {
            let direct: Vec<usize> = shape
                .dims
                .iter()
                .enumerate()
                .filter(|(i, d)| d.direct && !tainted_dims.contains(i))
                .map(|(i, _)| i)
                .collect();
            let ordered = order_by_selectivity(&shape, &direct, catalog);
            for k in 0..=ordered.len() {
                let label = format!("join-back({k} semi-joins)");
                let jb_ec = if improved_joinback { ec.as_ref() } else { None };
                let plan = self.join_back(
                    &shape,
                    &rule_refs,
                    catalog,
                    jb_ec,
                    if jb_ec.is_some() { &s_prime } else { &shape.s },
                    &ordered[..k],
                )?;
                candidates.push((label, plan));
            }
        }

        // --- Compile (optimize + estimate) and pick the cheapest. ---
        let mut compiled: Vec<(String, LogicalPlan, f64, f64)> = candidates
            .into_iter()
            .map(|(label, plan)| {
                let plan = optimize_default(plan, catalog);
                let est = estimate(&plan, catalog);
                (label, plan, est.cost, est.rows)
            })
            .collect();
        compiled.sort_by(|a, b| a.2.total_cmp(&b.2));
        let report: Vec<Candidate> = compiled
            .iter()
            .map(|(label, _, cost, rows)| Candidate {
                label: label.clone(),
                cost: *cost,
                est_rows: *rows,
            })
            .collect();
        let (chosen, plan, _, _) = compiled
            .into_iter()
            .next()
            .ok_or_else(|| Error::Internal("no rewrite candidates generated".into()))?;

        // When a join-back won, build the cleansed-sequence cache spec for
        // the exact candidate chosen (same semi-join set, same ec/reapply).
        let cache_spec = match chosen
            .strip_prefix("join-back(")
            .and_then(|rest| rest.split(' ').next())
            .and_then(|k| k.parse::<usize>().ok())
        {
            Some(k) => {
                let direct: Vec<usize> = shape
                    .dims
                    .iter()
                    .enumerate()
                    .filter(|(i, d)| d.direct && !tainted_dims.contains(i))
                    .map(|(i, _)| i)
                    .collect();
                let ordered = order_by_selectivity(&shape, &direct, catalog);
                let jb_ec = if improved_joinback { ec.as_ref() } else { None };
                let reapply = if jb_ec.is_some() { &s_prime } else { &shape.s };
                self.joinback_cache_spec(&shape, rules, catalog, jb_ec, reapply, &ordered[..k])
            }
            None => None,
        };

        Ok(Rewritten {
            plan,
            chosen,
            candidates: report,
            expanded_condition: ec,
            context_condition: cc,
            notes,
            cache_spec,
            memo_hit: None,
        })
    }

    /// The naive rewrite Q_n: replace R by Φ(R) wholesale.
    pub fn naive(
        &self,
        shape: &QueryShape,
        rules: &[&RuleTemplate],
        catalog: &Catalog,
    ) -> Result<LogicalPlan> {
        let src = self.reads_source(shape, rules)?;
        let cleansed = cleansing_plan_qualified(src, rules, catalog, Some(&shape.alias))?;
        let filtered = match shape.s_expr() {
            Some(s) => cleansed.filter(s),
            None => cleansed,
        };
        Ok(shape.splice(shape.rejoin_dims(filtered, &[])))
    }

    /// Build the source of reads rows, alias-qualified: the base-table scan,
    /// or the registered derived input for FROM-redirected rules.
    fn reads_source(&self, shape: &QueryShape, rules: &[&RuleTemplate]) -> Result<LogicalPlan> {
        let from = &rules[0].def.from_table;
        if from.eq_ignore_ascii_case(&shape.table) {
            return Ok(LogicalPlan::scan_as(&shape.table, &shape.alias));
        }
        // A registered derived-input plan takes precedence; otherwise the
        // FROM table may be a materialized input table in the catalog.
        if let Some(plan) = self.derived_inputs.get(&from.to_ascii_lowercase()) {
            return Ok(plan.clone().alias(&shape.alias));
        }
        Ok(LogicalPlan::scan_as(from, &shape.alias))
    }

    /// Dim indexes eligible for pushing below cleansing: direct dims whose
    /// every R-side key column propagates to all context references of all
    /// rules (§5.2 join query support).
    fn eligible_dims(&self, shape: &QueryShape, rules: &[&RuleTemplate]) -> Vec<usize> {
        shape
            .dims
            .iter()
            .enumerate()
            .filter(|(_, d)| d.direct)
            .filter(|(_, d)| {
                d.left_keys.iter().all(|k| {
                    let Expr::Column(c) = k else { return false };
                    rules.iter().all(|r| join_key_propagates(r, &c.name))
                })
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// An expanded rewrite with the given dims (by index) joined below
    /// cleansing.
    fn expanded(
        &self,
        shape: &QueryShape,
        rules: &[&RuleTemplate],
        catalog: &Catalog,
        ec: &Expr,
        s_prime: &[Expr],
        below: &[usize],
    ) -> Result<LogicalPlan> {
        let mut base = self.reads_source(shape, rules)?.filter(ec.clone());
        for &i in below {
            let d = &shape.dims[i];
            base = base.join(
                d.plan.clone(),
                d.left_keys.clone(),
                d.right_keys.clone(),
                JoinType::Inner,
            );
        }
        let cleansed = cleansing_plan_qualified(base, rules, catalog, Some(&shape.alias))?;
        let filtered = match conjoin(s_prime.to_vec()) {
            Some(s) => cleansed.filter(s),
            None => cleansed,
        };
        Ok(shape.splice(shape.rejoin_dims(filtered, below)))
    }

    /// A join-back rewrite with the given dims (by index) participating in
    /// the sequence-set computation.
    fn join_back(
        &self,
        shape: &QueryShape,
        rules: &[&RuleTemplate],
        catalog: &Catalog,
        ec: Option<&Expr>,
        reapply: &[Expr],
        semi_dims: &[usize],
    ) -> Result<LogicalPlan> {
        let ckey = rules[0].def.cluster_by.clone();
        let r_ckey = Expr::Column(ColumnRef::qualified(shape.alias.clone(), ckey.clone()));

        // Inner: Π_ckey(σ_s(R ⋈ dims…)), distinct.
        let mut inner = self.reads_source(shape, rules)?;
        if let Some(s) = shape.s_expr() {
            inner = inner.filter(s);
        }
        for &i in semi_dims {
            let d = &shape.dims[i];
            inner = inner.join(
                d.plan.clone(),
                d.left_keys.clone(),
                d.right_keys.clone(),
                JoinType::Inner,
            );
        }
        let inner = inner
            .project(vec![(r_ckey.clone(), ckey.clone())])
            .distinct();

        // Outer: σ_ec(R) (improved) or R, semi-joined on the cluster key.
        let mut outer = self.reads_source(shape, rules)?;
        if let Some(ec) = ec {
            outer = outer.filter(ec.clone());
        }
        let narrowed = outer.join(
            inner,
            vec![r_ckey],
            vec![Expr::col(ckey)],
            JoinType::LeftSemi,
        );

        let cleansed = cleansing_plan_qualified(narrowed, rules, catalog, Some(&shape.alias))?;
        let filtered = match conjoin(reapply.to_vec()) {
            Some(s) => cleansed.filter(s),
            None => cleansed,
        };
        Ok(shape.splice(shape.rejoin_dims(filtered, &[])))
    }

    /// Build the cleansed-sequence cache spec mirroring a chosen join-back
    /// candidate, or `None` when caching would be unsound or impossible:
    /// the rules read a derived input (no base-table segment metadata to
    /// validate against), or a MODIFY rule rewrites the cluster key itself
    /// (per-sequence grouping of Φ output would not match pre-cleansing
    /// keys).
    fn joinback_cache_spec(
        &self,
        shape: &QueryShape,
        rules: &[Arc<RuleTemplate>],
        catalog: &Catalog,
        ec: Option<&Expr>,
        reapply: &[Expr],
        semi_dims: &[usize],
    ) -> Option<JoinBackCacheSpec> {
        let from = &rules[0].def.from_table;
        if !from.eq_ignore_ascii_case(&shape.table) || !catalog.contains(&shape.table) {
            return None;
        }
        let ckey = rules[0].def.cluster_by.clone();
        let modifies_ckey = rules.iter().any(|r| match &r.action {
            Action::Modify { assignments, .. } => assignments
                .iter()
                .any(|(c, _)| c.eq_ignore_ascii_case(&ckey)),
            _ => false,
        });
        if modifies_ckey {
            return None;
        }

        // The sequence set, exactly as the candidate's inner arm builds it.
        let r_ckey = Expr::Column(ColumnRef::qualified(shape.alias.clone(), ckey.clone()));
        let mut inner = LogicalPlan::scan_as(&shape.table, &shape.alias);
        if let Some(s) = shape.s_expr() {
            inner = inner.filter(s);
        }
        for &i in semi_dims {
            let d = &shape.dims[i];
            inner = inner.join(
                d.plan.clone(),
                d.left_keys.clone(),
                d.right_keys.clone(),
                JoinType::Inner,
            );
        }
        let seqset = optimize_default(
            inner.project(vec![(r_ckey, ckey.clone())]).distinct(),
            catalog,
        );

        // The tail: reapply s′ over the assembled cleansed rows, then the
        // dimension re-joins and the original consumer.
        let placeholder = format!("__cleansed__{}", shape.table);
        let tail_src = LogicalPlan::scan(&placeholder);
        let filtered = match conjoin(reapply.to_vec()) {
            Some(s) => tail_src.filter(s),
            None => tail_src,
        };
        let tail = shape.splice(shape.rejoin_dims(filtered, &[]));

        Some(JoinBackCacheSpec {
            fingerprint: JoinBackCacheSpec::fingerprint_of(rules, ec, &shape.alias, &shape.table),
            reads_table: shape.table.clone(),
            alias: shape.alias.clone(),
            ckey,
            seqset,
            ec: ec.cloned(),
            placeholder,
            tail,
            rules: rules.to_vec(),
        })
    }
}

/// Split an expression into top-level OR-ed disjuncts.
fn split_disjuncts(expr: &Expr) -> Vec<Expr> {
    let mut out = Vec::new();
    fn walk(e: &Expr, out: &mut Vec<Expr>) {
        match e {
            Expr::Binary {
                left,
                op: dc_relational::expr::BinaryOp::Or,
                right,
            } => {
                walk(left, out);
                walk(right, out);
            }
            other => out.push(other.clone()),
        }
    }
    walk(expr, &mut out);
    out
}

/// Order the given dim indexes by ascending selectivity of their local
/// predicates (paper §5.2: "we order D′_i by the selectivity of S′_i
/// ascendingly").
fn order_by_selectivity(shape: &QueryShape, dims: &[usize], catalog: &Catalog) -> Vec<usize> {
    let mut with_sel: Vec<(usize, f64)> = dims
        .iter()
        .map(|&i| {
            let d = &shape.dims[i];
            let est = estimate(&d.plan, catalog);
            let base = base_table_rows(&d.plan, catalog).max(1.0);
            (i, est.rows / base)
        })
        .collect();
    with_sel.sort_by(|a, b| a.1.total_cmp(&b.1));
    with_sel.into_iter().map(|(i, _)| i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_relational::batch::{schema_ref, Batch};
    use dc_relational::exec::Executor;
    use dc_relational::schema::{Field, Schema};
    use dc_relational::sql::{parse_query, plan_query};
    use dc_relational::table::Table;
    use dc_relational::value::{DataType, Value};
    use dc_rules::compile_rule;
    use dc_sqlts::parse_rule;

    const READER: &str = "DEFINE reader ON caseR CLUSTER BY epc SEQUENCE BY rtime AS (A, *B) \
        WHERE B.reader = 'readerX' and B.rtime - A.rtime < 5 mins ACTION DELETE A";
    const DUP: &str = "DEFINE duplicate ON caseR CLUSTER BY epc SEQUENCE BY rtime AS (A, B) \
        WHERE A.biz_loc = B.biz_loc ACTION DELETE B";
    const DUP_TIMED: &str = "DEFINE duplicate ON caseR CLUSTER BY epc SEQUENCE BY rtime AS (A, B) \
        WHERE A.biz_loc = B.biz_loc and B.rtime - A.rtime < 5 mins ACTION DELETE B";
    const CYCLE: &str = "DEFINE cycle ON caseR CLUSTER BY epc SEQUENCE BY rtime AS (A, B, C) \
        WHERE A.biz_loc = C.biz_loc and A.biz_loc != B.biz_loc ACTION DELETE B";
    const REPLACING: &str = "DEFINE replacing ON caseR CLUSTER BY epc SEQUENCE BY rtime AS (A, B) \
        WHERE A.biz_loc = 'loc2' and B.biz_loc = 'locA' and B.rtime - A.rtime < 20 mins \
        ACTION MODIFY A.biz_loc = 'loc1'";

    fn templates(texts: &[&str]) -> Vec<Arc<RuleTemplate>> {
        texts
            .iter()
            .map(|t| Arc::new(compile_rule(&parse_rule(t).unwrap()).unwrap()))
            .collect()
    }

    /// A small but adversarial dataset: 8 EPCs x mixed anomalies.
    fn catalog() -> Catalog {
        let reads = schema_ref(Schema::new(vec![
            Field::new("epc", DataType::Str),
            Field::new("rtime", DataType::Int),
            Field::new("biz_loc", DataType::Str),
            Field::new("reader", DataType::Str),
        ]));
        let mut rows: Vec<Vec<Value>> = Vec::new();
        let mut push = |e: &str, t: i64, l: &str, r: &str| {
            rows.push(vec![
                Value::str(e),
                Value::Int(t),
                Value::str(l),
                Value::str(r),
            ]);
        };
        // Deterministic pseudo-random-ish mixture around the boundary T=1000.
        for i in 0..8 {
            let e = format!("e{i}");
            let base = 100 * i as i64;
            push(&e, base, "locA", "r1");
            push(&e, base + 120, "locA", "r1"); // duplicate
            push(
                &e,
                base + 200,
                "locB",
                if i % 2 == 0 { "readerX" } else { "r2" },
            );
            push(&e, base + 400, "locA", "r1"); // cycle member
            push(&e, base + 700, "loc2", "r3"); // cross-read candidate
            push(&e, base + 900, "locA", "r1");
            push(&e, base + 1100, "locC", "r1");
            push(&e, base + 1300, "locC", "readerX"); // duplicate + readerX
        }
        let cat = Catalog::new();
        let mut t = Table::new("caser", Batch::from_rows(reads, &rows).unwrap());
        t.create_index("rtime").unwrap();
        t.create_index("epc").unwrap();
        cat.register(t);

        let locs = schema_ref(Schema::new(vec![
            Field::new("gln", DataType::Str),
            Field::new("site", DataType::Str),
        ]));
        cat.register(Table::new(
            "locs",
            Batch::from_rows(
                locs,
                &[
                    vec![Value::str("locA"), Value::str("dc1")],
                    vec![Value::str("locB"), Value::str("dc2")],
                    vec![Value::str("locC"), Value::str("dc1")],
                    vec![Value::str("loc1"), Value::str("dc3")],
                    vec![Value::str("loc2"), Value::str("dc3")],
                ],
            )
            .unwrap(),
        ));
        let info = schema_ref(Schema::new(vec![
            Field::new("epc", DataType::Str),
            Field::new("lot", DataType::Int),
        ]));
        let info_rows: Vec<Vec<Value>> = (0..8)
            .map(|i| vec![Value::str(format!("e{i}")), Value::Int(i % 3)])
            .collect();
        cat.register(Table::new(
            "epc_info",
            Batch::from_rows(info, &info_rows).unwrap(),
        ));
        cat
    }

    /// Gold standard: materialize Φ(R), swap it into a catalog copy, run Q.
    fn gold(sql: &str, cat: &Catalog, rules: &[Arc<RuleTemplate>]) -> Vec<Vec<Value>> {
        let refs: Vec<&RuleTemplate> = rules.iter().map(Arc::as_ref).collect();
        let phi = dc_rules::cleansing_plan(LogicalPlan::scan("caser"), &refs, cat).unwrap();
        let cleaned = Executor::new(cat).execute(&phi).unwrap();
        let cat2 = Catalog::new();
        for name in cat.table_names() {
            if name != "caser" {
                let t = cat.get(&name).unwrap();
                cat2.register(Table::new(&name, t.data().clone()));
            }
        }
        // Project the cleansed batch back to the base schema (MODIFY may
        // have appended new columns; the base query never sees them).
        let base = cat.get("caser").unwrap();
        let cols: Vec<usize> = (0..base.schema().len()).collect();
        let projected = {
            let idx: Vec<usize> = (0..cleaned.num_rows()).collect();
            let b = cleaned.take(&idx);
            let columns: Vec<_> = cols.iter().map(|&i| b.column(i).clone()).collect();
            Batch::new(base.schema().clone(), columns).unwrap()
        };
        cat2.register(Table::new("caser", projected));
        let plan = plan_query(&parse_query(sql).unwrap(), &cat2).unwrap();
        Executor::new(&cat2).execute(&plan).unwrap().sorted_rows()
    }

    fn check_all_strategies(sql: &str, rule_texts: &[&str]) {
        let cat = catalog();
        let rules = templates(rule_texts);
        let expect = gold(sql, &cat, &rules);
        let engine = RewriteEngine::new();
        let user_plan = plan_query(&parse_query(sql).unwrap(), &cat).unwrap();
        for strategy in [
            Strategy::Auto,
            Strategy::Naive,
            Strategy::JoinBack,
            Strategy::Expanded,
        ] {
            let rw = match engine.rewrite_plan(&user_plan, &rules, &cat, strategy) {
                Ok(rw) => rw,
                Err(e) if strategy == Strategy::Expanded => {
                    assert!(
                        e.to_string().contains("no feasible expanded"),
                        "unexpected expanded error: {e}"
                    );
                    continue;
                }
                Err(e) => panic!("{strategy:?} failed: {e}"),
            };
            let got = Executor::new(&cat).execute(&rw.plan).unwrap().sorted_rows();
            assert_eq!(
                got, expect,
                "strategy {strategy:?} (chosen: {}) diverges from gold for {sql}\nplan:\n{}",
                rw.chosen, rw.plan
            );
        }
    }

    #[test]
    fn selection_query_all_rules() {
        check_all_strategies(
            "select epc, rtime, biz_loc from caser where rtime <= 1000",
            &[READER, DUP_TIMED, REPLACING],
        );
    }

    #[test]
    fn lower_bound_selection() {
        check_all_strategies(
            "select epc, rtime from caser where rtime >= 600",
            &[READER, DUP_TIMED],
        );
    }

    #[test]
    fn cycle_rule_forces_joinback() {
        // Cycle rule has no expanded rewrite (Table 1) — Auto must still be
        // correct via join-back.
        check_all_strategies(
            "select epc, rtime, biz_loc from caser where rtime <= 1000",
            &[CYCLE],
        );
    }

    #[test]
    fn untimed_duplicate_rule_fig3_c2() {
        // Fig. 3(b): duplicates arbitrarily far apart -> expanded infeasible,
        // join-back required.
        check_all_strategies("select epc, rtime from caser where rtime > 800", &[DUP]);
    }

    #[test]
    fn join_query_with_dims() {
        check_all_strategies(
            "select c.epc, l.site from caser c, locs l \
             where c.biz_loc = l.gln and c.rtime <= 1000 and l.site = 'dc1'",
            &[READER, DUP_TIMED],
        );
    }

    #[test]
    fn aggregate_join_query() {
        check_all_strategies(
            "select l.site, count(distinct c.epc) as n from caser c, locs l, epc_info i \
             where c.biz_loc = l.gln and c.epc = i.epc and c.rtime >= 300 and i.lot = 1 \
             group by l.site",
            &[READER, DUP_TIMED, REPLACING],
        );
    }

    #[test]
    fn olap_window_query_q1_shape() {
        check_all_strategies(
            "with v1 as (select epc, rtime, biz_loc, \
               max(rtime) over (partition by epc order by rtime \
                 rows between 1 preceding and 1 preceding) as prev_time \
             from caser where rtime <= 1200) \
             select epc, avg(rtime - prev_time) as dwell from v1 \
             where prev_time is not null group by epc",
            &[READER, DUP_TIMED],
        );
    }

    #[test]
    fn all_five_rule_chain() {
        check_all_strategies(
            "select epc, rtime, biz_loc from caser where rtime <= 900",
            &[READER, DUP_TIMED, REPLACING, CYCLE],
        );
    }

    #[test]
    fn modify_conflict_forces_naive() {
        let cat = catalog();
        let rules = templates(&[REPLACING]);
        let engine = RewriteEngine::new();
        // Query constrains biz_loc, which REPLACING modifies.
        let sql = "select epc from caser where biz_loc = 'loc1' and rtime <= 2000";
        let user_plan = plan_query(&parse_query(sql).unwrap(), &cat).unwrap();
        let rw = engine
            .rewrite_plan(&user_plan, &rules, &cat, Strategy::Auto)
            .unwrap();
        assert!(rw.chosen.contains("naive"), "chosen: {}", rw.chosen);
        assert!(!rw.notes.is_empty());
        // And it matches gold.
        let got = Executor::new(&cat).execute(&rw.plan).unwrap().sorted_rows();
        assert_eq!(got, gold(sql, &cat, &rules));
    }

    #[test]
    fn fig3_running_example_c1_q1() {
        // Fig. 3(a): R1 = {(e1, t1-2min, readerY), (e1, t1+2min, readerX)},
        // Q1: rtime < t1. Correct answer {}; naive pushdown would return r1.
        let reads = schema_ref(Schema::new(vec![
            Field::new("epc", DataType::Str),
            Field::new("rtime", DataType::Int),
            Field::new("biz_loc", DataType::Str),
            Field::new("reader", DataType::Str),
        ]));
        let t1 = 10_000i64;
        let cat = Catalog::new();
        cat.register(Table::new(
            "caser",
            Batch::from_rows(
                reads,
                &[
                    vec![
                        Value::str("e1"),
                        Value::Int(t1 - 120),
                        Value::str("l"),
                        Value::str("readerY"),
                    ],
                    vec![
                        Value::str("e1"),
                        Value::Int(t1 + 120),
                        Value::str("l"),
                        Value::str("readerX"),
                    ],
                ],
            )
            .unwrap(),
        ));
        let rules = templates(&[READER]);
        let engine = RewriteEngine::new();
        let sql = format!("select epc, rtime from caser where rtime < {t1}");
        let user_plan = plan_query(&parse_query(&sql).unwrap(), &cat).unwrap();
        for strategy in [Strategy::Auto, Strategy::Expanded, Strategy::JoinBack] {
            let rw = engine
                .rewrite_plan(&user_plan, &rules, &cat, strategy)
                .unwrap();
            let got = Executor::new(&cat).execute(&rw.plan).unwrap();
            assert_eq!(got.num_rows(), 0, "{strategy:?} must return {{}}");
        }
        // The *unsound* direct pushdown would have returned row r1:
        let dirty = Executor::new(&cat)
            .execute(&dc_relational::sql::plan_sql(&sql, &cat).unwrap())
            .unwrap();
        assert_eq!(dirty.num_rows(), 1);
    }

    #[test]
    fn fig3_running_example_c2_q2() {
        // Fig. 3(b): R2 = {(e2, t2-2min, locZ), (e2, t2+2min, locZ)},
        // Q2: rtime > t2 over the untimed duplicate rule. Correct answer {}.
        let reads = schema_ref(Schema::new(vec![
            Field::new("epc", DataType::Str),
            Field::new("rtime", DataType::Int),
            Field::new("biz_loc", DataType::Str),
            Field::new("reader", DataType::Str),
        ]));
        let t2 = 10_000i64;
        let cat = Catalog::new();
        cat.register(Table::new(
            "caser",
            Batch::from_rows(
                reads,
                &[
                    vec![
                        Value::str("e2"),
                        Value::Int(t2 - 120),
                        Value::str("locZ"),
                        Value::str("r"),
                    ],
                    vec![
                        Value::str("e2"),
                        Value::Int(t2 + 120),
                        Value::str("locZ"),
                        Value::str("r"),
                    ],
                ],
            )
            .unwrap(),
        ));
        let rules = templates(&[DUP]);
        let engine = RewriteEngine::new();
        let sql = format!("select epc, rtime from caser where rtime > {t2}");
        let user_plan = plan_query(&parse_query(&sql).unwrap(), &cat).unwrap();
        // Expanded is infeasible (no time bound in the rule).
        assert!(engine
            .rewrite_plan(&user_plan, &rules, &cat, Strategy::Expanded)
            .is_err());
        let rw = engine
            .rewrite_plan(&user_plan, &rules, &cat, Strategy::Auto)
            .unwrap();
        let got = Executor::new(&cat).execute(&rw.plan).unwrap();
        assert_eq!(got.num_rows(), 0);
        // Direct pushdown would wrongly return r4.
        let dirty = Executor::new(&cat)
            .execute(&dc_relational::sql::plan_sql(&sql, &cat).unwrap())
            .unwrap();
        assert_eq!(dirty.num_rows(), 1);
    }

    #[test]
    fn candidate_reporting() {
        let cat = catalog();
        let rules = templates(&[READER]);
        let engine = RewriteEngine::new();
        let sql = "select c.epc from caser c, locs l \
                   where c.biz_loc = l.gln and c.rtime <= 1000 and l.site = 'dc1'";
        let user_plan = plan_query(&parse_query(sql).unwrap(), &cat).unwrap();
        let rw = engine
            .rewrite_plan(&user_plan, &rules, &cat, Strategy::Auto)
            .unwrap();
        // epc_info is not referenced; locs is direct but biz_loc does not
        // propagate -> expanded variants: only k=0. Join-back: k=0 and k=1.
        let labels: Vec<&str> = rw.candidates.iter().map(|c| c.label.as_str()).collect();
        assert!(
            labels.contains(&"expanded(0 joins below cleansing)"),
            "{labels:?}"
        );
        assert!(labels.contains(&"join-back(0 semi-joins)"), "{labels:?}");
        assert!(labels.contains(&"join-back(1 semi-joins)"), "{labels:?}");
        assert!(
            !labels.contains(&"expanded(1 joins below cleansing)"),
            "{labels:?}"
        );
        assert!(rw.expanded_condition.is_some());
        // Costs sorted ascending.
        let costs: Vec<f64> = rw.candidates.iter().map(|c| c.cost).collect();
        assert!(costs.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn no_rules_passthrough() {
        let cat = catalog();
        let engine = RewriteEngine::new();
        let sql = "select epc from caser where rtime < 500";
        let user_plan = plan_query(&parse_query(sql).unwrap(), &cat).unwrap();
        let rw = engine
            .rewrite_plan(&user_plan, &[], &cat, Strategy::Auto)
            .unwrap();
        assert!(rw.chosen.contains("original"));
    }

    #[test]
    fn epc_join_eligible_below_cleansing() {
        // epc_info joins on the cluster key: it may be pushed below cleansing.
        let cat = catalog();
        let rules = templates(&[READER]);
        let engine = RewriteEngine::new();
        let sql = "select c.epc from caser c, epc_info i \
                   where c.epc = i.epc and c.rtime <= 1000 and i.lot = 1";
        let user_plan = plan_query(&parse_query(sql).unwrap(), &cat).unwrap();
        let rw = engine
            .rewrite_plan(&user_plan, &rules, &cat, Strategy::Auto)
            .unwrap();
        let labels: Vec<&str> = rw.candidates.iter().map(|c| c.label.as_str()).collect();
        assert!(
            labels.contains(&"expanded(1 joins below cleansing)"),
            "{labels:?}"
        );
        // Still correct.
        let expect = gold(sql, &cat, &rules);
        let got = Executor::new(&cat).execute(&rw.plan).unwrap().sorted_rows();
        assert_eq!(got, expect);
    }

    #[test]
    fn execute_cached_matches_execute_and_invalidates_on_append() {
        use crate::cache::CleanseCache;

        fn all_rows(b: &Batch) -> Vec<Vec<Value>> {
            (0..b.num_rows()).map(|i| b.row(i)).collect()
        }

        // Re-register caser segmented so covering-segment validation is
        // meaningful (several segments, appends create new ones).
        let cat = catalog();
        {
            let base = cat.get("caser").unwrap();
            let mut t = Table::with_segment_rows("caser", base.data().clone(), 16);
            t.create_index("rtime").unwrap();
            t.create_index("epc").unwrap();
            cat.register(t);
        }
        let rules = templates(&[DUP]);
        let engine = RewriteEngine::new();
        let sql = "select epc, rtime from caser where rtime > 800";
        let user_plan = plan_query(&parse_query(sql).unwrap(), &cat).unwrap();
        let rw = engine
            .rewrite_plan(&user_plan, &rules, &cat, Strategy::JoinBack)
            .unwrap();
        let spec = rw.cache_spec.as_ref().expect("join-back produces a spec");
        assert_eq!(spec.ckey, "epc");

        let opts = ExecOptions::default;
        let plain = rw.execute(&cat, opts()).unwrap();
        let cache = CleanseCache::new(64);
        let cold = rw.execute_cached(&cat, opts(), &cache).unwrap();
        assert_eq!(all_rows(&cold.batch), all_rows(&plain.batch));
        assert!(cold.stats.seq_cache_misses > 0);
        assert_eq!(cold.stats.seq_cache_hits, 0);

        let warm = rw.execute_cached(&cat, opts(), &cache).unwrap();
        assert_eq!(all_rows(&warm.batch), all_rows(&plain.batch));
        assert!(warm.stats.seq_cache_hits > 0);
        assert_eq!(warm.stats.seq_cache_misses, 0);

        // Appending a read for e1 extends its covering segments: the stale
        // entry is invalidated and recomputed; other ckeys stay cached.
        let schema = cat.get("caser").unwrap().schema().clone();
        let extra = Batch::from_rows(
            schema,
            &[vec![
                Value::str("e1"),
                Value::Int(950),
                Value::str("locZ"),
                Value::str("r9"),
            ]],
        )
        .unwrap();
        cat.append("caser", extra).unwrap();
        let refreshed = rw.execute_cached(&cat, opts(), &cache).unwrap();
        assert!(refreshed.stats.seq_cache_invalidations >= 1);
        assert!(refreshed.stats.seq_cache_hits > 0, "unaffected ckeys hit");
        let plain2 = rw.execute(&cat, opts()).unwrap();
        assert_eq!(all_rows(&refreshed.batch), all_rows(&plain2.batch));
    }
}
