//! The deferred-cleansing system facade — the paper's Figure 1 end to end.
//!
//! 1. Applications register cleansing rules in extended SQL-TS
//!    ([`DeferredCleansingSystem::define_rule`]); the rule engine compiles
//!    each to a SQL/OLAP template persisted in the rules table.
//! 2. User SQL is intercepted ([`DeferredCleansingSystem::query`]), rewritten
//!    against the application's rules by the rewrite engine, executed, and
//!    cleansed results returned.

use dc_json::Json;
use dc_relational::batch::Batch;
use dc_relational::error::Result;
use dc_relational::exec::{ExecStats, Executor};
use dc_relational::explain::{logical_to_json, physical_to_json};
use dc_relational::physical::{display_physical, lower, ExecOptions, OperatorMetrics, QueryBudget};
use dc_relational::plan::LogicalPlan;
use dc_relational::sql::{parse_query, plan_query, plan_sql};
use dc_relational::table::{Catalog, CatalogRef};
use dc_rewrite::{
    CacheStats, Candidate, CleanseCache, DecisionTrace, Executed, RewriteEngine, Rewritten,
    ShapeMemo, Strategy,
};
use dc_rules::RuleCatalog;
use parking_lot::RwLock;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Execution report for one deferred-cleansing query.
#[derive(Debug, Clone)]
pub struct QueryReport {
    /// Strategy the rewrite ran with (`"Auto"`, `"Expanded"`, …).
    pub strategy: String,
    /// Label of the rewrite the cost model selected.
    pub chosen: String,
    /// Every compiled candidate with its cost estimate (cheapest first).
    pub candidates: Vec<Candidate>,
    /// The expanded condition, as text, when one was derived.
    pub expanded_condition: Option<String>,
    /// The overall context condition, as text, when one was derived.
    pub context_condition: Option<String>,
    /// Engine diagnostics (e.g. soundness fallbacks).
    pub notes: Vec<String>,
    /// Executor work counters of the final run.
    pub stats: ExecStats,
    /// Wall-clock time of rewrite + execution.
    pub elapsed: Duration,
    /// EXPLAIN rendering of the executed plan.
    pub plan: String,
    /// Result rows returned.
    pub result_rows: usize,
    /// Wall-clock nanoseconds spent in window evaluation (the Φ_C hot
    /// path) — the one quantity that should improve with parallelism.
    pub window_eval_nanos: u64,
    /// Parallelism the query ran with.
    pub parallelism: usize,
    /// Per-operator metrics tree of the executed physical plan.
    pub metrics: Option<OperatorMetrics>,
}

impl QueryReport {
    /// Split a finished run into its rows and its report. The rewrite is
    /// consumed, so the decision it carries is moved, never cloned;
    /// `strategy` is the label the rewrite ran under (`"Auto"`, `"Dirty"`, …).
    pub fn from_run(
        strategy: &str,
        rewritten: Rewritten,
        run: Executed,
        elapsed: Duration,
        parallelism: usize,
    ) -> (Batch, QueryReport) {
        let report = QueryReport {
            strategy: strategy.to_string(),
            chosen: rewritten.chosen,
            candidates: rewritten.candidates,
            expanded_condition: rewritten.expanded_condition.map(|e| e.to_string()),
            context_condition: rewritten.context_condition.map(|e| e.to_string()),
            notes: rewritten.notes,
            stats: run.stats,
            elapsed,
            plan: rewritten.plan.display_indent(),
            result_rows: run.batch.num_rows(),
            window_eval_nanos: run.window_eval_nanos,
            parallelism,
            metrics: run.metrics,
        };
        (run.batch, report)
    }
}

/// Cleansed-sequence cache activity of one executed query (join-back
/// rewrites only; the counters are per-run, not cache lifetime totals).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheActivity {
    /// Sequences answered from the cache.
    pub hits: u64,
    /// Sequences that had to be cleansed.
    pub misses: u64,
    /// Stale entries evicted because their covering segments changed.
    pub invalidations: u64,
}

/// The result of `EXPLAIN` / `EXPLAIN ANALYZE` on one application query:
/// the rewrite decision trace, the chosen logical and physical plans, and
/// — in analyze mode — the executed plan's per-operator metrics.
#[derive(Debug, Clone)]
pub struct ExplainReport {
    /// Why this rewrite: strategy, candidates with costs, conditions.
    pub trace: DecisionTrace,
    /// The chosen, optimized logical plan.
    pub plan: LogicalPlan,
    /// Indented text of the lowered physical operator tree.
    pub physical_text: String,
    /// JSON tree of the lowered physical operator tree.
    pub physical_json: Json,
    /// Executed per-operator metrics (`EXPLAIN ANALYZE` only).
    pub metrics: Option<OperatorMetrics>,
    /// Result row count (`EXPLAIN ANALYZE` only).
    pub result_rows: Option<usize>,
    /// Cleansed-sequence cache activity (`EXPLAIN ANALYZE` with the cache
    /// enabled and a cacheable join-back plan only).
    pub cache: Option<CacheActivity>,
}

impl ExplainReport {
    /// Text rendering. The header lines carry the decision trace (prefixed
    /// `--` so the whole block stays valid SQL commentary); then the logical
    /// plan, and the physical plan — annotated per-operator with rows and
    /// work counters when the query was actually executed.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for line in self.trace.render_text().lines() {
            out.push_str("-- ");
            out.push_str(line);
            out.push('\n');
        }
        if let Some(rows) = self.result_rows {
            out.push_str(&format!("-- result rows: {rows}\n"));
        }
        if let Some(c) = &self.cache {
            out.push_str(&format!(
                "-- cleanse cache: hits={} misses={} invalidations={}\n",
                c.hits, c.misses, c.invalidations
            ));
        }
        out.push_str(&self.plan.display_indent());
        out.push_str("-- physical plan:\n");
        match &self.metrics {
            Some(m) => out.push_str(&m.render_text(false)),
            None => out.push_str(&self.physical_text),
        }
        out
    }

    /// Machine-readable form: decision trace + logical/physical plan trees
    /// (+ executed metrics in analyze mode). Deterministic — per-operator
    /// timings are deliberately omitted so snapshots stay byte-stable.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("trace", self.trace.to_json())
            .set("logical_plan", logical_to_json(&self.plan))
            .set("physical_plan", self.physical_json.clone())
            .set(
                "metrics",
                self.metrics
                    .as_ref()
                    .map_or(Json::Null, |m| m.to_json(false)),
            )
            .set(
                "result_rows",
                self.result_rows.map_or(Json::Null, Json::from),
            )
            .set(
                "cleanse_cache",
                self.cache.map_or(Json::Null, |c| {
                    Json::obj()
                        .set("hits", Json::from(c.hits))
                        .set("misses", Json::from(c.misses))
                        .set("invalidations", Json::from(c.invalidations))
                }),
            )
    }
}

/// The deferred cleansing system: data catalog + rules table + rewrite
/// engine, exposed through a SQL front door.
pub struct DeferredCleansingSystem {
    catalog: CatalogRef,
    rules: RuleCatalog,
    engine: RwLock<RewriteEngine>,
    /// One rewrite per query shape (see [`dc_rewrite::memo`]).
    memo: ShapeMemo,
    exec_options: ExecOptions,
    cleanse_cache: Option<CleanseCache>,
}

impl Default for DeferredCleansingSystem {
    fn default() -> Self {
        Self::new()
    }
}

impl DeferredCleansingSystem {
    /// A system over a fresh, empty catalog.
    pub fn new() -> Self {
        Self::with_catalog(Arc::new(Catalog::new()))
    }

    /// A system over an existing catalog (e.g. one loaded by RFIDGen).
    pub fn with_catalog(catalog: CatalogRef) -> Self {
        DeferredCleansingSystem {
            catalog,
            rules: RuleCatalog::new(),
            engine: RwLock::new(RewriteEngine::new()),
            memo: ShapeMemo::new(),
            exec_options: ExecOptions::default(),
            cleanse_cache: None,
        }
    }

    /// Enable the cleansed-sequence cache with room for `capacity` cached
    /// sequences. Join-back rewrites then memoize Φ output per
    /// (rule-set fingerprint, cluster key, covering segments); appends to
    /// the reads table invalidate exactly the touched keys. Results are
    /// byte-identical to uncached execution.
    pub fn enable_cleanse_cache(&mut self, capacity: usize) {
        self.cleanse_cache = Some(CleanseCache::new(capacity));
    }

    /// [`Self::enable_cleanse_cache`] for a shard-local system: the cache
    /// key is salted with the shard id so entries can never alias across
    /// shards that number their own segments independently from 0.
    pub fn enable_cleanse_cache_for_shard(&mut self, capacity: usize, shard: u64) {
        self.cleanse_cache = Some(CleanseCache::for_shard(capacity, shard));
    }

    /// Lifetime counters of the cleansed-sequence cache, when enabled.
    pub fn cleanse_cache_stats(&self) -> Option<CacheStats> {
        self.cleanse_cache.as_ref().map(CleanseCache::stats)
    }

    /// Set the number of worker threads for partition-parallel cleansing.
    /// Results and work counters are identical at any parallelism.
    pub fn set_parallelism(&mut self, parallelism: usize) {
        self.exec_options = ExecOptions::with_parallelism(parallelism);
    }

    /// The execution options queries run with.
    pub fn exec_options(&self) -> ExecOptions {
        self.exec_options
    }

    /// The underlying data catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The rules table.
    pub fn rules(&self) -> &RuleCatalog {
        &self.rules
    }

    /// Define a cleansing rule for an application (Figure 1, steps 1–2).
    /// Returns the rule id.
    pub fn define_rule(&self, application: &str, rule_text: &str) -> Result<u64> {
        let id = self
            .rules
            .define_rule(application, rule_text, &self.catalog)?;
        self.memo.clear();
        Ok(id)
    }

    /// Drop a rule by application and rule name.
    pub fn drop_rule(&self, application: &str, name: &str) -> Result<()> {
        self.rules.drop_rule(application, name)?;
        self.memo.clear();
        Ok(())
    }

    /// Register the plan backing a derived rule input (a rule's FROM table
    /// that is neither the reads table nor a materialized catalog table).
    pub fn register_derived_input(&self, name: &str, plan: LogicalPlan) {
        let mut engine = self.engine.write();
        engine.register_derived_input(name, plan);
        self.memo.clear();
    }

    /// Names of the registered derived rule inputs (sorted). Their plans
    /// live only in this system's rewrite engine: a copy of the system
    /// built from its catalog and rules JSON does not carry them.
    pub fn derived_inputs(&self) -> Vec<String> {
        self.engine.read().derived_input_names()
    }

    /// The plan registered for derived input `name`, if one is.
    pub fn derived_input(&self, name: &str) -> Option<LogicalPlan> {
        self.engine.read().derived_input(name).cloned()
    }

    /// Run a query for an application over cleansed data (Figure 1,
    /// steps 3–6), using the cost-based strategy choice.
    pub fn query(&self, application: &str, sql: &str) -> Result<Batch> {
        self.query_with_strategy(application, sql, Strategy::Auto)
            .map(|(batch, _)| batch)
    }

    /// [`DeferredCleansingSystem::query`] with an explicit rewrite strategy
    /// and a full execution report.
    pub fn query_with_strategy(
        &self,
        application: &str,
        sql: &str,
        strategy: Strategy,
    ) -> Result<(Batch, QueryReport)> {
        self.query_with_budget(application, sql, strategy, QueryBudget::unlimited())
    }

    /// [`DeferredCleansingSystem::query_with_strategy`] under a
    /// [`QueryBudget`] (deadline, row budget, cooperative cancellation).
    /// A tripped budget returns `Error::Aborted` and no partial rows.
    pub fn query_with_budget(
        &self,
        application: &str,
        sql: &str,
        strategy: Strategy,
        budget: QueryBudget,
    ) -> Result<(Batch, QueryReport)> {
        self.query_snapshot(&self.catalog, application, sql, strategy, budget)
    }

    /// Run an application query against an explicit catalog snapshot —
    /// planning, rewriting, and executing all see `catalog`, not the
    /// system's own. The snapshot is immutable for the duration of the
    /// call, so concurrent appends to the live catalog never tear a running
    /// query. Rules, the rewrite engine, and the cleansed-sequence cache
    /// are shared (all are internally synchronized).
    pub fn query_snapshot(
        &self,
        catalog: &Catalog,
        application: &str,
        sql: &str,
        strategy: Strategy,
        budget: QueryBudget,
    ) -> Result<(Batch, QueryReport)> {
        let start = Instant::now();
        let rewritten = self.rewrite_snapshot(catalog, application, sql, strategy)?;
        let run = self.execute_rewritten_snapshot(catalog, &rewritten, budget)?;
        Ok(QueryReport::from_run(
            &format!("{strategy:?}"),
            rewritten,
            run,
            start.elapsed(),
            self.exec_options.parallelism,
        ))
    }

    /// Parse, plan, and rewrite an application query against an explicit
    /// catalog snapshot *without executing it* — the first of the two
    /// steps every query path takes ([`Self::execute_rewritten_snapshot`]
    /// is the second). The service rewrites once and hands the same
    /// rewritten plan to every shard (shard catalogs share one schema, so
    /// a plan rewritten against any of them is valid on all).
    pub fn rewrite_snapshot(
        &self,
        catalog: &Catalog,
        application: &str,
        sql: &str,
        strategy: Strategy,
    ) -> Result<Rewritten> {
        let user_plan = plan_query(&parse_query(sql)?, catalog)?;
        self.rewrite_plan_snapshot(catalog, application, &user_plan, strategy)
    }

    /// [`Self::rewrite_snapshot`] for a caller that already holds the
    /// planned user query (the service coordinator, the standing-query
    /// maintainer). Rewrites are memoized per query shape: a plan that
    /// differs from an earlier one only in its cluster-key literals, over
    /// the same table versions and rules, reuses that rewrite with its
    /// literals bound in — exactly what a fresh rewrite returns, marked in
    /// [`Rewritten::memo_hit`]. Rule-less applications bypass the memo.
    pub fn rewrite_plan_snapshot(
        &self,
        catalog: &Catalog,
        application: &str,
        user_plan: &LogicalPlan,
        strategy: Strategy,
    ) -> Result<Rewritten> {
        let rules = self.rules.rules_for(application);
        // The memo is filled under the engine's read lock, so a derived
        // input registered meanwhile (under the write lock) clears it
        // after any entry built from the old one.
        let engine = self.engine.read();
        if rules.is_empty() {
            return engine.rewrite_plan(user_plan, &rules, catalog, strategy);
        }
        self.memo
            .rewrite(application, user_plan, &rules, catalog, strategy, |plan| {
                engine.rewrite_plan(plan, &rules, catalog, strategy)
            })
    }

    /// Execute an already-rewritten plan against an explicit catalog
    /// snapshot under a budget, routing through this system's
    /// cleansed-sequence cache when it is enabled and the rewrite produced
    /// a cacheable join-back plan. The cache is shared across catalog
    /// snapshots: entries are validated against the covering segments of
    /// the *probing* snapshot's reads table, so a query running against an
    /// older epoch can never be served rows cleansed from a newer one (and
    /// vice versa). A shard executor runs the coordinator's rewritten plan
    /// against its own shard snapshot while keeping its own shard-local
    /// cache.
    pub fn execute_rewritten_snapshot(
        &self,
        catalog: &Catalog,
        rewritten: &Rewritten,
        budget: QueryBudget,
    ) -> Result<Executed> {
        match &self.cleanse_cache {
            Some(cache) if rewritten.cache_spec.is_some() => {
                rewritten.execute_cached_with_budget(catalog, self.exec_options, cache, budget)
            }
            _ => rewritten.execute_with_budget(catalog, self.exec_options, budget),
        }
    }

    /// Run a query directly on the (dirty) data — the paper's baseline `q`.
    /// The result is generally *not* the correct cleansed answer.
    pub fn query_dirty(&self, sql: &str) -> Result<Batch> {
        let plan = plan_sql(sql, &self.catalog)?;
        Executor::with_options(&self.catalog, self.exec_options).execute(&plan)
    }

    /// [`DeferredCleansingSystem::query_dirty`] with an execution report:
    /// the identity rewrite through the same run → report step.
    pub fn query_dirty_with_report(&self, sql: &str) -> Result<(Batch, QueryReport)> {
        let start = Instant::now();
        let dirty = Rewritten {
            plan: plan_sql(sql, &self.catalog)?,
            chosen: "dirty (no cleansing)".into(),
            candidates: vec![],
            expanded_condition: None,
            context_condition: None,
            notes: vec![],
            cache_spec: None,
            memo_hit: None,
        };
        let run = dirty.execute(&self.catalog, self.exec_options)?;
        Ok(QueryReport::from_run(
            "Dirty",
            dirty,
            run,
            start.elapsed(),
            self.exec_options.parallelism,
        ))
    }

    /// EXPLAIN: the rewritten plan an application query would execute,
    /// rendered as text. Shorthand for [`Self::explain_report`]`.text()`
    /// without executing the query.
    pub fn explain(&self, application: &str, sql: &str, strategy: Strategy) -> Result<String> {
        Ok(self
            .explain_report(application, sql, strategy, false)?
            .text())
    }

    /// EXPLAIN / EXPLAIN ANALYZE: rewrite an application query and report
    /// the decision trace, the chosen logical plan, and the lowered
    /// physical plan. With `analyze` the query is also executed and the
    /// report carries per-operator metrics (rows in/out, comparisons,
    /// partitions) for every physical operator.
    pub fn explain_report(
        &self,
        application: &str,
        sql: &str,
        strategy: Strategy,
        analyze: bool,
    ) -> Result<ExplainReport> {
        let rewritten = self.rewrite_snapshot(&self.catalog, application, sql, strategy)?;
        let run = if analyze {
            let budget = QueryBudget::unlimited();
            Some(self.execute_rewritten_snapshot(&self.catalog, &rewritten, budget)?)
        } else {
            None
        };
        self.explain_rewritten(&self.catalog, strategy, rewritten, run)
    }

    /// The one place an [`ExplainReport`] is built: the decision trace and
    /// plans of `rewritten`, plus — when `run` is the execution of that
    /// rewrite — its operator metrics, row count and cache activity. The
    /// service passes the run it already paid for, so EXPLAIN ANALYZE there
    /// rewrites and executes exactly once.
    pub fn explain_rewritten(
        &self,
        catalog: &Catalog,
        strategy: Strategy,
        rewritten: Rewritten,
        run: Option<Executed>,
    ) -> Result<ExplainReport> {
        let trace = rewritten.decision_trace(strategy);
        let physical = lower(&rewritten.plan, catalog)?;
        let cached = self.cleanse_cache.is_some() && rewritten.cache_spec.is_some();
        let (metrics, result_rows, cache) = match run {
            Some(run) => {
                let cache = cached.then_some(CacheActivity {
                    hits: run.stats.seq_cache_hits,
                    misses: run.stats.seq_cache_misses,
                    invalidations: run.stats.seq_cache_invalidations,
                });
                (run.metrics, Some(run.batch.num_rows()), cache)
            }
            None => (None, None, None),
        };
        Ok(ExplainReport {
            trace,
            plan: rewritten.plan,
            physical_text: display_physical(physical.as_ref()),
            physical_json: physical_to_json(physical.as_ref()),
            metrics,
            result_rows,
            cache,
        })
    }

    /// Eager cleansing (the conventional approach the paper contrasts with,
    /// §1/§6.1): materialize Φ over an application's rules into a new table.
    /// Queries against the materialized table pay no cleansing overhead —
    /// but every application would need its own copy, kept in sync as rules
    /// evolve, and the raw data is no longer what regulation may require.
    ///
    /// Returns the number of rows in the cleansed table. Indexes matching
    /// the source table's are rebuilt on the copy.
    pub fn materialize_cleansed(&self, application: &str, target_table: &str) -> Result<usize> {
        use dc_relational::table::Table;
        let rules = self.rules.rules_for(application);
        let Some(first) = rules.first() else {
            return Err(dc_relational::error::Error::Plan(format!(
                "application '{application}' has no rules to materialize"
            )));
        };
        let source = first.def.on_table.clone();
        let input = first.def.from_table.clone();
        let rule_refs: Vec<&dc_rules::RuleTemplate> =
            rules.iter().map(std::sync::Arc::as_ref).collect();
        let (cleaned, _stats) = dc_rules::materialize_phi(
            LogicalPlan::scan(input),
            &rule_refs,
            &self.catalog,
            self.exec_options,
        )?;
        // Keep only the ON table's columns (MODIFY may have appended more,
        // and a derived input carries extras like is_pallet).
        let base = self.catalog.get(&source)?;
        let cols: Vec<_> = base
            .schema()
            .fields()
            .iter()
            .map(|f| {
                cleaned
                    .schema()
                    .index_of(None, &f.name)
                    .map(|i| cleaned.column(i).clone())
            })
            .collect::<Result<_>>()?;
        let batch = dc_relational::batch::Batch::new(base.schema().clone(), cols)?;
        let rows = batch.num_rows();
        let mut table = Table::new(target_table, batch);
        for col in base.indexed_columns() {
            table.create_index(col)?;
        }
        self.catalog.register(table);
        Ok(rows)
    }

    /// Persist the rules table to JSON.
    pub fn rules_to_json(&self) -> String {
        self.rules.to_json()
    }

    /// Restore the rules table from JSON (replacing the current one).
    pub fn load_rules_from_json(&mut self, json: &str) -> Result<()> {
        self.rules = RuleCatalog::from_json(json, &self.catalog)?;
        self.memo.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_relational::batch::schema_ref;
    use dc_relational::schema::{Field, Schema};
    use dc_relational::table::Table;
    use dc_relational::value::{DataType, Value};

    fn system() -> DeferredCleansingSystem {
        let catalog = Arc::new(Catalog::new());
        let schema = schema_ref(Schema::new(vec![
            Field::new("epc", DataType::Str),
            Field::new("rtime", DataType::Int),
            Field::new("biz_loc", DataType::Str),
            Field::new("reader", DataType::Str),
        ]));
        let rows = vec![
            vec![
                Value::str("e1"),
                Value::Int(100),
                Value::str("x"),
                Value::str("r1"),
            ],
            vec![
                Value::str("e1"),
                Value::Int(200),
                Value::str("x"),
                Value::str("r1"),
            ],
            vec![
                Value::str("e1"),
                Value::Int(5000),
                Value::str("y"),
                Value::str("r1"),
            ],
            vec![
                Value::str("e2"),
                Value::Int(150),
                Value::str("z"),
                Value::str("r1"),
            ],
        ];
        let mut t = Table::new("caser", Batch::from_rows(schema, &rows).unwrap());
        t.create_index("rtime").unwrap();
        t.create_index("epc").unwrap();
        catalog.register(t);
        DeferredCleansingSystem::with_catalog(catalog)
    }

    const DUP: &str = "DEFINE duplicate ON caseR CLUSTER BY epc SEQUENCE BY rtime AS (A, B) \
        WHERE A.biz_loc = B.biz_loc and B.rtime - A.rtime < 5 mins ACTION DELETE B";

    #[test]
    fn end_to_end_flow() {
        let sys = system();
        sys.define_rule("app", DUP).unwrap();
        // Dirty query sees 4 rows; cleansed sees 3 (one duplicate removed).
        let dirty = sys.query_dirty("select epc, rtime from caser").unwrap();
        assert_eq!(dirty.num_rows(), 4);
        let clean = sys.query("app", "select epc, rtime from caser").unwrap();
        assert_eq!(clean.num_rows(), 3);
        // Another application without rules sees everything.
        let other = sys
            .query("other_app", "select epc, rtime from caser")
            .unwrap();
        assert_eq!(other.num_rows(), 4);
    }

    #[test]
    fn report_contains_candidates_and_stats() {
        let sys = system();
        sys.define_rule("app", DUP).unwrap();
        let (_, report) = sys
            .query_with_strategy(
                "app",
                "select epc from caser where rtime < 300",
                Strategy::Auto,
            )
            .unwrap();
        assert!(!report.candidates.is_empty());
        assert!(report.stats.rows_scanned > 0);
        assert!(report.plan.contains("Window"));
    }

    #[test]
    fn explain_renders() {
        let sys = system();
        sys.define_rule("app", DUP).unwrap();
        let out = sys
            .explain(
                "app",
                "select epc from caser where rtime < 300",
                Strategy::Auto,
            )
            .unwrap();
        assert!(out.contains("-- chosen:"));
        assert!(out.contains("Scan caser"));
    }

    #[test]
    fn explain_analyze_reports_metrics() {
        let sys = system();
        sys.define_rule("app", DUP).unwrap();
        let rep = sys
            .explain_report(
                "app",
                "select epc from caser where rtime < 300",
                Strategy::Auto,
                true,
            )
            .unwrap();
        // The trace carries the decision with costs.
        assert!(!rep.trace.candidates.is_empty());
        assert_eq!(rep.trace.chosen, rep.trace.candidates[0].label);
        // Analyze mode executed the plan: metrics tree + result count.
        let m = rep.metrics.as_ref().expect("analyze records metrics");
        assert!(m.node_count() > 1);
        assert!(rep.result_rows.is_some());
        let text = rep.text();
        assert!(text.contains("-- chosen:"));
        assert!(text.contains("rows_out="));
        // JSON form is complete and deterministic (no timings).
        let j = rep.to_json();
        assert!(j.get("trace").is_some());
        assert!(j.get("logical_plan").is_some());
        assert!(j.get("physical_plan").is_some());
        assert!(j.get("metrics").and_then(|m| m.get("rows_out")).is_some());
        assert!(!j.pretty().contains("time_ms"));

        // Plain EXPLAIN does not execute: no metrics, physical tree shown.
        let rep = sys
            .explain_report(
                "app",
                "select epc from caser where rtime < 300",
                Strategy::Auto,
                false,
            )
            .unwrap();
        assert!(rep.metrics.is_none());
        assert!(rep.text().contains("WindowExec"));
    }

    #[test]
    fn query_report_carries_metrics_tree() {
        let mut sys = system();
        sys.define_rule("app", DUP).unwrap();
        let (_, report) = sys
            .query_with_strategy("app", "select epc from caser", Strategy::Auto)
            .unwrap();
        let m = report.metrics.as_ref().expect("execution records metrics");
        // The flat counters are the fold of the metrics tree.
        assert!(report.stats.partitions_executed > 0);
        assert_eq!(m.total_stats(), report.stats);

        // So they are through the cleanse cache's join-back, whose root is
        // the cache's own node: cold (misses), then warm (hits).
        sys.enable_cleanse_cache(64);
        let sql = "select epc, rtime from caser where rtime < 300";
        for pass in ["cold", "warm"] {
            let (_, report) = sys
                .query_with_strategy("app", sql, Strategy::JoinBack)
                .unwrap();
            let m = report.metrics.as_ref().expect("execution records metrics");
            assert_eq!(m.name, "CleanseCacheExec", "{pass}");
            assert!(
                m.stats.seq_cache_hits + m.stats.seq_cache_misses > 0,
                "{pass}"
            );
            assert_eq!(m.total_stats(), report.stats, "{pass}");
        }
    }

    #[test]
    fn rules_json_roundtrip() {
        let mut sys = system();
        sys.define_rule("app", DUP).unwrap();
        let json = sys.rules_to_json();
        sys.load_rules_from_json(&json).unwrap();
        assert_eq!(sys.rules().len(), 1);
        let clean = sys.query("app", "select epc from caser").unwrap();
        assert_eq!(clean.num_rows(), 3);
    }

    #[test]
    fn drop_rule_restores_dirty_view() {
        let sys = system();
        sys.define_rule("app", DUP).unwrap();
        sys.drop_rule("app", "duplicate").unwrap();
        let out = sys.query("app", "select epc from caser").unwrap();
        assert_eq!(out.num_rows(), 4);
    }

    #[test]
    fn eager_materialization() {
        let sys = system();
        sys.define_rule("app", DUP).unwrap();
        let rows = sys.materialize_cleansed("app", "caser_clean").unwrap();
        assert_eq!(rows, 3);
        // The eager copy answers directly, matching the deferred answer.
        let eager = sys
            .query_dirty("select epc, rtime from caser_clean")
            .unwrap();
        let deferred = sys.query("app", "select epc, rtime from caser").unwrap();
        assert_eq!(eager.sorted_rows(), deferred.sorted_rows());
        // Indexes were carried over.
        assert!(sys
            .catalog()
            .get("caser_clean")
            .unwrap()
            .index("rtime")
            .is_some());
        // No rules -> nothing to materialize.
        assert!(sys.materialize_cleansed("norules", "x").is_err());
    }

    #[test]
    fn parallelism_is_transparent() {
        let sys = system();
        sys.define_rule("app", DUP).unwrap();
        let (serial, serial_report) = sys
            .query_with_strategy("app", "select epc, rtime from caser", Strategy::Auto)
            .unwrap();
        for p in [2, 8] {
            let mut par_sys = system();
            par_sys.define_rule("app", DUP).unwrap();
            par_sys.set_parallelism(p);
            assert_eq!(par_sys.exec_options().parallelism, p);
            let (par, par_report) = par_sys
                .query_with_strategy("app", "select epc, rtime from caser", Strategy::Auto)
                .unwrap();
            assert_eq!(par.sorted_rows(), serial.sorted_rows());
            assert_eq!(par_report.stats, serial_report.stats);
            assert_eq!(par_report.chosen, serial_report.chosen);
            assert_eq!(par_report.parallelism, p);
        }
    }

    #[test]
    fn cleanse_cache_end_to_end() {
        let mut sys = system();
        sys.define_rule("app", DUP).unwrap();
        sys.enable_cleanse_cache(64);
        let sql = "select epc, rtime from caser where rtime < 300";

        let (cold, cold_rep) = sys
            .query_with_strategy("app", sql, Strategy::JoinBack)
            .unwrap();
        assert!(cold_rep.stats.seq_cache_misses > 0);
        assert_eq!(cold_rep.stats.seq_cache_hits, 0);

        let (warm, warm_rep) = sys
            .query_with_strategy("app", sql, Strategy::JoinBack)
            .unwrap();
        assert!(warm_rep.stats.seq_cache_hits > 0);
        assert_eq!(warm_rep.stats.seq_cache_misses, 0);
        assert_eq!(warm.sorted_rows(), cold.sorted_rows());

        // An uncached system agrees byte for byte.
        let plain_sys = system();
        plain_sys.define_rule("app", DUP).unwrap();
        let plain = plain_sys.query("app", sql).unwrap();
        assert_eq!(warm.sorted_rows(), plain.sorted_rows());

        // Appending a read for e1 invalidates exactly that sequence.
        let schema = sys.catalog().get("caser").unwrap().schema().clone();
        let extra = Batch::from_rows(
            schema,
            &[vec![
                Value::str("e1"),
                Value::Int(120),
                Value::str("x"),
                Value::str("r1"),
            ]],
        )
        .unwrap();
        sys.catalog().append("caser", extra).unwrap();
        let (after, after_rep) = sys
            .query_with_strategy("app", sql, Strategy::JoinBack)
            .unwrap();
        assert!(after_rep.stats.seq_cache_invalidations >= 1);
        let fresh = system();
        fresh.define_rule("app", DUP).unwrap();
        let extra2 = Batch::from_rows(
            fresh.catalog().get("caser").unwrap().schema().clone(),
            &[vec![
                Value::str("e1"),
                Value::Int(120),
                Value::str("x"),
                Value::str("r1"),
            ]],
        )
        .unwrap();
        fresh.catalog().append("caser", extra2).unwrap();
        let expect = fresh.query("app", sql).unwrap();
        assert_eq!(after.sorted_rows(), expect.sorted_rows());

        // Lifetime counters accumulate across runs.
        let total = sys.cleanse_cache_stats().unwrap();
        assert!(total.hits >= warm_rep.stats.seq_cache_hits);
        assert!(total.invalidations >= 1);
    }

    #[test]
    fn explain_analyze_reports_cache_line() {
        let mut sys = system();
        sys.define_rule("app", DUP).unwrap();
        sys.enable_cleanse_cache(64);
        let sql = "select epc, rtime from caser where rtime < 300";
        let rep = sys
            .explain_report("app", sql, Strategy::JoinBack, true)
            .unwrap();
        let c = rep.cache.expect("cache activity recorded");
        assert!(c.misses > 0);
        assert!(rep.text().contains("-- cleanse cache: hits=0 misses="));
        assert!(rep
            .to_json()
            .get("cleanse_cache")
            .and_then(|j| j.get("misses"))
            .is_some());
        // Without analyze, no cache activity is recorded.
        let rep = sys
            .explain_report("app", sql, Strategy::JoinBack, false)
            .unwrap();
        assert!(rep.cache.is_none());
        assert!(!rep.text().contains("cleanse cache"));
    }

    #[test]
    fn bad_sql_is_an_error() {
        let sys = system();
        assert!(sys.query("app", "select from").is_err());
        assert!(sys.define_rule("app", "DEFINE nonsense").is_err());
    }
}
