//! The shape memo: one rewrite per query shape.
//!
//! A rewrite (context-condition analysis, then building, optimizing and
//! costing every candidate) is a pure function of the rule chain, the
//! strategy, the user plan and the catalog's tables. Traffic repeats a few
//! plans that differ only in the cluster key they select (`epc = '…'`), so
//! [`ShapeMemo`] keys each rewrite on
//!
//! * the application and strategy,
//! * the rule chain (by `Arc` identity — the entry holds the `Arc`s, so a
//!   dropped rule's address is never reused while its entries live),
//! * every catalog table's name and [`Table::version`](dc_relational::table::Table::version),
//! * and the user plan with one cluster-key conjunct turned into a slot.
//!
//! A shape keeps one entry, for the table versions it was last rewritten
//! against: an append makes every older version's rewrite dead weight
//! (queries move on to the new snapshot), so a version mismatch is a miss
//! that replaces the entry rather than one that adds to it. And a shape is
//! stored only the second time it is seen: a query whose literals never
//! repeat is rewritten as if there were no memo and leaves nothing behind.
//!
//! **Why one slot is exact.** The rewrite copies a `ckey = 's'` or
//! `ckey IN ('s1', …, 'sn')` conjunct verbatim into the context and expanded
//! conditions, and the cost model never reads its value: equality is 1/NDV,
//! an IN list n/NDV, and a string range the default guess. So the rewrite
//! of the plan with the literals replaced by sentinel strings, with the
//! sentinels then replaced by the literals, is the rewrite of the plan —
//! provided nothing else compares against those literals. `normalize`
//! only makes a slot when that holds: the conjunct is the only filter
//! conjunct naming a `ckey` column next to a literal, its values are
//! distinct non-null strings that occur nowhere else in the plan, and no
//! rule condition or MODIFY names the cluster key. Every other literal stays
//! in the key verbatim: a dashboard's `rtime` bound becomes derived
//! constants (`rtime > b − 300`) in the context condition, so it changes
//! the rewrite.
//!
//! Hits and stored misses take the same path: the memo holds the rewrite
//! of the normalized plan (the template), and [`ShapeMemo::rewrite`] binds
//! the query's literals into it — into the plan, `ec`, `cc` and the cache
//! spec, whose fingerprint hashes `ec` and is recomputed. No selectivity
//! bucket is needed, because no estimate depends on a slot's value.

use crate::cache::JoinBackCacheSpec;
use crate::engine::{Rewritten, Strategy};
use dc_relational::error::Result;
use dc_relational::expr::{split_conjuncts, BinaryOp, Expr};
use dc_relational::plan::LogicalPlan;
use dc_relational::table::Catalog;
use dc_relational::value::Value;
use dc_rules::RuleTemplate;
use dc_sqlts::Action;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Entries the memo holds. A miss that finds it full clears it first:
/// traffic that repeats shapes refills it at once, and traffic that does
/// not gains nothing from an eviction order.
pub const MEMO_ENTRIES: usize = 256;

/// Shapes remembered as seen once; the set is cleared when full.
const SEEN_SHAPES: usize = 4096;

/// Prefix of the sentinel strings that stand in for a slot's literals. A
/// plan or rule that already holds such a string gets no slot.
const SLOT: &str = "\u{0}cluster-key slot ";

/// What a memo hit reused, for EXPLAIN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoHit {
    /// Catalog tables whose versions the entry was validated against.
    pub tables: usize,
    /// Cluster-key literals bound into the shared rewrite.
    pub bound: usize,
}

/// The shape half of the memo key (the table versions are the other
/// half, kept in the entry). Rules compare by `Arc` identity.
struct Key {
    application: String,
    strategy: Strategy,
    rules: Vec<Arc<RuleTemplate>>,
    plan: String,
}

/// One shape's rewrite and the table versions it is valid for.
struct Entry {
    tables: Vec<(String, u64)>,
    template: Arc<Rewritten>,
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.application == other.application
            && self.strategy == other.strategy
            && self.rules.len() == other.rules.len()
            && self
                .rules
                .iter()
                .zip(&other.rules)
                .all(|(a, b)| Arc::ptr_eq(a, b))
            && self.plan == other.plan
    }
}

impl Eq for Key {}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.application.hash(state);
        self.strategy.hash(state);
        for r in &self.rules {
            Arc::as_ptr(r).hash(state);
        }
        self.plan.hash(state);
    }
}

/// Rewrites memoized per (application, strategy, rules, normalized plan),
/// each valid for the table versions it was built against. Callers clear
/// it when a rule or a derived input is defined; the key alone already
/// keeps a stale entry from being hit.
#[derive(Default)]
pub struct ShapeMemo {
    inner: Mutex<Inner>,
}

#[derive(Default)]
struct Inner {
    entries: HashMap<Key, Entry>,
    /// Hashes of the shapes rewritten once. A shape is stored only when it
    /// comes back: traffic whose literals never repeat (jittered time
    /// bounds) would otherwise fill the memo with rewrites that are never
    /// read, at the cost of their memory and of binding each one.
    seen: HashSet<u64>,
}

impl ShapeMemo {
    pub fn new() -> Self {
        ShapeMemo::default()
    }

    /// Forget every entry.
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.entries.clear();
        inner.seen.clear();
    }

    /// The rewrite of `user_plan` for `rules` over `catalog`. `rewrite` is
    /// called at most once: with the user plan itself the first time a
    /// shape is seen, with the normalized plan (then stored) when the shape
    /// comes back and no entry for these table versions exists. A hit is
    /// marked in [`Rewritten::memo_hit`] and is otherwise what a fresh
    /// rewrite returns.
    pub fn rewrite(
        &self,
        application: &str,
        user_plan: &LogicalPlan,
        rules: &[Arc<RuleTemplate>],
        catalog: &Catalog,
        strategy: Strategy,
        rewrite: impl FnOnce(&LogicalPlan) -> Result<Rewritten>,
    ) -> Result<Rewritten> {
        let (plan, values) = normalize(user_plan, rules);
        let key = Key {
            application: application.to_string(),
            strategy,
            rules: rules.to_vec(),
            plan: format!("{plan:?}"),
        };
        let tables = catalog.table_versions();
        let (found, repeated) = {
            let mut inner = self.inner.lock();
            match inner.entries.get(&key) {
                Some(e) if e.tables == tables => (Some(Arc::clone(&e.template)), true),
                Some(_) => (None, true),
                None => {
                    let mut h = std::collections::hash_map::DefaultHasher::new();
                    key.hash(&mut h);
                    if inner.seen.len() >= SEEN_SHAPES {
                        inner.seen.clear();
                    }
                    (None, !inner.seen.insert(h.finish()))
                }
            }
        };
        let hit = found.as_ref().map(|_| MemoHit {
            tables: tables.len(),
            bound: values.len(),
        });
        let template = match found {
            Some(template) => template,
            None if !repeated => return rewrite(user_plan),
            None => {
                let template = Arc::new(rewrite(&plan)?);
                let mut inner = self.inner.lock();
                if inner.entries.len() >= MEMO_ENTRIES && !inner.entries.contains_key(&key) {
                    inner.entries.clear();
                }
                let entry = Entry {
                    tables,
                    template: Arc::clone(&template),
                };
                inner.entries.insert(key, entry);
                template
            }
        };
        let mut out = bind(&template, &values);
        out.memo_hit = hit;
        Ok(out)
    }
}

/// `ckey = 's'`, `'s' = ckey` or `ckey IN ('s1', …)`: the column and the
/// literals, when `e` has one of these forms over a column named `ckey`.
fn slot_form<'e>(e: &'e Expr, ckey: &str) -> Option<Vec<&'e Value>> {
    let is_ckey = |e: &Expr| matches!(e, Expr::Column(c) if c.name.eq_ignore_ascii_case(ckey));
    match e {
        Expr::Binary {
            left,
            op: BinaryOp::Eq,
            right,
        } => match (left.as_ref(), right.as_ref()) {
            (c, Expr::Literal(v)) | (Expr::Literal(v), c) if is_ckey(c) => Some(vec![v]),
            _ => None,
        },
        Expr::InList {
            expr,
            list,
            negated: false,
        } if is_ckey(expr) => Some(list.iter().collect()),
        _ => None,
    }
}

/// Whether `e` names a column called `ckey` and holds a literal. Takes
/// the conjunct by value: the literal walker visits in place.
fn mentions_ckey_and_literal(mut e: Expr, ckey: &str) -> bool {
    let mut ckey_col = false;
    e.for_each_column(&mut |c| ckey_col |= c.name.eq_ignore_ascii_case(ckey));
    let mut literal = false;
    e.for_each_literal_mut(&mut |_| literal = true);
    ckey_col && literal
}

/// Whether a rule's MODIFY assigns the column `ckey`: cleansing may then
/// give a row a cluster key it did not have, so a query's key literals can
/// neither be treated as a slot nor bound the rows it reads.
pub fn rules_modify_ckey(rules: &[Arc<RuleTemplate>], ckey: &str) -> bool {
    rules.iter().any(|r| {
        matches!(&r.def.action, Action::Modify { assignments, .. }
            if assignments.iter().any(|(c, _)| c.eq_ignore_ascii_case(ckey)))
    })
}

/// Whether any rule lets the cluster key's values matter to the rewrite:
/// a condition or MODIFY naming the column, or a sentinel-like literal.
fn rules_read_ckey(rules: &[Arc<RuleTemplate>], ckey: &str) -> bool {
    if rules_modify_ckey(rules, ckey) {
        return true;
    }
    rules.iter().any(|r| {
        let mut exprs = vec![&r.def.condition];
        if let Action::Modify { assignments, .. } = &r.def.action {
            exprs.extend(assignments.iter().map(|(_, e)| e));
        }
        exprs.into_iter().any(|e| {
            let mut hit = false;
            e.for_each_column(&mut |c| hit |= c.name.eq_ignore_ascii_case(ckey));
            e.clone()
                .for_each_literal_mut(&mut |v| hit |= v.is_some_and(|v| is_sentinel(v)));
            hit
        })
    })
}

fn is_sentinel(v: &Value) -> bool {
    matches!(v, Value::Str(s) if s.starts_with(SLOT))
}

/// Filter conjuncts of `plan` (filters and pushed scan filters) that name a
/// `ckey` column next to a literal.
fn ckey_conjuncts(plan: &LogicalPlan, ckey: &str, out: &mut Vec<Expr>) {
    let predicate = match plan {
        LogicalPlan::Filter { predicate, .. } => Some(predicate),
        LogicalPlan::Scan { filter, .. } => filter.as_ref(),
        _ => None,
    };
    for c in predicate.map(split_conjuncts).unwrap_or_default() {
        if mentions_ckey_and_literal(c.clone(), ckey) {
            out.push(c);
        }
    }
    for input in plan.inputs() {
        ckey_conjuncts(input, ckey, out);
    }
}

/// The user plan with its cluster-key slot (if it has one) filled with
/// sentinels, and the literals the slot held, in slot order.
fn normalize(user_plan: &LogicalPlan, rules: &[Arc<RuleTemplate>]) -> (LogicalPlan, Vec<Value>) {
    let unchanged = || (user_plan.clone(), Vec::new());
    let Some(ckey) = rules.first().map(|r| r.def.cluster_by.as_str()) else {
        return unchanged();
    };
    if rules_read_ckey(rules, ckey) {
        return unchanged();
    }
    let mut conjuncts = Vec::new();
    ckey_conjuncts(user_plan, ckey, &mut conjuncts);
    let [slot] = conjuncts.as_slice() else {
        return unchanged();
    };
    let Some(values) = slot_form(slot, ckey) else {
        return unchanged();
    };
    let values: Vec<Value> = values.into_iter().cloned().collect();
    let distinct_strings = values
        .iter()
        .enumerate()
        .all(|(i, v)| matches!(v, Value::Str(_)) && !is_sentinel(v) && !values[..i].contains(v));
    if values.is_empty() || !distinct_strings {
        return unchanged();
    }
    // Each slot value must occur exactly once in the plan (in the slot),
    // and no other literal may look like a sentinel.
    let mut plan = user_plan.clone();
    let mut seen = vec![0usize; values.len()];
    let mut clash = false;
    plan.for_each_expr_mut(&mut |e| {
        e.for_each_literal_mut(&mut |v| {
            let Some(v) = v else { return };
            match values.iter().position(|x| x == v) {
                Some(i) => seen[i] += 1,
                None => clash |= is_sentinel(v),
            }
        })
    });
    if clash || seen.iter().any(|&n| n != 1) {
        return unchanged();
    }
    plan.for_each_expr_mut(&mut |e| {
        e.for_each_literal_mut(&mut |v| {
            let Some(v) = v else { return };
            if let Some(i) = values.iter().position(|x| x == v) {
                *v = Value::str(format!("{SLOT}{i}"));
            }
        })
    });
    (plan, values)
}

/// Replace every sentinel in `e` by the literal of its slot.
fn bind_expr(e: &mut Expr, values: &[Value]) {
    e.for_each_literal_mut(&mut |v| {
        let Some(v) = v else { return };
        let slot = match v {
            Value::Str(s) => s.strip_prefix(SLOT).and_then(|i| i.parse::<usize>().ok()),
            _ => None,
        };
        if let Some(i) = slot {
            *v = values[i].clone();
        }
    });
}

fn bind_plan(plan: &mut LogicalPlan, values: &[Value]) {
    plan.for_each_expr_mut(&mut |e| bind_expr(e, values));
}

/// `template` with `values` bound into its slots: the rewrite of the plan
/// the template was normalized from.
fn bind(template: &Rewritten, values: &[Value]) -> Rewritten {
    let mut out = template.clone();
    if values.is_empty() {
        return out;
    }
    bind_plan(&mut out.plan, values);
    for e in [&mut out.expanded_condition, &mut out.context_condition]
        .into_iter()
        .flatten()
    {
        bind_expr(e, values);
    }
    if let Some(spec) = &mut out.cache_spec {
        bind_plan(&mut spec.seqset, values);
        bind_plan(&mut spec.tail, values);
        if let Some(ec) = &mut spec.ec {
            bind_expr(ec, values);
        }
        spec.fingerprint = JoinBackCacheSpec::fingerprint_of(
            &spec.rules,
            spec.ec.as_ref(),
            &spec.alias,
            &spec.reads_table,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_relational::batch::{schema_ref, Batch};
    use dc_relational::schema::{Field, Schema};
    use dc_relational::sql::plan_sql;
    use dc_relational::table::Table;
    use dc_relational::value::DataType;
    use dc_rules::compile_rule;
    use dc_sqlts::parse_rule;

    const DUP: &str = "DEFINE duplicate ON caseR CLUSTER BY epc SEQUENCE BY rtime AS (A, B) \
        WHERE A.biz_loc = B.biz_loc and B.rtime - A.rtime < 5 mins ACTION DELETE B";

    fn catalog() -> Catalog {
        let schema = schema_ref(Schema::new(vec![
            Field::new("epc", DataType::Str),
            Field::new("rtime", DataType::Int),
            Field::new("biz_loc", DataType::Str),
        ]));
        let row = vec![Value::str("e1"), Value::Int(1), Value::str("l1")];
        let cat = Catalog::new();
        cat.register(Table::new(
            "caser",
            Batch::from_rows(schema, &[row]).unwrap(),
        ));
        cat
    }

    fn rules(text: &str) -> Vec<Arc<RuleTemplate>> {
        vec![Arc::new(compile_rule(&parse_rule(text).unwrap()).unwrap())]
    }

    fn slot_values(sql: &str, rule: &str) -> Vec<Value> {
        let plan = plan_sql(sql, &catalog()).unwrap();
        normalize(&plan, &rules(rule)).1
    }

    #[test]
    fn one_cluster_key_conjunct_becomes_a_slot() {
        let plan = plan_sql(
            "select epc from caser where epc = 'e1' and rtime < 5",
            &catalog(),
        )
        .unwrap();
        let (normalized, values) = normalize(&plan, &rules(DUP));
        assert_eq!(values, vec![Value::str("e1")]);
        assert!(format!("{normalized:?}").contains("cluster-key slot 0"));
        assert!(!format!("{normalized:?}").contains("\"e1\""));
        let sql = "select epc from caser where epc in ('e2', 'e1', 'e3')";
        assert_eq!(slot_values(sql, DUP).len(), 3);
    }

    #[test]
    fn literals_that_could_matter_make_no_slot() {
        for sql in [
            // The same literal elsewhere in the plan.
            "select epc from caser where epc = 'e1' and biz_loc = 'e1'",
            // A repeated IN value, a NULL, a non-string.
            "select epc from caser where epc in ('e1', 'e1')",
            "select epc from caser where epc in ('e1', null)",
            // A second conjunct comparing the cluster key with a literal.
            "select epc from caser where epc = 'e1' and epc >= 'a'",
            // A negated list.
            "select epc from caser where epc not in ('e1')",
        ] {
            assert!(slot_values(sql, DUP).is_empty(), "{sql}");
        }
        // A rule whose condition names the cluster key.
        let reads_ckey = "DEFINE odd ON caseR CLUSTER BY epc SEQUENCE BY rtime AS (A, B) \
            WHERE A.epc = 'e1' and A.biz_loc = B.biz_loc ACTION DELETE B";
        assert!(slot_values("select epc from caser where epc = 'e1'", reads_ckey).is_empty());
    }
}
