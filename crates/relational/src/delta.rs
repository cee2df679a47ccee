//! Delta-application helpers for incremental standing-query maintenance.
//!
//! The streaming subsystem maintains each standing query's result across
//! epochs by re-executing only the part of the plan touched by an append —
//! the sequences of the appended cluster keys — and diffing the scoped
//! results. Everything here is deliberately engine-agnostic plumbing:
//!
//! * [`scope_scans`] ANDs a `ckey IN (…)` restriction into every scan of
//!   the cleansed table and of the rules' FROM table, producing the
//!   "re-cleanse only these sequences" plan (sound because rules partition
//!   by the cluster key, so a restriction on it commutes with Φ);
//! * [`scan_count`] / [`plan_tables`] answer the decomposability questions
//!   the maintenance planner asks ("how many times does the plan read the
//!   cleansed table?", "does this append touch the query at all?");
//! * [`multiset_diff`] / [`remove_rows`] are the multiset algebra a change
//!   feed is folded with: `new = old − deleted + inserted`.
//!
//! Row identity throughout is **byte identity under the engine's total
//! value order** ([`Value::total_cmp`] lexicographically over the row), the
//! same order `Batch::sorted_rows` canonicalizes with.

use crate::batch::Batch;
use crate::error::{Error, Result};
use crate::exec::ExecStats;
use crate::expr::{ColumnRef, Expr};
use crate::plan::LogicalPlan;
use crate::sort::SortKey;
use crate::value::Value;
use std::cmp::Ordering;
use std::collections::BTreeSet;

/// Lexicographic total order over rows (shorter row sorts first on ties).
pub fn cmp_rows(a: &[Value], b: &[Value]) -> Ordering {
    for (x, y) in a.iter().zip(b.iter()) {
        let o = x.total_cmp(y);
        if o != Ordering::Equal {
            return o;
        }
    }
    a.len().cmp(&b.len())
}

/// Number of `Scan` nodes of `table` (case-insensitive) in the plan.
pub fn scan_count(plan: &LogicalPlan, table: &str) -> usize {
    let mut n = 0;
    if let LogicalPlan::Scan { table: t, .. } = plan {
        if t.eq_ignore_ascii_case(table) {
            n += 1;
        }
    }
    for input in plan.inputs() {
        n += scan_count(input, table);
    }
    n
}

/// Collect every base table the plan scans (lowercased) into `out`.
pub fn plan_tables(plan: &LogicalPlan, out: &mut BTreeSet<String>) {
    if let LogicalPlan::Scan { table, .. } = plan {
        out.insert(table.to_ascii_lowercase());
    }
    for input in plan.inputs() {
        plan_tables(input, out);
    }
}

/// Restrict every scan of one of `tables` to rows whose `column` value is
/// in `keys`, by ANDing `column IN (…)` into the scan's pushed filter
/// (where it is an index candidate). The predicate references the column
/// through the scan's alias when it has one. `None` when `plan` scans none
/// of `tables`.
///
/// For a cleansed table this is the *re-cleanse-by-ckey* restriction: rules
/// partition sequences by the cluster key, so `Φ(σ_{ckey∈K}(R)) =
/// σ_{ckey∈K}(Φ(R))`. Applied to a rewritten plan — every scan of the reads
/// table and of the rules' FROM table, so the join-back's sequence set and
/// outer arm alike — it computes exactly the slice of the full answer owned
/// by the keys in `K`.
pub fn scope_scans(
    plan: &LogicalPlan,
    tables: &[&str],
    column: &str,
    keys: &[Value],
) -> Option<LogicalPlan> {
    fn scope(
        plan: LogicalPlan,
        tables: &[&str],
        column: &str,
        keys: &[Value],
        found: &mut bool,
    ) -> LogicalPlan {
        match plan {
            LogicalPlan::Scan {
                table: t,
                alias,
                filter,
            } if tables.iter().any(|x| t.eq_ignore_ascii_case(x)) => {
                *found = true;
                let col = match &alias {
                    Some(a) => Expr::Column(ColumnRef::qualified(a.clone(), column)),
                    None => Expr::col(column),
                };
                let in_list = Expr::InList {
                    expr: Box::new(col),
                    list: keys.to_vec(),
                    negated: false,
                };
                LogicalPlan::Scan {
                    table: t,
                    alias,
                    filter: Some(match filter {
                        Some(f) => f.and(in_list),
                        None => in_list,
                    }),
                }
            }
            other => other.map_inputs(|input| scope(input, tables, column, keys, found)),
        }
    }
    let mut found = false;
    let scoped = scope(plan.clone(), tables, column, keys, &mut found);
    found.then_some(scoped)
}

/// Multiset difference both ways: `(old − new, new − old)` — the rows a
/// change feed must delete and insert to turn `old` into `new`. Rows equal
/// under [`cmp_rows`] cancel with multiplicity. Bumps
/// `stats.maintenance_delta_rows` by the total delta size.
pub fn multiset_diff(
    old: &[Vec<Value>],
    new: &[Vec<Value>],
    stats: &mut ExecStats,
) -> (Vec<Vec<Value>>, Vec<Vec<Value>>) {
    let mut old_sorted: Vec<&Vec<Value>> = old.iter().collect();
    let mut new_sorted: Vec<&Vec<Value>> = new.iter().collect();
    old_sorted.sort_by(|a, b| cmp_rows(a, b));
    new_sorted.sort_by(|a, b| cmp_rows(a, b));
    let (mut i, mut j) = (0, 0);
    let mut deleted = Vec::new();
    let mut inserted = Vec::new();
    while i < old_sorted.len() && j < new_sorted.len() {
        match cmp_rows(old_sorted[i], new_sorted[j]) {
            Ordering::Equal => {
                i += 1;
                j += 1;
            }
            Ordering::Less => {
                deleted.push(old_sorted[i].clone());
                i += 1;
            }
            Ordering::Greater => {
                inserted.push(new_sorted[j].clone());
                j += 1;
            }
        }
    }
    deleted.extend(old_sorted[i..].iter().map(|r| (*r).clone()));
    inserted.extend(new_sorted[j..].iter().map(|r| (*r).clone()));
    stats.maintenance_delta_rows += (deleted.len() + inserted.len()) as u64;
    (deleted, inserted)
}

/// Remove each row of `deleted` from `current` (first occurrences under
/// byte identity, with multiplicity). A row absent from `current` is a
/// maintenance-state divergence and fails loudly rather than silently
/// drifting — before anything is removed, so `current` is either fully
/// updated or untouched. One pass over `current` against the sorted
/// deletes: O((|current| + |deleted|) · log |deleted|).
pub fn remove_rows<'a>(
    current: &mut Vec<Vec<Value>>,
    deleted: impl IntoIterator<Item = &'a Vec<Value>>,
) -> Result<()> {
    let mut sorted: Vec<&[Value]> = deleted.into_iter().map(Vec::as_slice).collect();
    if sorted.is_empty() {
        return Ok(());
    }
    sorted.sort_by(|a, b| cmp_rows(a, b));
    // Distinct deleted rows in order, each with the copies still to remove.
    let mut pending: Vec<(&[Value], usize)> = Vec::new();
    for row in sorted {
        match pending.last_mut() {
            Some((r, n)) if cmp_rows(r, row) == Ordering::Equal => *n += 1,
            _ => pending.push((row, 1)),
        }
    }
    let mut doomed = vec![false; current.len()];
    for (slot, row) in doomed.iter_mut().zip(current.iter()) {
        if let Ok(k) = pending.binary_search_by(|(r, _)| cmp_rows(r, row)) {
            if pending[k].1 > 0 {
                pending[k].1 -= 1;
                *slot = true;
            }
        }
    }
    if let Some((row, _)) = pending.iter().find(|(_, n)| *n > 0) {
        return Err(Error::Internal(format!(
            "maintenance delta deletes a row not present in the standing result: {row:?}"
        )));
    }
    let mut doomed = doomed.into_iter();
    current.retain(|_| !doomed.next().unwrap_or(false));
    Ok(())
}

/// Evaluate each sort key over `batch`, returning one key row per batch
/// row (key values in `keys` order).
pub fn eval_key_rows(batch: &Batch, keys: &[SortKey]) -> Result<Vec<Vec<Value>>> {
    let cols = keys
        .iter()
        .map(|k| k.expr.evaluate(batch))
        .collect::<Result<Vec<_>>>()?;
    Ok((0..batch.num_rows())
        .map(|i| cols.iter().map(|c| c.value(i)).collect())
        .collect())
}

/// Compare two pre-evaluated key rows under the keys' directions and null
/// placement — the same order `sort_batch` produces.
pub fn cmp_key_rows(a: &[Value], b: &[Value], keys: &[SortKey]) -> Ordering {
    for ((x, y), k) in a.iter().zip(b.iter()).zip(keys.iter()) {
        let o = match (x.is_null(), y.is_null()) {
            (true, true) => Ordering::Equal,
            (true, false) => {
                if k.nulls_first {
                    Ordering::Less
                } else {
                    Ordering::Greater
                }
            }
            (false, true) => {
                if k.nulls_first {
                    Ordering::Greater
                } else {
                    Ordering::Less
                }
            }
            (false, false) => {
                let o = x.total_cmp(y);
                if k.ascending {
                    o
                } else {
                    o.reverse()
                }
            }
        };
        if o != Ordering::Equal {
            return o;
        }
    }
    Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{schema_ref, Batch};
    use crate::schema::{Field, Schema};
    use crate::value::DataType;

    fn iv(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|v| Value::Int(*v)).collect()
    }

    #[test]
    fn multiset_diff_cancels_with_multiplicity() {
        let old = vec![iv(&[1]), iv(&[2]), iv(&[2]), iv(&[3])];
        let new = vec![iv(&[2]), iv(&[3]), iv(&[3]), iv(&[4])];
        let mut stats = ExecStats::default();
        let (del, ins) = multiset_diff(&old, &new, &mut stats);
        assert_eq!(del, vec![iv(&[1]), iv(&[2])]);
        assert_eq!(ins, vec![iv(&[3]), iv(&[4])]);
        assert_eq!(stats.maintenance_delta_rows, 4);
    }

    #[test]
    fn remove_rows_takes_first_match_and_rejects_absent() {
        let mut cur = vec![iv(&[1]), iv(&[2]), iv(&[2])];
        remove_rows(&mut cur, &[iv(&[2])]).unwrap();
        assert_eq!(cur, vec![iv(&[1]), iv(&[2])]);
        assert!(remove_rows(&mut cur, &[iv(&[9])]).is_err());
    }

    #[test]
    fn remove_rows_removes_duplicates_once_each() {
        let mut cur = vec![iv(&[2]), iv(&[1]), iv(&[2]), iv(&[3]), iv(&[2])];
        remove_rows(&mut cur, &[iv(&[2]), iv(&[3]), iv(&[2])]).unwrap();
        // Two of the three 2s go (the first two), the one 3 goes, order kept.
        assert_eq!(cur, vec![iv(&[1]), iv(&[2])]);
    }

    #[test]
    fn remove_rows_leaves_input_untouched_on_a_missing_row() {
        let orig = vec![iv(&[1]), iv(&[2]), iv(&[3])];
        // Every row but the last is present; one more copy of 2 than held.
        for deleted in [
            vec![iv(&[1]), iv(&[2]), iv(&[9])],
            vec![iv(&[2]), iv(&[3]), iv(&[2])],
        ] {
            let mut cur = orig.clone();
            assert!(remove_rows(&mut cur, &deleted).is_err());
            assert_eq!(cur, orig);
        }
    }

    #[test]
    fn scope_scans_restricts_every_reads_scan() {
        let plan = LogicalPlan::scan_as("caser", "c")
            .filter(Expr::col("rtime").gt_eq(Expr::Literal(Value::Int(0))))
            .project(vec![(Expr::col("epc"), "epc".into())]);
        let scoped = scope_scans(&plan, &["caser"], "epc", &[Value::str("e1")]).unwrap();
        // The IN list joins the scan's own pushed filter.
        let LogicalPlan::Project { input, .. } = &scoped else {
            panic!("{scoped}")
        };
        let LogicalPlan::Filter { input, .. } = input.as_ref() else {
            panic!("{scoped}")
        };
        assert!(
            matches!(input.as_ref(), LogicalPlan::Scan { filter: Some(f), .. } if f.to_string().contains("c.epc IN")),
            "{scoped}"
        );
        assert_eq!(scan_count(&scoped, "caser"), 1);
        // Every listed table is restricted: here a FROM table beside it.
        let both = LogicalPlan::scan_as("caser", "c").join(
            LogicalPlan::scan_as("rwp", "p"),
            vec![Expr::Column(ColumnRef::qualified("c", "epc"))],
            vec![Expr::Column(ColumnRef::qualified("p", "epc"))],
            crate::join::JoinType::Inner,
        );
        let scoped = scope_scans(&both, &["caser", "rwp"], "epc", &[Value::str("e1")]).unwrap();
        let text = scoped.to_string();
        assert!(
            text.contains("c.epc IN") && text.contains("p.epc IN"),
            "{text}"
        );
        // A plan with no scan of the table is not scoped.
        assert!(scope_scans(&plan, &["locs"], "gln", &[Value::str("l1")]).is_none());
    }

    #[test]
    fn scoped_execution_restricts_rows() {
        use crate::exec::Executor;
        use crate::table::{Catalog, Table};
        let cat = Catalog::new();
        let schema = schema_ref(Schema::new(vec![
            Field::new("epc", DataType::Str),
            Field::new("rtime", DataType::Int),
        ]));
        let rows: Vec<Vec<Value>> = (0..10)
            .map(|i| vec![Value::str(format!("e{}", i % 3)), Value::Int(i)])
            .collect();
        cat.register(Table::new("r", Batch::from_rows(schema, &rows).unwrap()));
        let plan = LogicalPlan::scan_as("r", "r");
        let scoped = scope_scans(&plan, &["r"], "epc", &[Value::str("e1")]).unwrap();
        let mut exec = Executor::new(&cat);
        let out = exec.execute(&scoped).unwrap();
        assert_eq!(out.num_rows(), 3);
        for i in 0..out.num_rows() {
            assert_eq!(out.row(i)[0], Value::str("e1"));
        }
    }

    #[test]
    fn key_rows_order_matches_sort_batch() {
        use crate::sort::sort_batch;
        let schema = schema_ref(Schema::new(vec![Field::new("x", DataType::Int)]));
        let batch =
            Batch::from_rows(schema, &[iv(&[3]), vec![Value::Null], iv(&[1]), iv(&[2])]).unwrap();
        let keys = vec![SortKey::desc(Expr::col("x"))];
        let sorted = sort_batch(&batch, &keys).unwrap();
        let key_rows = eval_key_rows(&sorted, &keys).unwrap();
        for w in key_rows.windows(2) {
            assert_ne!(cmp_key_rows(&w[0], &w[1], &keys), Ordering::Greater);
        }
    }
}
