//! Multi-key sorting.
//!
//! Sorting is the dominant cost of sequence processing (paper §6.2: "the
//! sorting cost to produce the sequence order may be dominant"), so the
//! executor counts sorted rows and the optimizer eliminates sorts whose
//! ordering is already provided by an upstream operator (order sharing).

use crate::batch::Batch;
use crate::column::Column;
use crate::error::Result;
use crate::expr::Expr;
use std::cmp::Ordering;

/// One sort key: an expression plus direction.
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey {
    pub expr: Expr,
    pub ascending: bool,
    /// SQL default: NULLs sort first when ascending, last when descending.
    pub nulls_first: bool,
}

impl SortKey {
    pub fn asc(expr: Expr) -> Self {
        SortKey {
            expr,
            ascending: true,
            nulls_first: true,
        }
    }

    pub fn desc(expr: Expr) -> Self {
        SortKey {
            expr,
            ascending: false,
            nulls_first: false,
        }
    }
}

impl std::fmt::Display for SortKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {}",
            self.expr,
            if self.ascending { "ASC" } else { "DESC" }
        )
    }
}

/// Compare row `a` to row `b` under the given key columns/directions.
fn cmp_rows(key_cols: &[(Column, bool, bool)], a: usize, b: usize) -> Ordering {
    for (col, ascending, nulls_first) in key_cols {
        let an = col.is_null(a);
        let bn = col.is_null(b);
        let o = match (an, bn) {
            (true, true) => Ordering::Equal,
            (true, false) => {
                if *nulls_first {
                    Ordering::Less
                } else {
                    Ordering::Greater
                }
            }
            (false, true) => {
                if *nulls_first {
                    Ordering::Greater
                } else {
                    Ordering::Less
                }
            }
            (false, false) => {
                let o = col.value(a).total_cmp(&col.value(b));
                if *ascending {
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

/// Compute the stable sort permutation of `batch` under `keys`.
pub fn sort_permutation(batch: &Batch, keys: &[SortKey]) -> Result<Vec<usize>> {
    let key_cols = eval_keys(batch, keys)?;
    let mut perm: Vec<usize> = (0..batch.num_rows()).collect();
    perm.sort_by(|&a, &b| cmp_rows(&key_cols, a, b));
    Ok(perm)
}

/// Sort a batch, returning a new batch in key order.
pub fn sort_batch(batch: &Batch, keys: &[SortKey]) -> Result<Batch> {
    let perm = sort_permutation(batch, keys)?;
    Ok(batch.take(&perm))
}

fn eval_keys(batch: &Batch, keys: &[SortKey]) -> Result<Vec<(Column, bool, bool)>> {
    keys.iter()
        .map(|k| {
            k.expr
                .evaluate(batch)
                .map(|c| (c, k.ascending, k.nulls_first))
        })
        .collect()
}

/// Work accounting for one run-aware sort (see [`sort_batch_runs`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SortEffort {
    /// Key comparisons actually performed (run detection/verification plus
    /// merging). The machine-independent cost of the sort.
    pub comparisons: u64,
    /// Sorted runs the input decomposed into (1 = already sorted).
    pub runs: u64,
    /// Whether the sort was elided entirely: the input was a single
    /// non-descending run, so the batch is returned as-is.
    pub elided: bool,
}

/// Run-aware stable sort: decompose the input into maximal non-descending
/// runs and merge them pairwise bottom-up — a natural merge sort. An input
/// that is already sorted costs n−1 comparisons and is returned unchanged
/// (`elided`); k pre-sorted runs (the segmented append path) merge in
/// O(n log k) instead of a full O(n log n) re-sort.
///
/// `run_hint` optionally gives run start offsets (ascending, starting at 0)
/// whose *interior* sortedness the caller has already verified — e.g. from
/// per-segment [`sorted_by`](crate::segment::Segment::sorted_by) metadata. Only
/// the boundaries between hinted runs are then checked (k−1 comparisons,
/// coalescing adjacent runs that happen to already be in order) instead of
/// scanning all n−1 adjacent pairs.
///
/// The merge is stable and ties between runs break toward the earlier run;
/// since runs are contiguous, ascending blocks of input positions, this
/// reproduces byte-for-byte the permutation of the stable full sort.
pub fn sort_batch_runs(
    batch: &Batch,
    keys: &[SortKey],
    run_hint: Option<&[usize]>,
) -> Result<(Batch, SortEffort)> {
    let key_cols = eval_keys(batch, keys)?;
    let n = batch.num_rows();
    let mut effort = SortEffort::default();
    let mut runs = run_starts(&key_cols, n, run_hint, &mut effort.comparisons);
    effort.runs = runs.len().max(1) as u64;
    if runs.len() <= 1 {
        effort.elided = true;
        return Ok((batch.clone(), effort));
    }
    // Bottom-up rounds of adjacent-pair merges; `runs` holds each run as a
    // sorted index vector from the second round on.
    let mut merged: Vec<Vec<usize>> = {
        runs.push(n);
        runs.windows(2).map(|w| (w[0]..w[1]).collect()).collect()
    };
    while merged.len() > 1 {
        let mut next = Vec::with_capacity(merged.len().div_ceil(2));
        let mut it = merged.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => next.push(merge_two(&key_cols, a, b, &mut effort.comparisons)),
                None => next.push(a),
            }
        }
        merged = next;
    }
    let perm = merged.pop().unwrap_or_default();
    Ok((batch.take(&perm), effort))
}

/// Start offsets of the maximal non-descending runs of rows `[0, n)` under
/// the key columns. With a hint, only run boundaries are compared.
fn run_starts(
    key_cols: &[(Column, bool, bool)],
    n: usize,
    run_hint: Option<&[usize]>,
    comparisons: &mut u64,
) -> Vec<usize> {
    if n == 0 {
        return vec![0];
    }
    match run_hint {
        Some(hint) => {
            let mut out = vec![0];
            for &b in hint.iter().filter(|&&b| b > 0 && b < n) {
                *comparisons += 1;
                if cmp_rows(key_cols, b - 1, b) == Ordering::Greater {
                    out.push(b);
                }
            }
            out
        }
        None => {
            let mut out = vec![0];
            for i in 1..n {
                *comparisons += 1;
                if cmp_rows(key_cols, i - 1, i) == Ordering::Greater {
                    out.push(i);
                }
            }
            out
        }
    }
}

/// Stable two-run merge: `a` precedes `b` in input order, so ties keep `a`.
fn merge_two(
    key_cols: &[(Column, bool, bool)],
    a: Vec<usize>,
    b: Vec<usize>,
    comparisons: &mut u64,
) -> Vec<usize> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        *comparisons += 1;
        if cmp_rows(key_cols, a[i], b[j]) == Ordering::Greater {
            out.push(b[j]);
            j += 1;
        } else {
            out.push(a[i]);
            i += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::schema_ref;
    use crate::schema::{Field, Schema};
    use crate::value::{DataType, Value};

    fn batch() -> Batch {
        let schema = schema_ref(Schema::new(vec![
            Field::new("epc", DataType::Str),
            Field::new("rtime", DataType::Int),
        ]));
        Batch::from_rows(
            schema,
            &[
                vec![Value::str("e2"), Value::Int(30)],
                vec![Value::str("e1"), Value::Int(20)],
                vec![Value::str("e1"), Value::Int(10)],
                vec![Value::str("e2"), Value::Null],
            ],
        )
        .unwrap()
    }

    #[test]
    fn two_key_sort() {
        let b = sort_batch(
            &batch(),
            &[
                SortKey::asc(Expr::col("epc")),
                SortKey::asc(Expr::col("rtime")),
            ],
        )
        .unwrap();
        let rt: Vec<Value> = (0..4).map(|i| b.row(i)[1].clone()).collect();
        assert_eq!(
            rt,
            vec![Value::Int(10), Value::Int(20), Value::Null, Value::Int(30)]
        );
    }

    #[test]
    fn descending_with_nulls_last() {
        let b = sort_batch(&batch(), &[SortKey::desc(Expr::col("rtime"))]).unwrap();
        assert_eq!(b.row(0)[1], Value::Int(30));
        assert_eq!(b.row(3)[1], Value::Null);
    }

    #[test]
    fn stability() {
        // Equal keys keep input order.
        let schema = schema_ref(Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("seq", DataType::Int),
        ]));
        let b = Batch::from_rows(
            schema,
            &[
                vec![Value::Int(1), Value::Int(0)],
                vec![Value::Int(1), Value::Int(1)],
                vec![Value::Int(0), Value::Int(2)],
                vec![Value::Int(1), Value::Int(3)],
            ],
        )
        .unwrap();
        let sorted = sort_batch(&b, &[SortKey::asc(Expr::col("k"))]).unwrap();
        let seqs: Vec<Value> = (0..4).map(|i| sorted.row(i)[1].clone()).collect();
        assert_eq!(
            seqs,
            vec![Value::Int(2), Value::Int(0), Value::Int(1), Value::Int(3)]
        );
    }

    /// Count the comparisons a plain stable full sort performs, for
    /// comparing against the run-aware path.
    fn full_sort_comparisons(b: &Batch, keys: &[SortKey]) -> (Vec<usize>, u64) {
        let key_cols = eval_keys(b, keys).unwrap();
        let count = std::cell::Cell::new(0u64);
        let mut perm: Vec<usize> = (0..b.num_rows()).collect();
        perm.sort_by(|&x, &y| {
            count.set(count.get() + 1);
            cmp_rows(&key_cols, x, y)
        });
        (perm, count.get())
    }

    fn col_vals(b: &Batch) -> Vec<Value> {
        b.column(0).iter().collect()
    }

    fn int_batch(vals: &[i64]) -> Batch {
        let schema = schema_ref(Schema::new(vec![Field::new("k", DataType::Int)]));
        let rows: Vec<Vec<Value>> = vals.iter().map(|&v| vec![Value::Int(v)]).collect();
        Batch::from_rows(schema, &rows).unwrap()
    }

    #[test]
    fn sorted_input_elides() {
        let b = int_batch(&[1, 2, 2, 5, 9]);
        let keys = [SortKey::asc(Expr::col("k"))];
        let (out, effort) = sort_batch_runs(&b, &keys, None).unwrap();
        assert_eq!(col_vals(&out), col_vals(&b));
        assert!(effort.elided);
        assert_eq!(effort.runs, 1);
        assert_eq!(effort.comparisons, 4);
    }

    #[test]
    fn run_merge_matches_full_sort_with_fewer_comparisons() {
        // Two pre-sorted, value-overlapping blocks — the segmented-append
        // shape (each append batch is ordered, batches overlap in time).
        let mut vals: Vec<i64> = (0..50).collect();
        vals.extend(10..40);
        let b = int_batch(&vals);
        let keys = [SortKey::asc(Expr::col("k"))];
        let (out, effort) = sort_batch_runs(&b, &keys, None).unwrap();
        let (perm, full_cmps) = full_sort_comparisons(&b, &keys);
        assert_eq!(col_vals(&out), col_vals(&b.take(&perm)));
        assert!(!effort.elided);
        assert_eq!(effort.runs, 2);
        assert!(
            effort.comparisons < full_cmps,
            "merge {} !< full {full_cmps}",
            effort.comparisons
        );
    }

    #[test]
    fn run_merge_is_stable() {
        let schema = schema_ref(Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("seq", DataType::Int),
        ]));
        // Runs [0,2) and [2,4), equal keys across the boundary.
        let b = Batch::from_rows(
            schema,
            &[
                vec![Value::Int(1), Value::Int(0)],
                vec![Value::Int(3), Value::Int(1)],
                vec![Value::Int(1), Value::Int(2)],
                vec![Value::Int(3), Value::Int(3)],
            ],
        )
        .unwrap();
        let keys = [SortKey::asc(Expr::col("k"))];
        let (out, effort) = sort_batch_runs(&b, &keys, None).unwrap();
        assert_eq!(effort.runs, 2);
        let seqs: Vec<Value> = (0..4).map(|i| out.row(i)[1].clone()).collect();
        assert_eq!(
            seqs,
            vec![Value::Int(0), Value::Int(2), Value::Int(1), Value::Int(3)]
        );
    }

    #[test]
    fn hint_skips_interior_comparisons_and_coalesces() {
        let mut vals: Vec<i64> = (0..50).collect(); // run 1
        vals.extend(10..40); // run 2 (out of order vs run 1)
        let b = int_batch(&vals);
        let keys = [SortKey::asc(Expr::col("k"))];
        let (detected, d_effort) = sort_batch_runs(&b, &keys, None).unwrap();
        let (hinted, h_effort) = sort_batch_runs(&b, &keys, Some(&[0, 50])).unwrap();
        assert_eq!(
            col_vals(&hinted),
            col_vals(&detected),
            "hint changes cost, never the result"
        );
        // Detection paid 79 boundary-scan comparisons; the hint pays 1.
        assert_eq!(h_effort.comparisons + 78, d_effort.comparisons);
        // A boundary that is already in order coalesces into one run.
        let sorted = int_batch(&(0..40).collect::<Vec<_>>());
        let (_, e) = sort_batch_runs(&sorted, &keys, Some(&[0, 20])).unwrap();
        assert!(e.elided);
        assert_eq!(e.comparisons, 1);
    }

    #[test]
    fn degenerate_runs_random_input_still_sorts() {
        // Worst case: strictly descending input = n singleton runs.
        let b = int_batch(&[5, 4, 3, 2, 1, 0]);
        let keys = [SortKey::asc(Expr::col("k"))];
        let (out, effort) = sort_batch_runs(&b, &keys, None).unwrap();
        let expect: Vec<Value> = (0..6).map(Value::Int).collect();
        assert_eq!(col_vals(&out), expect);
        assert_eq!(effort.runs, 6);
        // Empty batch.
        let empty = int_batch(&[]);
        let (out, effort) = sort_batch_runs(&empty, &keys, None).unwrap();
        assert_eq!(out.num_rows(), 0);
        assert!(effort.elided);
    }
}
