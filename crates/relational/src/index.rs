//! Ordered secondary indexes.
//!
//! An [`OrderedIndex`] maps the values of one column to the row ids holding
//! them, kept in a B-tree so the executor can answer range scans
//! (`lo < col <= hi`) without reading the whole table — the mechanism behind
//! the paper's "scan caseR using the index on rtime" plans.

use crate::column::Column;
use crate::value::Value;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::Bound;

/// A `Value` wrapper with the engine's total order, usable as a B-tree key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexKey(pub Value);

impl PartialOrd for IndexKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IndexKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// One endpoint of a range scan.
#[derive(Debug, Clone, PartialEq)]
pub enum ScanBound {
    Unbounded,
    /// `>=` / `<=` depending on which side.
    Inclusive(Value),
    /// `>` / `<` depending on which side.
    Exclusive(Value),
}

impl ScanBound {
    fn to_lower(&self) -> Bound<IndexKey> {
        match self {
            ScanBound::Unbounded => Bound::Unbounded,
            ScanBound::Inclusive(v) => Bound::Included(IndexKey(v.clone())),
            ScanBound::Exclusive(v) => Bound::Excluded(IndexKey(v.clone())),
        }
    }

    fn to_upper(&self) -> Bound<IndexKey> {
        match self {
            ScanBound::Unbounded => Bound::Unbounded,
            ScanBound::Inclusive(v) => Bound::Included(IndexKey(v.clone())),
            ScanBound::Exclusive(v) => Bound::Excluded(IndexKey(v.clone())),
        }
    }
}

/// An ordered index over a single column. NULLs are not indexed (SQL
/// predicates never match them).
#[derive(Debug, Default, PartialEq)]
pub struct OrderedIndex {
    entries: BTreeMap<IndexKey, Vec<u32>>,
    indexed_rows: usize,
    /// Rows examined so far (nulls included) — the append watermark.
    /// [`OrderedIndex::extend`] resumes from here, so ingest batches extend
    /// the index incrementally instead of rebuilding it.
    covered_rows: usize,
}

/// A clone is rebuilt from the sorted entries rather than copied node by
/// node. Appends insert at the right edge, and every split leaves the
/// node behind it half full, so an extended map holds about twice the
/// nodes its keys need; the bulk build packs them. Each append clones its
/// table's indexes, so this halves what a unique-key index (`rtime`)
/// holds, live and in the copy every publish makes.
impl Clone for OrderedIndex {
    fn clone(&self) -> Self {
        OrderedIndex {
            entries: self
                .entries
                .iter()
                .map(|(k, rows)| (k.clone(), rows.clone()))
                .collect(),
            indexed_rows: self.indexed_rows,
            covered_rows: self.covered_rows,
        }
    }
}

impl OrderedIndex {
    /// Build an index over a column.
    pub fn build(column: &Column) -> Self {
        let mut idx = OrderedIndex::default();
        idx.extend(column);
        idx
    }

    /// Index the rows appended since the last `build`/`extend` — those at
    /// positions `covered_rows..column.len()`. Appending in row order pushes
    /// ascending row ids per key, so an extended index is identical to one
    /// rebuilt from scratch.
    pub fn extend(&mut self, column: &Column) {
        for i in self.covered_rows..column.len() {
            if column.is_null(i) {
                continue;
            }
            self.entries
                .entry(IndexKey(column.value(i)))
                .or_default()
                .push(i as u32);
            self.indexed_rows += 1;
        }
        self.covered_rows = column.len();
    }

    /// Rows examined so far (the append watermark).
    pub fn covered_rows(&self) -> usize {
        self.covered_rows
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.entries.len()
    }

    /// Number of indexed (non-null) rows.
    pub fn indexed_rows(&self) -> usize {
        self.indexed_rows
    }

    /// Row ids for an exact key.
    pub fn lookup(&self, v: &Value) -> &[u32] {
        self.entries
            .get(&IndexKey(v.clone()))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Row ids in a range, ascending by row id within the result.
    pub fn range_scan(&self, lower: &ScanBound, upper: &ScanBound) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .entries
            .range((lower.to_lower(), upper.to_upper()))
            .flat_map(|(_, rows)| rows.iter().map(|&r| r as usize))
            .collect();
        // Row-id order keeps downstream operators cache-friendly and makes
        // results deterministic regardless of key distribution.
        out.sort_unstable();
        out
    }

    /// The number of rows in a range when it is at most `cap`, else `None`:
    /// counted without collecting them, and abandoned as soon as the count
    /// passes `cap`.
    pub fn range_count_within(
        &self,
        lower: &ScanBound,
        upper: &ScanBound,
        cap: usize,
    ) -> Option<usize> {
        let mut n = 0usize;
        for (_, rows) in self.entries.range((lower.to_lower(), upper.to_upper())) {
            n += rows.len();
            if n > cap {
                return None;
            }
        }
        Some(n)
    }

    /// Estimate the fraction of indexed rows falling in a range, by walking
    /// the B-tree (exact, since we are in memory).
    pub fn range_selectivity(&self, lower: &ScanBound, upper: &ScanBound) -> f64 {
        if self.indexed_rows == 0 {
            return 0.0;
        }
        let hits: usize = self
            .entries
            .range((lower.to_lower(), upper.to_upper()))
            .map(|(_, rows)| rows.len())
            .sum();
        hits as f64 / self.indexed_rows as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::value::DataType;

    fn col() -> Column {
        Column::from_values(
            DataType::Int,
            &[
                Value::Int(5),
                Value::Int(1),
                Value::Null,
                Value::Int(5),
                Value::Int(9),
            ],
        )
        .unwrap()
    }

    #[test]
    fn build_skips_nulls() {
        let idx = OrderedIndex::build(&col());
        assert_eq!(idx.indexed_rows(), 4);
        assert_eq!(idx.distinct_keys(), 3);
    }

    #[test]
    fn exact_lookup() {
        let idx = OrderedIndex::build(&col());
        assert_eq!(idx.lookup(&Value::Int(5)), &[0, 3]);
        assert!(idx.lookup(&Value::Int(7)).is_empty());
    }

    #[test]
    fn a_clone_equals_and_extends_like_the_original() {
        let keys: Vec<Value> = (0..1000).map(Value::Int).collect();
        let column = Column::from_values(DataType::Int, &keys).unwrap();
        let mut idx = OrderedIndex::build(&column.slice(0, 600));
        let mut copy = idx.clone();
        assert_eq!(copy, idx);
        idx.extend(&column);
        copy.extend(&column);
        assert_eq!(copy, idx);
        assert_eq!(copy.lookup(&Value::Int(999)), &[999]);
    }

    #[test]
    fn range_count_stops_past_the_cap() {
        let idx = OrderedIndex::build(&col());
        let (from_1, to_9) = (
            ScanBound::Inclusive(Value::Int(1)),
            ScanBound::Exclusive(Value::Int(9)),
        );
        assert_eq!(idx.range_count_within(&from_1, &to_9, 3), Some(3));
        assert_eq!(idx.range_count_within(&from_1, &to_9, 2), None);
        assert_eq!(
            idx.range_count_within(&ScanBound::Unbounded, &ScanBound::Unbounded, usize::MAX),
            Some(4)
        );
    }

    #[test]
    fn range_scan_bounds() {
        let idx = OrderedIndex::build(&col());
        assert_eq!(
            idx.range_scan(
                &ScanBound::Inclusive(Value::Int(1)),
                &ScanBound::Exclusive(Value::Int(9))
            ),
            vec![0, 1, 3]
        );
        assert_eq!(
            idx.range_scan(&ScanBound::Exclusive(Value::Int(5)), &ScanBound::Unbounded),
            vec![4]
        );
        assert_eq!(
            idx.range_scan(&ScanBound::Unbounded, &ScanBound::Unbounded),
            vec![0, 1, 3, 4]
        );
    }

    #[test]
    fn selectivity_is_exact() {
        let idx = OrderedIndex::build(&col());
        let s = idx.range_selectivity(&ScanBound::Inclusive(Value::Int(5)), &ScanBound::Unbounded);
        assert!((s - 0.75).abs() < 1e-12);
    }

    #[test]
    fn extend_matches_full_rebuild() {
        let all = col();
        // Build over a prefix, then extend with the appended rows.
        let prefix = all.take(&[0, 1]);
        let mut incremental = OrderedIndex::build(&prefix);
        assert_eq!(incremental.covered_rows(), 2);
        incremental.extend(&all);
        assert_eq!(incremental, OrderedIndex::build(&all));
        assert_eq!(incremental.covered_rows(), 5);
        // Extending again is a no-op.
        let before = incremental.clone();
        incremental.extend(&all);
        assert_eq!(incremental, before);
    }

    #[test]
    fn string_keys() {
        let c = Column::from_values(
            DataType::Str,
            &[Value::str("b"), Value::str("a"), Value::str("b")],
        )
        .unwrap();
        let idx = OrderedIndex::build(&c);
        assert_eq!(idx.lookup(&Value::str("b")), &[0, 2]);
        assert_eq!(
            idx.range_scan(
                &ScanBound::Inclusive(Value::str("a")),
                &ScanBound::Inclusive(Value::str("a"))
            ),
            vec![1]
        );
    }
}
