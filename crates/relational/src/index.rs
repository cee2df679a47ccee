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
use std::sync::Arc;

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

type Entries = BTreeMap<IndexKey, Vec<u32>>;

/// Bulk-built, immutable entries: the distinct keys ascending, and the row
/// ids of key `i` at `rows[offsets[i]..offsets[i + 1]]`, ascending. No
/// allocation per key, so a unique-key column costs a key and two `u32`s a
/// row.
#[derive(Debug, Default, PartialEq)]
struct Frozen {
    keys: Vec<IndexKey>,
    /// `keys.len() + 1` entries; empty when there are no keys.
    offsets: Vec<u32>,
    rows: Vec<u32>,
}

impl Frozen {
    /// Merge `base` and `tail` in key order; a key in both keeps its base
    /// rows first (every tail row id is above every base row id).
    fn merge(base: &Frozen, tail: &Entries) -> Frozen {
        let mut out = Frozen {
            keys: Vec::with_capacity(base.keys.len() + tail.len()),
            offsets: Vec::with_capacity(base.keys.len() + tail.len() + 1),
            rows: Vec::with_capacity(base.rows.len() + tail.values().map(Vec::len).sum::<usize>()),
        };
        fn push(out: &mut Frozen, key: &IndexKey, parts: [&[u32]; 2]) {
            if out.offsets.is_empty() {
                out.offsets.push(0);
            }
            out.keys.push(key.clone());
            for part in parts {
                out.rows.extend_from_slice(part);
            }
            out.offsets.push(out.rows.len() as u32);
        }
        let mut tail = tail.iter().peekable();
        for (i, key) in base.keys.iter().enumerate() {
            while let Some((tk, trows)) = tail.next_if(|(tk, _)| *tk < key) {
                push(&mut out, tk, [trows, &[]]);
            }
            let extra = tail
                .next_if(|(tk, _)| *tk == key)
                .map(|(_, r)| r.as_slice());
            push(&mut out, key, [base.rows_at(i), extra.unwrap_or(&[])]);
        }
        for (tk, trows) in tail {
            push(&mut out, tk, [trows, &[]]);
        }
        out
    }

    fn rows_at(&self, i: usize) -> &[u32] {
        &self.rows[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    fn get(&self, key: &IndexKey) -> Option<&[u32]> {
        self.keys.binary_search(key).ok().map(|i| self.rows_at(i))
    }

    fn contains(&self, key: &IndexKey) -> bool {
        self.keys.binary_search(key).is_ok()
    }

    /// The row-id lists of the keys within the bounds.
    fn range<'a>(
        &'a self,
        lower: &ScanBound,
        upper: &ScanBound,
    ) -> impl Iterator<Item = &'a [u32]> {
        let lo = match lower {
            ScanBound::Unbounded => 0,
            ScanBound::Inclusive(v) => self.keys.partition_point(|k| k.0.total_cmp(v).is_lt()),
            ScanBound::Exclusive(v) => self.keys.partition_point(|k| k.0.total_cmp(v).is_le()),
        };
        let hi = match upper {
            ScanBound::Unbounded => self.keys.len(),
            ScanBound::Inclusive(v) => self.keys.partition_point(|k| k.0.total_cmp(v).is_le()),
            ScanBound::Exclusive(v) => self.keys.partition_point(|k| k.0.total_cmp(v).is_lt()),
        };
        (lo..hi.max(lo)).map(|i| self.rows_at(i))
    }
}

/// An ordered index over a single column. NULLs are not indexed (SQL
/// predicates never match them).
///
/// The entries are a frozen **base**, bulk-built and shared (`Arc`) by every
/// table version that holds the index, plus a small **tail** of the rows
/// appended since the base was built. Cloning the index for a new table
/// version copies only the tail. Once the tail indexes an eighth of the
/// base's rows it folds into a new bulk-built base, so a lookup visits two
/// structures and the amortised fold cost per appended row is constant.
/// Every row id in the tail is above every row id in the base.
#[derive(Debug, Clone, Default)]
pub struct OrderedIndex {
    base: Arc<Frozen>,
    tail: Entries,
    tail_indexed: usize,
    distinct_keys: usize,
    /// Rows examined so far (nulls included) — the append watermark: the
    /// next [`OrderedIndex::extend`] numbers its rows from here.
    covered_rows: usize,
}

/// Equality is logical: the same keys mapping to the same row ids over the
/// same covered rows, however they are split between base and tail.
impl PartialEq for OrderedIndex {
    fn eq(&self, other: &Self) -> bool {
        self.covered_rows == other.covered_rows
            && self.distinct_keys == other.distinct_keys
            && Frozen::merge(&self.base, &self.tail) == Frozen::merge(&other.base, &other.tail)
    }
}

impl OrderedIndex {
    /// Build an index over a column.
    pub fn build(column: &Column) -> Self {
        Self::build_parts(&[column])
    }

    /// Build an index over the concatenation of `parts`, in order, as one
    /// bulk-built base.
    pub(crate) fn build_parts(parts: &[&Column]) -> Self {
        let mut idx = OrderedIndex::default();
        for column in parts {
            idx.insert_rows(column);
        }
        idx.fold();
        idx
    }

    /// Index `rows`, the column's values for the rows appended after those
    /// already covered (row ids `covered_rows..`). Appending in row order
    /// pushes ascending row ids per key, so an extended index equals one
    /// built from scratch over the whole column.
    pub fn extend(&mut self, rows: &Column) {
        self.insert_rows(rows);
        if self.tail_indexed * 8 >= self.base.rows.len() {
            self.fold();
        }
    }

    fn insert_rows(&mut self, rows: &Column) {
        use std::collections::btree_map::Entry;
        for i in 0..rows.len() {
            if rows.is_null(i) {
                continue;
            }
            let row = (self.covered_rows + i) as u32;
            match self.tail.entry(IndexKey(rows.value(i))) {
                Entry::Occupied(e) => e.into_mut().push(row),
                Entry::Vacant(e) => {
                    if !self.base.contains(e.key()) {
                        self.distinct_keys += 1;
                    }
                    e.insert(vec![row]);
                }
            }
            self.tail_indexed += 1;
        }
        self.covered_rows += rows.len();
    }

    /// Merge the tail into a new bulk-built base.
    fn fold(&mut self) {
        if self.tail.is_empty() {
            return;
        }
        self.base = Arc::new(Frozen::merge(&self.base, &self.tail));
        self.tail = Entries::new();
        self.tail_indexed = 0;
    }

    /// Rows examined so far (the append watermark).
    pub fn covered_rows(&self) -> usize {
        self.covered_rows
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.distinct_keys
    }

    /// Number of indexed (non-null) rows.
    pub fn indexed_rows(&self) -> usize {
        self.base.rows.len() + self.tail_indexed
    }

    /// Row ids for an exact key, ascending.
    pub fn lookup(&self, v: &Value) -> impl Iterator<Item = u32> + '_ {
        let key = IndexKey(v.clone());
        let base = self.base.get(&key).unwrap_or(&[]);
        let tail = self.tail.get(&key).map_or(&[][..], Vec::as_slice);
        base.iter().chain(tail).copied()
    }

    /// The row-id lists of every key in a range: the base's, then the
    /// tail's. Bounds that admit no key (`lower` above `upper`) give none.
    fn range_lists<'a>(
        &'a self,
        lower: &ScanBound,
        upper: &ScanBound,
    ) -> impl Iterator<Item = &'a [u32]> + 'a {
        let range = (lower.to_lower(), upper.to_upper());
        let tail = (!range_is_empty(&range))
            .then(|| self.tail.range(range))
            .into_iter()
            .flatten()
            .map(|(_, rows)| rows.as_slice());
        self.base.range(lower, upper).chain(tail)
    }

    /// Row ids in a range, ascending by row id within the result.
    pub fn range_scan(&self, lower: &ScanBound, upper: &ScanBound) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .range_lists(lower, upper)
            .flat_map(|rows| rows.iter().map(|&r| r as usize))
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
        for rows in self.range_lists(lower, upper) {
            n += rows.len();
            if n > cap {
                return None;
            }
        }
        Some(n)
    }

    /// Estimate the fraction of indexed rows falling in a range, by walking
    /// the entries (exact, since we are in memory).
    pub fn range_selectivity(&self, lower: &ScanBound, upper: &ScanBound) -> f64 {
        let indexed = self.indexed_rows();
        if indexed == 0 {
            return 0.0;
        }
        let hits: usize = self.range_lists(lower, upper).map(<[u32]>::len).sum();
        hits as f64 / indexed as f64
    }
}

/// Whether a B-tree range admits no key — the cases `BTreeMap::range`
/// rejects (start above end, or equal with both ends excluded).
fn range_is_empty((lower, upper): &(Bound<IndexKey>, Bound<IndexKey>)) -> bool {
    match (lower, upper) {
        (Bound::Included(l), Bound::Included(u)) => l > u,
        (Bound::Included(l) | Bound::Excluded(l), Bound::Excluded(u))
        | (Bound::Excluded(l), Bound::Included(u)) => l >= u,
        _ => false,
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
        assert_eq!(rows_of(&idx, 5), [0, 3]);
        assert!(rows_of(&idx, 7).is_empty());
    }

    fn rows_of(idx: &OrderedIndex, v: i64) -> Vec<u32> {
        idx.lookup(&Value::Int(v)).collect()
    }

    #[test]
    fn a_clone_shares_its_base_and_extends_like_the_original() {
        let keys: Vec<Value> = (0..1000).map(Value::Int).collect();
        let column = Column::from_values(DataType::Int, &keys).unwrap();
        let mut idx = OrderedIndex::build(&column.slice(0, 600));
        let mut copy = idx.clone();
        assert!(Arc::ptr_eq(&idx.base, &copy.base));
        assert_eq!(copy, idx);
        idx.extend(&column.slice(600, 400));
        copy.extend(&column.slice(600, 400));
        assert_eq!(copy, idx);
        assert_eq!(copy, OrderedIndex::build(&column));
        assert_eq!(rows_of(&copy, 999), [999]);
    }

    #[test]
    fn the_tail_folds_at_an_eighth_of_the_base() {
        let keys: Vec<Value> = (0..100).map(|i| Value::Int(i % 10)).collect();
        let column = Column::from_values(DataType::Int, &keys).unwrap();
        let mut idx = OrderedIndex::build(&column.slice(0, 80));
        let base = Arc::clone(&idx.base);
        // Nine rows stay in the tail (9 * 8 < 80); lookups see both halves.
        idx.extend(&column.slice(80, 9));
        assert!(Arc::ptr_eq(&idx.base, &base));
        assert_eq!(idx.tail_indexed, 9);
        assert_eq!(rows_of(&idx, 3), [3, 13, 23, 33, 43, 53, 63, 73, 83]);
        assert_eq!(
            idx.range_scan(&ScanBound::Inclusive(Value::Int(9)), &ScanBound::Unbounded)
                .len(),
            8
        );
        // The tenth row reaches an eighth of the base: a new base, no tail.
        idx.extend(&column.slice(89, 1));
        assert!(!Arc::ptr_eq(&idx.base, &base));
        assert_eq!((idx.base.rows.len(), idx.tail_indexed), (90, 0));
        assert_eq!(idx, OrderedIndex::build(&column.slice(0, 90)));
        assert_eq!(idx.distinct_keys(), 10);
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
    fn empty_ranges_admit_nothing() {
        let keys: Vec<Value> = (0..20).map(Value::Int).collect();
        let column = Column::from_values(DataType::Int, &keys).unwrap();
        // A base and a tail, so both halves see the inverted bounds.
        let mut idx = OrderedIndex::build(&column.slice(0, 16));
        idx.extend(&column.slice(16, 1));
        let (lo, hi) = (
            ScanBound::Exclusive(Value::Int(9)),
            ScanBound::Exclusive(Value::Int(3)),
        );
        assert!(idx.range_scan(&lo, &hi).is_empty());
        let (lo, hi) = (
            ScanBound::Exclusive(Value::Int(16)),
            ScanBound::Exclusive(Value::Int(16)),
        );
        assert!(idx.range_scan(&lo, &hi).is_empty());
        assert_eq!(idx.range_count_within(&lo, &hi, 0), Some(0));
        let (lo, hi) = (
            ScanBound::Inclusive(Value::Int(16)),
            ScanBound::Inclusive(Value::Int(16)),
        );
        assert_eq!(idx.range_scan(&lo, &hi), vec![16]);
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
        let mut incremental = OrderedIndex::build(&all.slice(0, 2));
        assert_eq!(incremental.covered_rows(), 2);
        incremental.extend(&all.slice(2, 3));
        assert_eq!(incremental, OrderedIndex::build(&all));
        assert_eq!(incremental.covered_rows(), 5);
        // Extending by no rows is a no-op.
        let before = incremental.clone();
        incremental.extend(&all.slice(5, 0));
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
        assert_eq!(idx.lookup(&Value::str("b")).collect::<Vec<_>>(), [0, 2]);
        assert_eq!(
            idx.range_scan(
                &ScanBound::Inclusive(Value::str("a")),
                &ScanBound::Inclusive(Value::str("a"))
            ),
            vec![1]
        );
    }
}
