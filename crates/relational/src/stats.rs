//! Table and column statistics for cardinality estimation.
//!
//! The rewrite engine picks among candidate plans by *cost estimate* (paper
//! §5.2/§5.3: "the statement with the cheapest cost estimate is selected"),
//! so the substrate needs a believable — not perfect — estimator. We collect
//! exact min/max/NDV/null counts at load time (cheap for in-memory data) and
//! apply the classic System-R selectivity formulas.

use crate::batch::Batch;
use crate::column::Column;
use crate::value::Value;
use std::collections::HashSet;
use std::sync::Arc;

/// Statistics for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    pub min: Option<Value>,
    pub max: Option<Value>,
    /// Number of distinct non-null values.
    pub ndv: usize,
    pub null_count: usize,
}

impl ColumnStats {
    pub fn compute(column: &Column) -> Self {
        let mut stats = ColumnStats::empty();
        stats.fold(column, Some(&mut DistinctValues::default()));
        stats
    }

    fn empty() -> Self {
        ColumnStats {
            min: None,
            max: None,
            ndv: 0,
            null_count: 0,
        }
    }

    /// Fold the rows of `column` that follow those already summarized;
    /// `distinct` holds the values seen so far (`None`: the caller knows the
    /// distinct count and sets `ndv` itself). Rows are visited in order and
    /// ties keep the first value, so folding a table's rows in batches gives
    /// exactly what one pass over them would.
    fn fold(&mut self, column: &Column, mut distinct: Option<&mut DistinctValues>) {
        for i in 0..column.len() {
            if column.is_null(i) {
                self.null_count += 1;
                continue;
            }
            let v = column.value(i);
            if self.min.as_ref().is_none_or(|m| v.total_cmp(m).is_lt()) {
                self.min = Some(v.clone());
            }
            if self.max.as_ref().is_none_or(|m| v.total_cmp(m).is_gt()) {
                self.max = Some(v.clone());
            }
            if let Some(d) = distinct.as_deref_mut() {
                d.insert(v);
            }
        }
        if let Some(d) = distinct {
            self.ndv = d.len();
        }
    }

    /// Selectivity of `col = literal`.
    pub fn eq_selectivity(&self) -> f64 {
        if self.ndv == 0 {
            0.0
        } else {
            1.0 / self.ndv as f64
        }
    }

    /// Selectivity of a one-sided or two-sided range predicate, by linear
    /// interpolation over `[min, max]` for numeric columns; a fixed guess
    /// otherwise.
    pub fn range_selectivity(&self, lower: Option<&Value>, upper: Option<&Value>) -> f64 {
        const DEFAULT: f64 = 1.0 / 3.0;
        let (Some(min), Some(max)) = (&self.min, &self.max) else {
            return DEFAULT;
        };
        let (Some(minf), Some(maxf)) = (min.as_double(), max.as_double()) else {
            return DEFAULT;
        };
        if maxf <= minf {
            return 1.0;
        }
        let lo = lower
            .and_then(Value::as_double)
            .map_or(minf, |v| v.clamp(minf, maxf));
        let hi = upper
            .and_then(Value::as_double)
            .map_or(maxf, |v| v.clamp(minf, maxf));
        ((hi - lo) / (maxf - minf)).clamp(0.0, 1.0)
    }
}

/// Statistics for a whole table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TableStats {
    pub row_count: usize,
    /// Per-column stats, positionally aligned with the schema.
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    pub fn compute(batch: &Batch) -> Self {
        TableStats {
            row_count: batch.num_rows(),
            columns: batch.columns().iter().map(ColumnStats::compute).collect(),
        }
    }

    pub fn column(&self, i: usize) -> Option<&ColumnStats> {
        self.columns.get(i)
    }
}

/// The distinct non-null values of one column: a frozen base shared (`Arc`)
/// by every table version, plus the values first seen since it was built.
/// The tail folds into a new base once it holds an eighth of the base, the
/// rule [`crate::index::OrderedIndex`] follows.
#[derive(Debug, Clone, Default)]
struct DistinctValues {
    base: Arc<HashSet<Value>>,
    tail: HashSet<Value>,
}

impl DistinctValues {
    fn len(&self) -> usize {
        self.base.len() + self.tail.len()
    }

    fn insert(&mut self, v: Value) {
        if !self.base.contains(&v) {
            self.tail.insert(v);
        }
    }

    fn fold_if_due(&mut self) {
        if !self.tail.is_empty() && self.tail.len() * 8 >= self.base.len() {
            let mut base = HashSet::with_capacity(self.len());
            base.extend(self.base.iter().cloned());
            base.extend(self.tail.drain());
            self.base = Arc::new(base);
        }
    }
}

/// [`TableStats`] kept exact across appends: [`FoldedStats::fold`] costs
/// what the appended rows cost, and the result always equals
/// [`TableStats::compute`] over all the rows so far. A column whose distinct
/// count the caller knows from elsewhere (an index over the same rows)
/// keeps no values; the others keep theirs, and cloning copies only the
/// tails of values first seen since their last fold.
#[derive(Debug, Clone)]
pub(crate) struct FoldedStats {
    stats: TableStats,
    /// `None` for a column whose distinct count is passed in.
    distinct: Vec<Option<DistinctValues>>,
}

impl FoldedStats {
    /// Statistics over `parts`, concatenated in order. `known_ndv[c]` is
    /// column `c`'s distinct count over all of `parts` when the caller
    /// tracks it; such columns keep no distinct values, now or later.
    pub(crate) fn compute<'a>(
        parts: impl IntoIterator<Item = &'a Batch>,
        known_ndv: &[Option<usize>],
    ) -> Self {
        let mut folded = FoldedStats {
            stats: TableStats {
                row_count: 0,
                columns: vec![ColumnStats::empty(); known_ndv.len()],
            },
            distinct: known_ndv
                .iter()
                .map(|n| n.is_none().then(DistinctValues::default))
                .collect(),
        };
        for part in parts {
            folded.fold(part, known_ndv);
        }
        folded
    }

    /// Fold appended rows in; `known_ndv` as for [`FoldedStats::compute`],
    /// counted over every row including these.
    pub(crate) fn fold(&mut self, rows: &Batch, known_ndv: &[Option<usize>]) {
        self.stats.row_count += rows.num_rows();
        for (ci, (stats, distinct)) in self
            .stats
            .columns
            .iter_mut()
            .zip(&mut self.distinct)
            .enumerate()
        {
            stats.fold(rows.column(ci), distinct.as_mut());
            match distinct {
                Some(d) => d.fold_if_due(),
                None => stats.ndv = known_ndv[ci].unwrap_or(stats.ndv),
            }
        }
    }

    pub(crate) fn stats(&self) -> &TableStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::schema_ref;
    use crate::schema::{Field, Schema};
    use crate::value::DataType;

    fn batch() -> Batch {
        let schema = schema_ref(Schema::new(vec![
            Field::new("t", DataType::Int),
            Field::new("loc", DataType::Str),
        ]));
        Batch::from_rows(
            schema,
            &[
                vec![Value::Int(0), Value::str("a")],
                vec![Value::Int(50), Value::str("b")],
                vec![Value::Int(100), Value::str("a")],
                vec![Value::Null, Value::str("c")],
            ],
        )
        .unwrap()
    }

    #[test]
    fn compute_stats() {
        let s = TableStats::compute(&batch());
        assert_eq!(s.row_count, 4);
        let t = s.column(0).unwrap();
        assert_eq!(t.min, Some(Value::Int(0)));
        assert_eq!(t.max, Some(Value::Int(100)));
        assert_eq!(t.ndv, 3);
        assert_eq!(t.null_count, 1);
        let loc = s.column(1).unwrap();
        assert_eq!(loc.ndv, 3);
    }

    #[test]
    fn eq_selectivity_uses_ndv() {
        let s = TableStats::compute(&batch());
        assert!((s.column(1).unwrap().eq_selectivity() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn range_selectivity_interpolates() {
        let s = TableStats::compute(&batch());
        let t = s.column(0).unwrap();
        let sel = t.range_selectivity(None, Some(&Value::Int(50)));
        assert!((sel - 0.5).abs() < 1e-12);
        let sel = t.range_selectivity(Some(&Value::Int(25)), Some(&Value::Int(75)));
        assert!((sel - 0.5).abs() < 1e-12);
        // Out-of-range bounds clamp.
        let sel = t.range_selectivity(Some(&Value::Int(-100)), None);
        assert!((sel - 1.0).abs() < 1e-12);
    }

    #[test]
    fn string_range_uses_default_guess() {
        let s = TableStats::compute(&batch());
        let loc = s.column(1).unwrap();
        let sel = loc.range_selectivity(Some(&Value::str("a")), None);
        assert!(sel > 0.0 && sel < 1.0);
    }
}
