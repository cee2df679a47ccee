//! Sealed segments and their zone maps.
//!
//! A table's data is a sequence of segments, each covering a contiguous row
//! range `[start, start + rows)` with one [`ZoneMap`] per column computed at
//! seal time. Segments are immutable once sealed; ingest appends new ones.
//! Ids are assigned in seal order and never reused, so a set of segment ids
//! identifies a specific snapshot of the rows covering a key — which is what
//! the cleansed-sequence cache uses for invalidation.
//!
//! A zone map never proves a segment *does* contain matching rows — it only
//! proves, sometimes, that it *cannot*. [`ZonePredicate::may_match`] is the
//! pruning test: `false` means every row of the segment is guaranteed to
//! fail the predicate, so the scan may skip the whole segment without
//! changing its result. Zone maps order values by [`Value::total_cmp`], the
//! order indexes and sorts use — a requirement for pruning soundness.

use crate::batch::Batch;
use crate::index::ScanBound;
use crate::schema::SchemaRef;
use crate::value::Value;
use std::cmp::Ordering;

/// Min/max + null/row counts for one column over one segment.
///
/// `min`/`max` are `None` iff the segment has no non-null values in the
/// column (all-null or zero rows) — such a segment can never satisfy a
/// value predicate on that column.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ZoneMap {
    pub min: Option<Value>,
    pub max: Option<Value>,
    pub null_count: u64,
    pub row_count: u64,
}

impl ZoneMap {
    /// Fold one non-null value into the summary.
    pub fn observe(&mut self, v: &Value) {
        self.row_count += 1;
        if self.min.as_ref().is_none_or(|m| v.total_cmp(m).is_lt()) {
            self.min = Some(v.clone());
        }
        if self.max.as_ref().is_none_or(|m| v.total_cmp(m).is_gt()) {
            self.max = Some(v.clone());
        }
    }

    /// Fold one null into the summary.
    pub fn observe_null(&mut self) {
        self.row_count += 1;
        self.null_count += 1;
    }

    /// Whether `v` falls within `[min, max]`. `false` when the segment has
    /// no non-null values.
    pub fn contains(&self, v: &Value) -> bool {
        match (&self.min, &self.max) {
            (Some(min), Some(max)) => v.total_cmp(min).is_ge() && v.total_cmp(max).is_le(),
            _ => false,
        }
    }
}

/// A conservative per-column predicate against zone maps: an optional range
/// plus an optional IN-list, both of which must admit the segment.
///
/// The constraint must be a *necessary* condition of the row-level filter
/// (every row the filter accepts satisfies it); `may_match` then soundly
/// skips segments whose zone ranges exclude it entirely.
#[derive(Debug, Clone, PartialEq)]
pub struct ZonePredicate {
    /// Column position the zone maps are indexed by.
    pub column: usize,
    pub lower: ScanBound,
    pub upper: ScanBound,
    pub in_values: Option<Vec<Value>>,
}

impl ZonePredicate {
    /// A pure range predicate.
    pub fn range(column: usize, lower: ScanBound, upper: ScanBound) -> Self {
        ZonePredicate {
            column,
            lower,
            upper,
            in_values: None,
        }
    }

    /// Whether the predicate carries any constraint at all.
    pub fn is_trivial(&self) -> bool {
        self.lower == ScanBound::Unbounded
            && self.upper == ScanBound::Unbounded
            && self.in_values.is_none()
    }

    /// `false` = no row in a segment with this zone map can satisfy the
    /// row-level filter; the segment may be skipped.
    pub fn may_match(&self, zone: &ZoneMap) -> bool {
        let (Some(min), Some(max)) = (&zone.min, &zone.max) else {
            // No non-null values: a range or IN constraint on this column
            // (a necessary condition of the filter) cannot be met.
            return self.is_trivial();
        };
        let lower_ok = match &self.lower {
            ScanBound::Unbounded => true,
            ScanBound::Inclusive(l) => l.total_cmp(max).is_le(),
            ScanBound::Exclusive(l) => l.total_cmp(max).is_lt(),
        };
        let upper_ok = match &self.upper {
            ScanBound::Unbounded => true,
            ScanBound::Inclusive(u) => u.total_cmp(min).is_ge(),
            ScanBound::Exclusive(u) => u.total_cmp(min).is_gt(),
        };
        let in_ok = match &self.in_values {
            None => true,
            Some(vals) => vals.iter().any(|v| zone.contains(v)),
        };
        lower_ok && upper_ok && in_ok
    }
}

/// Metadata for one sealed segment.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Seal-order id, unique within the table and never reused.
    pub id: u64,
    /// First row of the segment in table row order.
    pub start: usize,
    /// Number of rows in the segment.
    pub rows: usize,
    /// One zone map per table column, in schema order.
    pub zones: Vec<ZoneMap>,
    /// Column positions this segment's rows are verified non-descending on,
    /// lexicographically, under [`Value::total_cmp`] with NULLs ordered
    /// first (the same total order zone maps and the engine's sorts use).
    /// Empty means no order was verified.
    ///
    /// Like a zone map, this is *derived from the sealed rows themselves* at
    /// seal time and segments are immutable, so trusting it later can never
    /// change results — it only lets a sort treat the segment as one
    /// pre-sorted run instead of re-discovering that by comparison.
    pub sorted_by: Vec<usize>,
}

impl Segment {
    /// The zone map for a column position, if the segment summarizes it.
    pub fn zone(&self, column: usize) -> Option<&ZoneMap> {
        self.zones.get(column)
    }

    /// One past the last row of the segment.
    pub fn end(&self) -> usize {
        self.start + self.rows
    }

    /// Whether every predicate admits this segment (AND semantics). An
    /// unknown column position admits conservatively.
    pub fn may_match_all(&self, predicates: &[ZonePredicate]) -> bool {
        predicates
            .iter()
            .all(|p| self.zone(p.column).is_none_or(|z| p.may_match(z)))
    }

    /// Whether the segment's verified order covers a requested lexicographic
    /// key. Sortedness on `(a, b)` implies sortedness on `(a)`, so the
    /// request is covered when it is a prefix of the verified columns.
    pub fn covers_order(&self, columns: &[usize]) -> bool {
        !columns.is_empty() && self.sorted_by.starts_with(columns)
    }
}

/// A sealed segment together with the rows it describes: the unit a table
/// is a list of. Immutable once sealed and shared (`Arc`) by every table
/// version that contains it, so an append seals only its own rows and never
/// copies an earlier segment. The rows are flat; they may be a window of a
/// larger payload (a table loaded from one batch keeps its segments as
/// windows of that batch). Dereferences to its [`Segment`] metadata.
#[derive(Debug, Clone)]
pub struct SealedSegment {
    meta: Segment,
    data: Batch,
}

impl SealedSegment {
    /// Pair metadata with the rows it was derived from (`meta.rows` flat
    /// rows, e.g. decoded from the segment's file).
    pub(crate) fn new(meta: Segment, data: Batch) -> Self {
        SealedSegment { meta, data }
    }

    /// The segment's metadata (row range, zone maps, verified order).
    pub fn meta(&self) -> &Segment {
        &self.meta
    }

    /// The segment's own rows, `meta().rows` of them.
    pub fn data(&self) -> &Batch {
        &self.data
    }

    /// Re-verify the segment against a (new) declared order.
    pub(crate) fn verify_order(&mut self, order_hint: &[usize]) {
        let verified = verified_order_prefix(&self.data, 0, self.data.num_rows(), order_hint);
        self.meta.sorted_by = order_hint[..verified].to_vec();
    }
}

/// Same metadata and the same rows, value for value.
impl PartialEq for SealedSegment {
    fn eq(&self, other: &Self) -> bool {
        self.meta == other.meta && self.data.columns() == other.data.columns()
    }
}

impl std::ops::Deref for SealedSegment {
    type Target = Segment;

    fn deref(&self) -> &Segment {
        &self.meta
    }
}

/// Seal `rows` — the table's rows `[first_row, first_row + rows.num_rows())`
/// — into segments of at most `target_rows` rows (`None` = one segment),
/// assigning ids from `next_id`. Each segment's rows are a zero-copy window
/// of `rows`. Returns an empty vector when there is nothing to seal.
///
/// `order_hint` names column positions the caller *expects* each segment to
/// be lexicographically non-descending on (e.g. the table's declared
/// sequence order). Sealing verifies the longest prefix of the hint that
/// actually holds for the segment's rows — under the same NULLs-first
/// `total_cmp` order the engine's sorts use — and records it in
/// [`Segment::sorted_by`]. Zone-map-style soundness: the metadata is
/// computed from the sealed, immutable rows themselves, so a later sort may
/// trust it (treating the segment as a pre-sorted run) without any
/// possibility of changing results.
pub fn seal_segments(
    rows: &Batch,
    first_row: usize,
    next_id: u64,
    target_rows: Option<usize>,
    order_hint: &[usize],
) -> Vec<SealedSegment> {
    let total = rows.num_rows();
    let chunk = target_rows.unwrap_or(total).max(1);
    let mut out = Vec::new();
    let mut id = next_id;
    let mut lo = 0;
    while lo < total {
        let hi = (lo + chunk).min(total);
        out.push(seal_one(rows, id, first_row, lo, hi, order_hint));
        id += 1;
        lo = hi;
    }
    out
}

fn seal_one(
    data: &Batch,
    id: u64,
    first_row: usize,
    lo: usize,
    hi: usize,
    order_hint: &[usize],
) -> SealedSegment {
    let zones = (0..data.schema().fields().len())
        .map(|ci| {
            let col = data.column(ci);
            let mut z = ZoneMap::default();
            for i in lo..hi {
                if col.is_null(i) {
                    z.observe_null();
                } else {
                    z.observe(&col.value(i));
                }
            }
            z
        })
        .collect();
    let verified = verified_order_prefix(data, lo, hi, order_hint);
    SealedSegment {
        meta: Segment {
            id,
            start: first_row + lo,
            rows: hi - lo,
            zones,
            sorted_by: order_hint[..verified].to_vec(),
        },
        data: data.slice(lo, hi - lo),
    }
}

/// Compare rows `a`, `b` on column `ci`, ascending with NULLs first — the
/// exact order `sort::cmp_rows` uses for `SortKey::asc`, which is what makes
/// trusting the recorded prefix sound for run detection.
fn cmp_on(data: &Batch, ci: usize, a: usize, b: usize) -> Ordering {
    let col = data.column(ci);
    match (col.is_null(a), col.is_null(b)) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Less,
        (false, true) => Ordering::Greater,
        (false, false) => col.value(a).total_cmp(&col.value(b)),
    }
}

/// Length of the longest prefix of `hint` under which rows `[lo, hi)` are
/// lexicographically non-descending. One pass: a pair whose first differing
/// hint column compares `Greater` at depth `d` violates every prefix longer
/// than `d` (prefixes of length ≤ d see the pair as equal), so the answer is
/// the minimum such depth over all adjacent pairs.
fn verified_order_prefix(data: &Batch, lo: usize, hi: usize, hint: &[usize]) -> usize {
    let mut verified = hint.len();
    for i in lo + 1..hi {
        for (depth, &ci) in hint.iter().enumerate().take(verified) {
            match cmp_on(data, ci, i - 1, i) {
                Ordering::Less => break,
                Ordering::Equal => continue,
                Ordering::Greater => {
                    verified = depth;
                    break;
                }
            }
        }
        if verified == 0 {
            break;
        }
    }
    verified
}

/// Convert one scan candidate (column name + range bounds + optional
/// IN-list) to a zone predicate over a schema's column position. Returns
/// `None` when the column is absent or the candidate carries no constraint.
///
/// Candidates are *necessary* conditions of the scan's residual filter
/// (`derive_index_candidates` extracts only bounds implied by the whole
/// filter), so applying them conjunctively to prune segments is sound.
pub fn candidate_zone_predicate(
    schema: &SchemaRef,
    column: &str,
    lower: &ScanBound,
    upper: &ScanBound,
    in_values: Option<&[Value]>,
) -> Option<ZonePredicate> {
    let ci = schema
        .fields()
        .iter()
        .position(|f| f.name.eq_ignore_ascii_case(column))?;
    let p = ZonePredicate {
        column: ci,
        lower: lower.clone(),
        upper: upper.clone(),
        in_values: in_values.map(<[Value]>::to_vec),
    };
    (!p.is_trivial()).then_some(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::schema_ref;
    use crate::schema::{Field, Schema};
    use crate::value::DataType;

    fn batch() -> Batch {
        let schema = schema_ref(Schema::new(vec![
            Field::new("epc", DataType::Str),
            Field::new("rtime", DataType::Int),
        ]));
        Batch::from_rows(
            schema,
            &[
                vec![Value::str("e1"), Value::Int(10)],
                vec![Value::str("e1"), Value::Int(20)],
                vec![Value::str("e2"), Value::Null],
                vec![Value::str("e3"), Value::Int(40)],
            ],
        )
        .unwrap()
    }

    fn zone(vals: &[i64], nulls: u64) -> ZoneMap {
        let mut z = ZoneMap::default();
        for &v in vals {
            z.observe(&Value::Int(v));
        }
        for _ in 0..nulls {
            z.observe_null();
        }
        z
    }

    fn int(v: i64) -> Value {
        Value::Int(v)
    }

    fn incl(v: i64) -> ScanBound {
        ScanBound::Inclusive(int(v))
    }

    fn excl(v: i64) -> ScanBound {
        ScanBound::Exclusive(int(v))
    }

    fn in_list(column: usize, vals: &[i64]) -> ZonePredicate {
        ZonePredicate {
            column,
            lower: ScanBound::Unbounded,
            upper: ScanBound::Unbounded,
            in_values: Some(vals.iter().copied().map(int).collect()),
        }
    }

    fn seg(id: u64, start: usize, vals: &[i64]) -> Segment {
        Segment {
            id,
            start,
            rows: vals.len(),
            zones: vec![zone(vals, 0)],
            sorted_by: vec![],
        }
    }

    #[test]
    fn observe_tracks_min_max_and_counts() {
        let z = zone(&[5, 1, 9, 3], 2);
        assert_eq!(z.min, Some(int(1)));
        assert_eq!(z.max, Some(int(9)));
        assert_eq!(z.null_count, 2);
        assert_eq!(z.row_count, 6);
        assert!(z.contains(&int(5)));
        assert!(!z.contains(&int(10)));
    }

    #[test]
    fn range_predicate_prunes_disjoint_zones() {
        let z = zone(&[10, 20], 0);
        // [25, ∞) vs [10,20]: disjoint.
        let p = ZonePredicate::range(0, incl(25), ScanBound::Unbounded);
        assert!(!p.may_match(&z));
        // (20, ∞): still disjoint — exclusive bound at the max.
        let p = ZonePredicate::range(0, excl(20), ScanBound::Unbounded);
        assert!(!p.may_match(&z));
        // [20, ∞): touches.
        let p = ZonePredicate::range(0, incl(20), ScanBound::Unbounded);
        assert!(p.may_match(&z));
        // (-∞, 10) excludes, (-∞, 10] touches.
        let p = ZonePredicate::range(0, ScanBound::Unbounded, excl(10));
        assert!(!p.may_match(&z));
        let p = ZonePredicate::range(0, ScanBound::Unbounded, incl(10));
        assert!(p.may_match(&z));
    }

    #[test]
    fn in_list_predicate_checks_membership_range() {
        let z = zone(&[10, 20], 0);
        assert!(in_list(0, &[15]).may_match(&z));
        assert!(!in_list(0, &[1, 2, 30]).may_match(&z));
    }

    #[test]
    fn all_null_zone_is_prunable_by_any_constraint() {
        let z = zone(&[], 4);
        assert!(!ZonePredicate::range(0, incl(0), ScanBound::Unbounded).may_match(&z));
        assert!(!in_list(0, &[0]).may_match(&z));
        // ...but a trivial predicate keeps it.
        assert!(ZonePredicate::range(0, ScanBound::Unbounded, ScanBound::Unbounded).may_match(&z));
    }

    #[test]
    fn string_zones_work() {
        let mut z = ZoneMap::default();
        z.observe(&Value::str("case-003"));
        z.observe(&Value::str("case-007"));
        assert!(z.contains(&Value::str("case-005")));
        assert!(!z.contains(&Value::str("case-100")));
    }

    #[test]
    fn may_match_all_is_conjunctive() {
        let s = seg(0, 0, &[10, 20]);
        let admit = ZonePredicate::range(0, incl(15), ScanBound::Unbounded);
        let reject = ZonePredicate::range(0, incl(25), ScanBound::Unbounded);
        assert!(s.may_match_all(std::slice::from_ref(&admit)));
        assert!(!s.may_match_all(&[admit, reject]));
        assert!(s.may_match_all(&[]));
    }

    #[test]
    fn covers_order_is_prefix_closed() {
        let mut s = seg(0, 0, &[10, 20]);
        assert!(!s.covers_order(&[0]), "no verified order");
        s.sorted_by = vec![0, 1];
        assert!(s.covers_order(&[0]));
        assert!(s.covers_order(&[0, 1]));
        assert!(!s.covers_order(&[1]));
        assert!(!s.covers_order(&[0, 1, 2]));
        assert!(!s.covers_order(&[]));
    }

    #[test]
    fn unknown_column_admits() {
        let s = seg(0, 0, &[10, 20]);
        let p = ZonePredicate::range(7, incl(999), ScanBound::Unbounded);
        assert!(s.may_match_all(&[p]));
        assert_eq!(s.end(), 2);
    }

    #[test]
    fn seal_chunks_and_summarizes() {
        let b = batch();
        let segs = seal_segments(&b, 0, 0, Some(2), &[]);
        assert_eq!(segs.len(), 2);
        assert_eq!((segs[0].start, segs[0].rows), (0, 2));
        assert_eq!((segs[1].start, segs[1].rows), (2, 2));
        assert_eq!(segs[1].id, 1);
        let z = segs[1].zone(1).unwrap();
        assert_eq!(z.min, Some(Value::Int(40)));
        assert_eq!(z.null_count, 1);
        assert_eq!(segs[1].data().num_rows(), 2);
        assert_eq!(segs[1].data().row(0), b.row(2));
        // Sealing appended rows at a table offset with fresh ids.
        let more = seal_segments(&b.slice(3, 1), 3, 7, None, &[]);
        assert_eq!(more.len(), 1);
        assert_eq!((more[0].id, more[0].start, more[0].rows), (7, 3, 1));
        assert!(seal_segments(&b.slice(4, 0), 4, 9, None, &[]).is_empty());
    }

    #[test]
    fn seal_verifies_longest_order_prefix() {
        // batch() is (epc, rtime)-sorted: every adjacent pair already
        // differs on epc, so the NULL rtime never has to carry the order.
        let b = batch();
        let segs = seal_segments(&b, 0, 0, None, &[0, 1]);
        assert_eq!(segs[0].sorted_by, vec![0, 1]);
        // Reversed rows: not sorted on epc at all.
        let rev = b.take(&[3, 2, 1, 0]);
        let segs = seal_segments(&rev, 0, 0, None, &[0, 1]);
        assert!(segs[0].sorted_by.is_empty());
        // Sorted on epc but with rtime descending within e1: prefix = [0].
        let shuffled = Batch::from_rows(
            b.schema().clone(),
            &[
                vec![Value::str("e1"), Value::Int(20)],
                vec![Value::str("e1"), Value::Int(10)],
                vec![Value::str("e2"), Value::Int(5)],
            ],
        )
        .unwrap();
        let segs = seal_segments(&shuffled, 0, 0, None, &[0, 1]);
        assert_eq!(segs[0].sorted_by, vec![0]);
        // NULLs-first: a NULL rtime before a non-null one within a group is
        // in order; after it is not.
        let nulls = Batch::from_rows(
            b.schema().clone(),
            &[
                vec![Value::str("e1"), Value::Null],
                vec![Value::str("e1"), Value::Int(10)],
            ],
        )
        .unwrap();
        assert_eq!(
            seal_segments(&nulls, 0, 0, None, &[0, 1])[0].sorted_by,
            [0, 1]
        );
        let nulls_last = nulls.take(&[1, 0]);
        assert_eq!(
            seal_segments(&nulls_last, 0, 0, None, &[0, 1])[0].sorted_by,
            [0]
        );
    }

    #[test]
    fn candidate_conversion_prunes() {
        let b = batch();
        let segs = seal_segments(&b, 0, 0, Some(2), &[]);
        let p = candidate_zone_predicate(
            b.schema(),
            "RTIME",
            &ScanBound::Inclusive(Value::Int(30)),
            &ScanBound::Unbounded,
            None,
        )
        .unwrap();
        assert!(!segs[0].may_match_all(std::slice::from_ref(&p)));
        assert!(segs[1].may_match_all(std::slice::from_ref(&p)));
        // Unknown column or no constraint -> no predicate.
        assert!(candidate_zone_predicate(
            b.schema(),
            "nope",
            &ScanBound::Unbounded,
            &ScanBound::Unbounded,
            None
        )
        .is_none());
        assert!(candidate_zone_predicate(
            b.schema(),
            "rtime",
            &ScanBound::Unbounded,
            &ScanBound::Unbounded,
            None
        )
        .is_none());
    }
}
