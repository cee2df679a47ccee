//! Tables and the catalog.
//!
//! A [`Table`] is a list of sealed segments — each an `Arc`-shared
//! [`SealedSegment`] owning its rows and zone maps — plus secondary indexes,
//! statistics and a sequence-order declaration; the [`Catalog`] maps names
//! to tables and is shared between the planner, the rewrite engine, and the
//! executor.
//!
//! Rows enter a table one way: [`Table::push`] adds a sealed segment after
//! the last row. [`Table::append`] seals a batch and pushes it; a table
//! built from one batch is an empty table that appended it; recovery pushes
//! the segments it decoded from their files.
//!
//! Tables are immutable once registered — readers always see a consistent
//! snapshot — but grow through [`Catalog::append`], which builds the next
//! version of the table and swaps the catalog entry. The next version
//! shares every earlier segment and every index's frozen base with the
//! one before, seals only the appended rows, and folds them into the
//! statistics and index tails: an append costs what it appends. Readers
//! holding an old `Arc<Table>` keep their snapshot.
//!
//! [`Table::data`] is the table as one batch. For an empty table, and for
//! one whose rows came in one batch, that is free; otherwise it is a
//! counted flatten ([`flatten_count`]), done at most once per table
//! version. Scans that narrow by index or zone map gather from the segments
//! through [`Table::take`] instead.

use crate::batch::Batch;
use crate::column::{Column, ColumnBuilder};
use crate::error::{Error, Result};
use crate::index::OrderedIndex;
use crate::schema::SchemaRef;
use crate::segment::{seal_segments, SealedSegment};
use crate::stats::{FoldedStats, TableStats};
use crate::value::Value;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

static FLATTENS: AtomicU64 = AtomicU64::new(0);

/// Source of [`Table::version`]s: process-wide, so no two table values
/// that differ ever share one.
static VERSIONS: AtomicU64 = AtomicU64::new(1);

fn next_version() -> u64 {
    VERSIONS.fetch_add(1, Ordering::Relaxed)
}

/// How many times, process-wide, [`Table::data`] has copied a table's
/// segments into one batch.
pub fn flatten_count() -> u64 {
    FLATTENS.load(Ordering::Relaxed)
}

/// A named table: sealed segments, indexes, statistics, sequence order.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: SchemaRef,
    /// Sealed row groups covering all rows in order, each owning its rows
    /// and one zone map per column. A freshly created non-empty table is
    /// one segment unless a target segment size is set.
    segments: Vec<Arc<SealedSegment>>,
    num_rows: usize,
    /// Kept current over every row: an append extends each one.
    indexes: HashMap<String, OrderedIndex>,
    /// Computed on the first [`Table::stats`] call and folded per append
    /// after that; a table nobody costs never pays for statistics.
    stats: OnceLock<FoldedStats>,
    /// The rows as one batch: set when the first append brings every row,
    /// otherwise built on the first [`Table::data`] call.
    flat: OnceLock<Batch>,
    /// Target rows per segment for bulk loads and appends (`None` = one
    /// segment per creation/append).
    segment_rows: Option<usize>,
    /// Declared sequence order (column positions, e.g. `(ckey, skey)`): the
    /// order future appends are *expected* to arrive in. Sealing verifies it
    /// per segment and records the verified prefix in
    /// [`Segment::sorted_by`](crate::segment::Segment::sorted_by); the
    /// declaration itself never asserts anything about the data.
    seq_order: Vec<usize>,
    /// Identifies this table value: drawn fresh when the table is built,
    /// registered, appended to, indexed or re-declared, and kept by a
    /// clone (which is the same value).
    version: u64,
}

impl Table {
    /// Create a table from one batch: an empty table that appends it, so
    /// non-empty data is sealed as a single segment; statistics wait for
    /// the first [`Table::stats`] call.
    pub fn new(name: impl Into<String>, data: Batch) -> Self {
        Self::loaded(name, data, None)
    }

    /// Create a table whose data is sealed into segments of at most
    /// `segment_rows` rows, each a window of `data`; later
    /// [`Table::append`]s use the same target.
    pub fn with_segment_rows(name: impl Into<String>, data: Batch, segment_rows: usize) -> Self {
        Self::loaded(name, data, Some(segment_rows.max(1)))
    }

    fn loaded(name: impl Into<String>, data: Batch, segment_rows: Option<usize>) -> Self {
        let mut t = Self::empty(name, data.schema().clone(), segment_rows, Vec::new())
            .expect("no sequence order to check");
        if data.num_rows() == 0 {
            t.flat = OnceLock::from(data.flatten());
        }
        t.append(data)
            .expect("a batch appends under its own schema");
        t
    }

    /// An empty table: a table definition's schema, segment target and
    /// sequence order (column positions), with no rows yet. Rows enter
    /// through [`Table::push`] or [`Table::append`].
    pub fn empty(
        name: impl Into<String>,
        schema: SchemaRef,
        segment_rows: Option<usize>,
        seq_order: Vec<usize>,
    ) -> Result<Self> {
        if let Some(&c) = seq_order.iter().find(|&&c| c >= schema.len()) {
            return Err(Error::Catalog(format!(
                "sequence order names column {c} of {}",
                schema.len()
            )));
        }
        Ok(Table {
            name: name.into().to_ascii_lowercase(),
            schema,
            segments: Vec::new(),
            num_rows: 0,
            indexes: HashMap::new(),
            stats: OnceLock::new(),
            flat: OnceLock::new(),
            segment_rows,
            seq_order,
            version: next_version(),
        })
    }

    /// The configured target rows per sealed segment (`None` = one segment
    /// per creation/append).
    pub fn segment_target_rows(&self) -> Option<usize> {
        self.segment_rows
    }

    /// Declare the table's sequence order (e.g. `("epc", "rtime")` for RFID
    /// reads). Already-sealed segments are re-verified against the new
    /// order; future appends verify it at seal time, making sortedness a
    /// metadata property on the append path.
    pub fn set_sequence_order(&mut self, columns: &[&str]) -> Result<()> {
        self.seq_order = columns
            .iter()
            .map(|c| self.schema.index_of_name(&c.to_ascii_lowercase()))
            .collect::<Result<_>>()?;
        for s in &mut self.segments {
            Arc::make_mut(s).verify_order(&self.seq_order);
        }
        self.version = next_version();
        Ok(())
    }

    /// The declared sequence order as column positions (empty = undeclared).
    pub fn sequence_order(&self) -> &[usize] {
        &self.seq_order
    }

    /// Metadata-only run cover: if *every* segment is verified sorted on
    /// `columns` (a prefix of its recorded order), the table's rows are a
    /// concatenation of sorted runs whose start offsets this returns — no
    /// data inspection needed. `None` when any segment lacks the order or
    /// the table is empty.
    pub fn segment_runs(&self, columns: &[usize]) -> Option<Vec<usize>> {
        if self.segments.is_empty() || columns.is_empty() {
            return None;
        }
        self.segments
            .iter()
            .all(|s| s.covers_order(columns))
            .then(|| self.segments.iter().map(|s| s.start).collect())
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Every row as one batch. Free for an empty table and for one built
    /// from one batch; otherwise the segments are copied into one batch once
    /// per table version (counted by [`flatten_count`]). Prefer
    /// [`Table::take`] or [`Table::segments`] where a subset or a
    /// per-segment pass will do.
    pub fn data(&self) -> &Batch {
        self.flat.get_or_init(|| {
            if self.segments.is_empty() {
                return Batch::empty(self.schema.clone());
            }
            FLATTENS.fetch_add(1, Ordering::Relaxed);
            let parts: Vec<Batch> = self.segments.iter().map(|s| s.data().clone()).collect();
            Batch::concat(&parts).expect("segments share the table schema")
        })
    }

    /// Gather rows by table row id (the output's row `k` is row `rows[k]`),
    /// reading each run of ids that falls in one segment from that segment
    /// straight into the output columns. Equal to `self.data().take(rows)`
    /// without flattening the table.
    pub fn take(&self, rows: &[usize]) -> Batch {
        if let Some(flat) = self.flat.get() {
            return flat.take(rows);
        }
        let mut runs: Vec<(&SealedSegment, Vec<u32>)> = Vec::new();
        let mut i = 0;
        while i < rows.len() {
            let seg = &self.segments[self.segment_of(rows[i])];
            let local: Vec<u32> = rows[i..]
                .iter()
                .take_while(|&&r| r >= seg.start && r < seg.end())
                .map(|&r| (r - seg.start) as u32)
                .collect();
            assert!(
                !local.is_empty(),
                "row {} out of bounds for {} rows",
                rows[i],
                self.num_rows
            );
            i += local.len();
            runs.push((seg, local));
        }
        let columns = self
            .schema
            .fields()
            .iter()
            .enumerate()
            .map(|(ci, f)| {
                let mut b = ColumnBuilder::new(f.data_type, rows.len());
                for (seg, local) in &runs {
                    b.extend_selected(seg.data().column(ci), local);
                }
                b.finish()
            })
            .collect();
        Batch::new(self.schema.clone(), columns).expect("columns gathered under the table schema")
    }

    /// Position of the segment holding table row `row`.
    fn segment_of(&self, row: usize) -> usize {
        self.segments
            .partition_point(|s| s.start <= row)
            .saturating_sub(1)
    }

    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Exact statistics, computed over every segment on first use and folded
    /// per append after that.
    pub fn stats(&self) -> &TableStats {
        self.folded_stats().stats()
    }

    fn folded_stats(&self) -> &FoldedStats {
        self.stats.get_or_init(|| {
            FoldedStats::compute(self.segments.iter().map(|s| s.data()), &self.indexed_ndv())
        })
    }

    /// Per column, the distinct count of its index, if it has one: the
    /// statistics take NDV from there instead of keeping the values.
    fn indexed_ndv(&self) -> Vec<Option<usize>> {
        self.schema
            .fields()
            .iter()
            .map(|f| {
                let name = f.name.to_ascii_lowercase();
                self.indexes.get(&name).map(OrderedIndex::distinct_keys)
            })
            .collect()
    }

    /// This table value's version: equal versions mean equal rows,
    /// indexes and statistics.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The sealed segments, in row order.
    pub fn segments(&self) -> &[Arc<SealedSegment>] {
        &self.segments
    }

    /// Append a batch: seal its rows as new segment(s) and
    /// [`push`](Table::push) them. Earlier segments are shared, not copied.
    pub fn append(&mut self, batch: Batch) -> Result<()> {
        if batch.num_rows() == 0 {
            return Ok(());
        }
        let rows = batch.flatten().with_schema(self.schema.clone())?;
        let first = self.num_rows == 0;
        let next_id = self.segments.last().map_or(0, |s| s.id + 1);
        for segment in seal_segments(
            &rows,
            self.num_rows,
            next_id,
            self.segment_rows,
            &self.seq_order,
        ) {
            self.push(Arc::new(segment))?;
        }
        if first {
            // The segments are windows of `rows`: the table as one batch.
            self.flat = OnceLock::from(rows);
        }
        Ok(())
    }

    /// Add a sealed segment after the last row: the one way rows enter a
    /// table. The segment must start where the table ends, carry one zone
    /// map per column and `rows` rows under the table's schema; its verified
    /// order is trusted (it was derived from the rows when they were
    /// sealed). Extends every index, folds the rows into the statistics if
    /// they have been computed, and draws a new version.
    pub fn push(&mut self, segment: Arc<SealedSegment>) -> Result<()> {
        let rows = segment.data();
        let refuse = |fault: String| {
            Err(Error::Catalog(format!(
                "segment {} of '{}' {fault}",
                segment.id, self.name
            )))
        };
        if segment.start != self.num_rows {
            return refuse(format!(
                "starts at row {}, table ends at row {}",
                segment.start, self.num_rows
            ));
        }
        if segment.zones.len() != self.schema.len() {
            return refuse(format!(
                "has {} zone maps for {} columns",
                segment.zones.len(),
                self.schema.len()
            ));
        }
        if rows.num_rows() != segment.rows {
            return refuse(format!(
                "holds {} rows, its metadata says {}",
                rows.num_rows(),
                segment.rows
            ));
        }
        if !Arc::ptr_eq(rows.schema(), &self.schema) && rows.schema() != &self.schema {
            return refuse(format!(
                "has schema [{}], table has [{}]",
                rows.schema(),
                self.schema
            ));
        }
        for (column, idx) in &mut self.indexes {
            idx.extend(rows.column(self.schema.index_of_name(column)?));
        }
        let known_ndv = self.indexed_ndv();
        if let Some(stats) = self.stats.get_mut() {
            stats.fold(rows, &known_ndv);
        }
        self.flat = OnceLock::new();
        self.num_rows += segment.rows;
        self.segments.push(segment);
        self.version = next_version();
        Ok(())
    }

    /// Build an ordered index on a column over every segment. An index that
    /// already exists is current (appends extend it) and is left as it is.
    pub fn create_index(&mut self, column: &str) -> Result<()> {
        let column = column.to_ascii_lowercase();
        let ci = self.schema.index_of_name(&column)?;
        if !self.indexes.contains_key(&column) {
            let parts: Vec<&Column> = self.segments.iter().map(|s| s.data().column(ci)).collect();
            self.indexes
                .insert(column, OrderedIndex::build_parts(&parts));
            self.version = next_version();
        }
        Ok(())
    }

    /// The index on `column`, if one exists.
    pub fn index(&self, column: &str) -> Option<&OrderedIndex> {
        self.indexes.get(&column.to_ascii_lowercase())
    }

    pub fn indexed_columns(&self) -> Vec<&str> {
        let mut cols: Vec<&str> = self.indexes.keys().map(String::as_str).collect();
        cols.sort_unstable();
        cols
    }

    /// Ids of the segments whose zone range on `column` admits `v` — the
    /// segments that *could* hold rows with that value. Ascending (segments
    /// are stored in seal order). Used as the validity token of the
    /// cleansed-sequence cache: appending rows for a key changes its
    /// covering set, which invalidates exactly that key.
    pub fn covering_segments(&self, column: &str, v: &Value) -> Vec<u64> {
        let Ok(ci) = self.schema.index_of_name(&column.to_ascii_lowercase()) else {
            return Vec::new();
        };
        self.segments
            .iter()
            .filter(|s| s.zone(ci).is_some_and(|z| z.contains(v)))
            .map(|s| s.id)
            .collect()
    }
}

/// A thread-safe name → table map.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: RwLock<HashMap<String, Arc<Table>>>,
}

impl Catalog {
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register a table, replacing any existing table of the same name.
    pub fn register(&self, mut table: Table) -> Arc<Table> {
        table.version = next_version();
        let t = Arc::new(table);
        self.tables
            .write()
            .insert(t.name().to_string(), Arc::clone(&t));
        t
    }

    /// Register an already-shared table handle, replacing any existing
    /// table of the same name. Lets several catalogs (e.g. shard catalogs
    /// replicating a dimension table) share one allocation.
    pub fn register_shared(&self, table: Arc<Table>) -> Arc<Table> {
        self.tables
            .write()
            .insert(table.name().to_string(), Arc::clone(&table));
        table
    }

    pub fn get(&self, name: &str) -> Result<Arc<Table>> {
        self.tables
            .read()
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| Error::Catalog(format!("no such table '{name}'")))
    }

    pub fn contains(&self, name: &str) -> bool {
        self.tables.read().contains_key(&name.to_ascii_lowercase())
    }

    /// Every table's name and [`Table::version`], sorted by name: equal
    /// lists mean every table holds the same value.
    pub fn table_versions(&self) -> Vec<(String, u64)> {
        let mut versions: Vec<(String, u64)> = self
            .tables
            .read()
            .iter()
            .map(|(name, t)| (name.clone(), t.version))
            .collect();
        versions.sort_unstable();
        versions
    }

    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort_unstable();
        names
    }

    /// Append a batch to a registered table: the next version shares the
    /// current one's segments and index bases, adds the batch's sealed
    /// segments, and is swapped in under the write lock. Queries holding the
    /// old `Arc<Table>` keep a consistent snapshot; new lookups see the
    /// appended rows, fresh segments, and extended indexes.
    pub fn append(&self, name: &str, batch: Batch) -> Result<Arc<Table>> {
        let key = name.to_ascii_lowercase();
        let mut tables = self.tables.write();
        let current = tables
            .get(&key)
            .ok_or_else(|| Error::Catalog(format!("no such table '{name}'")))?;
        let mut t = Table::clone(current);
        t.append(batch)?;
        let t = Arc::new(t);
        tables.insert(key, Arc::clone(&t));
        Ok(t)
    }

    /// A shallow copy of the catalog: same `Arc<Table>` entries, independent
    /// map. Used to register transient tables (e.g. cache-assembled
    /// cleansed rows) without them leaking into the shared catalog.
    pub fn overlay(&self) -> Catalog {
        Catalog {
            tables: RwLock::new(self.tables.read().clone()),
        }
    }
}

/// Shared catalog handle.
pub type CatalogRef = Arc<Catalog>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::schema_ref;
    use crate::schema::{Field, Schema};
    use crate::segment::Segment;
    use crate::value::{DataType, Value};

    fn sample_batch() -> Batch {
        let schema = schema_ref(Schema::new(vec![
            Field::new("epc", DataType::Str),
            Field::new("rtime", DataType::Int),
        ]));
        Batch::from_rows(
            schema,
            &[
                vec![Value::str("e1"), Value::Int(10)],
                vec![Value::str("e2"), Value::Int(20)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn table_with_index_and_stats() {
        let mut t = Table::new("CaseR", sample_batch());
        assert_eq!(t.name(), "caser");
        assert_eq!(t.stats().row_count, 2);
        t.create_index("rtime").unwrap();
        assert!(t.index("RTIME").is_some());
        assert!(t.index("epc").is_none());
        assert_eq!(t.indexed_columns(), vec!["rtime"]);
        assert!(t.create_index("nope").is_err());
    }

    #[test]
    fn catalog_roundtrip() {
        let cat = Catalog::new();
        cat.register(Table::new("caser", sample_batch()));
        assert!(cat.contains("CASER"));
        assert_eq!(cat.get("caser").unwrap().num_rows(), 2);
        assert_eq!(cat.table_names(), vec!["caser"]);
    }

    #[test]
    fn register_replaces() {
        let cat = Catalog::new();
        cat.register(Table::new("t", sample_batch()));
        let b2 = sample_batch().take(&[0]);
        cat.register(Table::new("t", b2));
        assert_eq!(cat.get("t").unwrap().num_rows(), 1);
    }

    #[test]
    fn new_table_is_one_segment() {
        let t = Table::new("t", sample_batch());
        assert_eq!(t.segments().len(), 1);
        assert_eq!(t.segments()[0].rows, 2);
        // An empty table has no segments.
        let empty = Table::new("e", sample_batch().take(&[]));
        assert!(empty.segments().is_empty());
    }

    #[test]
    fn append_seals_segments_and_extends_indexes() {
        let mut t = Table::with_segment_rows("t", sample_batch(), 2);
        t.create_index("rtime").unwrap();
        t.append(sample_batch()).unwrap();
        assert_eq!(t.num_rows(), 4);
        assert_eq!(t.segments().len(), 2);
        assert_eq!(t.segments()[1].id, 1);
        assert_eq!(t.segments()[1].start, 2);
        assert_eq!(t.stats().row_count, 4);
        // The index was extended over the appended rows without a rebuild,
        // and matches a from-scratch build.
        let idx = t.index("rtime").unwrap();
        assert_eq!(idx.covered_rows(), 4);
        assert_eq!(idx.lookup(&Value::Int(10)).collect::<Vec<_>>(), [0, 2]);
        assert_eq!(*idx, OrderedIndex::build(t.data().column(1)));
        // create_index on an existing index leaves the current one alone.
        let before = idx.clone();
        t.create_index("rtime").unwrap();
        assert_eq!(*t.index("rtime").unwrap(), before);
    }

    #[test]
    fn push_refuses_segments_that_do_not_fit() {
        // Row 1 of the sample as a one-row segment, and the one-row table
        // it would follow.
        let whole = Table::with_segment_rows("t", sample_batch(), 1);
        let good = &whole.segments()[1];
        let head = || Table::new("t", sample_batch().take(&[0]));
        let meta = good.meta().clone();
        let doubles = schema_ref(Schema::new(vec![
            Field::new("epc", DataType::Str),
            Field::new("rtime", DataType::Double),
        ]));
        let doubles = Batch::from_rows(doubles, &[vec![Value::str("e2"), Value::Double(20.0)]]);
        let cases = [
            (
                "gap",
                Segment {
                    start: 2,
                    ..meta.clone()
                },
                good.data().clone(),
                "starts at row 2, table ends at row 1",
            ),
            (
                "zones",
                Segment {
                    zones: meta.zones[..1].to_vec(),
                    ..meta.clone()
                },
                good.data().clone(),
                "has 1 zone maps for 2 columns",
            ),
            (
                "rows",
                Segment {
                    rows: 2,
                    ..meta.clone()
                },
                good.data().clone(),
                "holds 1 rows, its metadata says 2",
            ),
            (
                "schema",
                meta,
                doubles.unwrap(),
                "has schema [epc VARCHAR, rtime DOUBLE]",
            ),
        ];
        for (case, meta, rows, message) in cases {
            let mut t = head();
            let before = (t.version(), t.num_rows());
            let err = t
                .push(Arc::new(SealedSegment::new(meta, rows)))
                .expect_err(case);
            assert!(matches!(err, Error::Catalog(_)), "{case}: {err:?}");
            assert!(err.message().contains(message), "{case}: {err}");
            assert_eq!((t.version(), t.num_rows()), before, "{case}");
        }
        let mut t = head();
        t.push(Arc::clone(good)).unwrap();
        assert_eq!(t.data().row(1), whole.data().row(1));
    }

    #[test]
    fn covering_segments_tracks_zone_ranges() {
        let mut t = Table::with_segment_rows("t", sample_batch(), 2);
        assert_eq!(t.covering_segments("epc", &Value::str("e1")), vec![0]);
        t.append(
            Batch::from_rows(
                sample_batch().schema().clone(),
                &[vec![Value::str("e1"), Value::Int(99)]],
            )
            .unwrap(),
        )
        .unwrap();
        // The appended segment's epc zone is [e1, e1]: e1's covering set
        // changed, e2's did not.
        assert_eq!(t.covering_segments("epc", &Value::str("e1")), vec![0, 1]);
        assert_eq!(t.covering_segments("epc", &Value::str("e2")), vec![0]);
        assert!(t.covering_segments("nope", &Value::str("e1")).is_empty());
    }

    #[test]
    fn sequence_order_is_verified_per_segment() {
        let mut t = Table::new("t", sample_batch());
        // No declared order -> no metadata runs.
        assert!(t.segment_runs(&[0]).is_none());
        assert!(t.set_sequence_order(&["nope"]).is_err());
        t.set_sequence_order(&["EPC", "rtime"]).unwrap();
        assert_eq!(t.sequence_order(), &[0, 1]);
        // The existing segment was re-verified against the new order.
        assert_eq!(t.segment_runs(&[0]), Some(vec![0]));
        assert_eq!(t.segment_runs(&[0, 1]), Some(vec![0]));
        // A sorted append seals a segment that covers the order: two runs.
        t.append(sample_batch()).unwrap();
        assert_eq!(t.segment_runs(&[0, 1]), Some(vec![0, 2]));
        // An unsorted append (epc descending) covers no prefix, so the
        // whole-table metadata cover disappears.
        t.append(sample_batch().take(&[1, 0])).unwrap();
        assert!(t.segment_runs(&[0]).is_none());
        assert!(t.segment_runs(&[]).is_none());
    }

    #[test]
    fn catalog_append_is_copy_on_write() {
        let cat = Catalog::new();
        cat.register(Table::new("t", sample_batch()));
        let snapshot = cat.get("t").unwrap();
        cat.append("t", sample_batch().take(&[0])).unwrap();
        assert_eq!(snapshot.num_rows(), 2, "old handle keeps its snapshot");
        assert_eq!(cat.get("t").unwrap().num_rows(), 3);
        assert!(cat.append("nope", sample_batch()).is_err());
    }

    #[test]
    fn overlay_is_independent() {
        let cat = Catalog::new();
        cat.register(Table::new("t", sample_batch()));
        let overlay = cat.overlay();
        overlay.register(Table::new("extra", sample_batch()));
        assert!(overlay.contains("t"));
        assert!(overlay.contains("extra"));
        assert!(!cat.contains("extra"));
    }
}
