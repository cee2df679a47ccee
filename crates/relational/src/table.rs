//! Tables and the catalog.
//!
//! A [`Table`] is a batch plus its secondary indexes, statistics, and
//! segment metadata; the [`Catalog`] maps names to tables and is shared
//! between the planner, the rewrite engine, and the executor.
//!
//! Tables are immutable once registered — readers always see a consistent
//! snapshot — but grow through [`Catalog::append`], which clones the table,
//! appends a batch (sealing new segments and extending indexes
//! incrementally), and swaps the catalog entry. Readers holding an old
//! `Arc<Table>` keep their snapshot.

use crate::batch::Batch;
use crate::error::{Error, Result};
use crate::index::OrderedIndex;
use crate::schema::SchemaRef;
use crate::segment::{seal_segments, Segment};
use crate::stats::TableStats;
use crate::value::Value;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// A named table: data, indexes, statistics, and sealed segments.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    data: Batch,
    indexes: HashMap<String, OrderedIndex>,
    stats: TableStats,
    /// Sealed row groups with per-column zone maps, covering all rows in
    /// order. A freshly created non-empty table is one segment.
    segments: Vec<Segment>,
    /// Target rows per segment for bulk loads and appends (`None` = one
    /// segment per creation/append).
    segment_rows: Option<usize>,
    /// Declared sequence order (column positions, e.g. `(ckey, skey)`): the
    /// order future appends are *expected* to arrive in. Sealing verifies it
    /// per segment and records the verified prefix in
    /// [`Segment::sorted_by`]; the declaration itself never asserts
    /// anything about the data.
    seq_order: Vec<usize>,
}

impl Table {
    /// Create a table, computing statistics immediately. Non-empty data is
    /// sealed as a single segment.
    pub fn new(name: impl Into<String>, data: Batch) -> Self {
        Self::with_segment_rows_opt(name, data, None)
    }

    /// Create a table whose data is sealed into segments of at most
    /// `segment_rows` rows; later [`Table::append`]s use the same target.
    pub fn with_segment_rows(name: impl Into<String>, data: Batch, segment_rows: usize) -> Self {
        Self::with_segment_rows_opt(name, data, Some(segment_rows.max(1)))
    }

    fn with_segment_rows_opt(
        name: impl Into<String>,
        data: Batch,
        segment_rows: Option<usize>,
    ) -> Self {
        let stats = TableStats::compute(&data);
        let segments = seal_segments(&data, 0, 0, segment_rows, &[]);
        Table {
            name: name.into().to_ascii_lowercase(),
            data,
            indexes: HashMap::new(),
            stats,
            segments,
            segment_rows,
            seq_order: Vec::new(),
        }
    }

    /// Reassemble a table from recovered durable state: `data` is the
    /// concatenation of decoded segment files in id order and `segments` is
    /// the metadata recorded in the commit log. The metadata is trusted —
    /// segments are immutable and it was derived from the sealed rows — but
    /// its row accounting is validated against the data so a corrupt log
    /// cannot misdescribe row ranges. Statistics are recomputed and indexes
    /// rebuilt (equivalent to the incremental builds the live table did).
    pub fn from_recovered(
        name: impl Into<String>,
        data: Batch,
        segments: Vec<Segment>,
        segment_rows: Option<usize>,
        seq_order: Vec<usize>,
        indexes: &[String],
    ) -> Result<Self> {
        let ncols = data.schema().len();
        let mut expected_start = 0usize;
        for s in &segments {
            if s.start != expected_start {
                return Err(Error::Catalog(format!(
                    "recovered segment {} starts at row {}, expected {}",
                    s.id, s.start, expected_start
                )));
            }
            if s.zones.len() != ncols {
                return Err(Error::Catalog(format!(
                    "recovered segment {} has {} zone maps for {} columns",
                    s.id,
                    s.zones.len(),
                    ncols
                )));
            }
            expected_start = s.end();
        }
        if expected_start != data.num_rows() {
            return Err(Error::Catalog(format!(
                "recovered segments cover {} rows, data has {}",
                expected_start,
                data.num_rows()
            )));
        }
        if seq_order.iter().any(|&c| c >= ncols) {
            return Err(Error::Catalog(format!(
                "recovered sequence order references column beyond {ncols}"
            )));
        }
        let stats = TableStats::compute(&data);
        let mut t = Table {
            name: name.into().to_ascii_lowercase(),
            data,
            indexes: HashMap::new(),
            stats,
            segments,
            segment_rows,
            seq_order,
        };
        for column in indexes {
            t.create_index(column)?;
        }
        Ok(t)
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
            .map(|c| self.data.schema().index_of_name(&c.to_ascii_lowercase()))
            .collect::<Result<_>>()?;
        for s in &mut self.segments {
            let verified = crate::segment::verified_order_prefix(
                &self.data,
                s.start,
                s.end(),
                &self.seq_order,
            );
            s.sorted_by = self.seq_order[..verified].to_vec();
        }
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
        self.data.schema()
    }

    pub fn data(&self) -> &Batch {
        &self.data
    }

    pub fn num_rows(&self) -> usize {
        self.data.num_rows()
    }

    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    /// The sealed segments, in row order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Append a batch: concatenate the rows, seal them as new segment(s),
    /// recompute statistics, and extend every existing index incrementally
    /// (no rebuild — see [`OrderedIndex::extend`]).
    pub fn append(&mut self, batch: Batch) -> Result<()> {
        if batch.num_rows() == 0 {
            return Ok(());
        }
        let start = self.data.num_rows();
        let next_id = self.segments.last().map_or(0, |s| s.id + 1);
        self.data = Batch::concat(&[self.data.clone(), batch])?;
        self.segments.extend(seal_segments(
            &self.data,
            start,
            next_id,
            self.segment_rows,
            &self.seq_order,
        ));
        self.stats = TableStats::compute(&self.data);
        for (column, idx) in &mut self.indexes {
            let ci = self.data.schema().index_of_name(column)?;
            idx.extend(self.data.column(ci));
        }
        Ok(())
    }

    /// Build an ordered index on a column. When the index already exists it
    /// is only extended over rows appended since it was last built — never
    /// silently rebuilt from scratch.
    pub fn create_index(&mut self, column: &str) -> Result<()> {
        let column = column.to_ascii_lowercase();
        let ci = self.data.schema().index_of_name(&column)?;
        match self.indexes.get_mut(&column) {
            Some(idx) => idx.extend(self.data.column(ci)),
            None => {
                let idx = OrderedIndex::build(self.data.column(ci));
                self.indexes.insert(column, idx);
            }
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
        let Ok(ci) = self
            .data
            .schema()
            .index_of_name(&column.to_ascii_lowercase())
        else {
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
    pub fn register(&self, table: Table) -> Arc<Table> {
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

    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort_unstable();
        names
    }

    /// Append a batch to a registered table. The table is cloned, mutated,
    /// and swapped in under the write lock (copy-on-write): queries holding
    /// the old `Arc<Table>` keep a consistent snapshot, new lookups see the
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
        assert_eq!(idx.lookup(&Value::Int(10)), &[0, 2]);
        assert_eq!(*idx, OrderedIndex::build(t.data().column(1)));
        // create_index after append is incremental (watermark already
        // current -> no-op).
        let before = idx.clone();
        t.create_index("rtime").unwrap();
        assert_eq!(*t.index("rtime").unwrap(), before);
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
