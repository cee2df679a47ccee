//! Durable shard state: the commit log schema, recovery, and historical
//! snapshot materialization.
//!
//! Each shard owns one directory holding an append-only `commit.log`
//! plus a `seg/` directory of immutable columnar segment files. The log
//! is the source of truth for *metadata* — table definitions, segment
//! membership per epoch, rules versions — while segment files hold the
//! rows. Because every `SegmentAdded` record embeds the segment's zone
//! maps and verified sort order, recovery (and `AS OF` materialization)
//! can decide which files a scan even opens without touching them:
//! delta-kernel-style data skipping from log metadata alone.
//!
//! Write protocol per epoch: segment files first (atomic tmp + fsync +
//! rename + dir fsync), then `SegmentAdded` records, then `EpochCommit`,
//! then one log fsync. An epoch is durable iff its `EpochCommit` is
//! readable; everything after the last commit is a crash artifact that
//! recovery discards (and compaction truncates).
//!
//! A segment file decodes back into the [`SealedSegment`] it was written
//! from, and the [`SegmentStore`] keeps one `Arc` of it per file: every
//! table [`materialize_catalog`] builds, at any epoch, pushes those same
//! `Arc`s, so recovered and historical tables share their rows.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use dc_log::{read_log, LogDir, LogError, LogWriter};
use dc_relational::persist::{
    decode_fields, decode_segment_file, decode_segment_meta, encode_fields, encode_segment_file,
    encode_segment_meta, StrPool,
};
use dc_relational::prelude::*;
use dc_relational::segment::{SealedSegment, Segment, ZonePredicate};
use dc_storage::{ByteReader, ByteWriter};
use parking_lot::Mutex;
use std::sync::Arc;

type LogResult<T> = std::result::Result<T, LogError>;

/// Relative name of a shard's commit log inside its directory.
pub const COMMIT_LOG: &str = "commit.log";

const KIND_TABLE_CREATED: u8 = 1;
const KIND_SEGMENT_ADDED: u8 = 2;
const KIND_EPOCH_COMMIT: u8 = 3;
const KIND_RULES: u8 = 4;
const KIND_TOPOLOGY: u8 = 5;
const KIND_GLOBAL_COMMIT: u8 = 6;

/// One record of the durable commit log. Shard logs carry the first
/// four kinds; the service's root manifest carries the last two.
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    /// A table registered at bootstrap: schema plus the physical knobs
    /// (segment target, declared sequence order, index set) needed to
    /// reconstruct an equivalent live table.
    TableCreated(TableSpec),
    /// A sealed segment written for its epoch, with its full metadata
    /// (zone maps + verified order) embedded so pruning needs no file
    /// access.
    SegmentAdded(SegmentEntry),
    /// Epoch barrier: everything logged since the previous commit is
    /// part of `epoch`, which is durable once this record is synced.
    EpochCommit { epoch: u64 },
    /// A rules-catalog version (serialized as JSON). Not epoch data:
    /// recovery applies the latest readable version.
    Rules { version: u64, json: String },
    /// Root-manifest: the sharded service's fixed topology.
    Topology {
        shards: u32,
        key: String,         // empty = unsharded / no partition key
        cache_capacity: u64, // 0 = cleanse cache disabled
    },
    /// Root-manifest: global epoch `global` maps to this per-shard
    /// epoch vector, durable once every shard's log covers it.
    GlobalCommit { global: u64, vector: Vec<u64> },
}

/// A table definition: what `TableCreated` logs and recovery rebuilds.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSpec {
    pub name: String,
    pub fields: Vec<Field>,
    pub segment_rows: Option<usize>,
    pub seq_order: Vec<usize>,
    pub indexes: Vec<String>,
}

impl TableSpec {
    /// The definition of a live table.
    pub fn of(table: &Table) -> Self {
        TableSpec {
            name: table.name().to_string(),
            fields: table.schema().fields().to_vec(),
            segment_rows: table.segment_target_rows(),
            seq_order: table.sequence_order().to_vec(),
            indexes: table
                .indexed_columns()
                .iter()
                .map(|s| s.to_string())
                .collect(),
        }
    }
}

/// One `SegmentAdded` record: a sealed segment's file and metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentEntry {
    pub table: String,
    pub epoch: u64,
    pub file: String,
    pub meta: Segment,
}

/// Serialize one record to a log payload (the framing — length and
/// checksum — is the log writer's job).
pub fn encode_record(rec: &LogRecord) -> Vec<u8> {
    let mut w = ByteWriter::new();
    match rec {
        LogRecord::TableCreated(t) => {
            w.put_u8(KIND_TABLE_CREATED);
            w.put_str(&t.name);
            encode_fields(&t.fields, &mut w);
            w.put_u64(t.segment_rows.unwrap_or(0) as u64); // 0 = unset
            w.put_u32(t.seq_order.len() as u32);
            for &c in &t.seq_order {
                w.put_u32(c as u32);
            }
            w.put_u32(t.indexes.len() as u32);
            for i in &t.indexes {
                w.put_str(i);
            }
        }
        LogRecord::SegmentAdded(s) => {
            w.put_u8(KIND_SEGMENT_ADDED);
            w.put_str(&s.table);
            w.put_u64(s.epoch);
            w.put_str(&s.file);
            encode_segment_meta(&s.meta, &mut w);
        }
        LogRecord::EpochCommit { epoch } => {
            w.put_u8(KIND_EPOCH_COMMIT);
            w.put_u64(*epoch);
        }
        LogRecord::Rules { version, json } => {
            w.put_u8(KIND_RULES);
            w.put_u64(*version);
            w.put_str(json);
        }
        LogRecord::Topology {
            shards,
            key,
            cache_capacity,
        } => {
            w.put_u8(KIND_TOPOLOGY);
            w.put_u32(*shards);
            w.put_str(key);
            w.put_u64(*cache_capacity);
        }
        LogRecord::GlobalCommit { global, vector } => {
            w.put_u8(KIND_GLOBAL_COMMIT);
            w.put_u64(*global);
            w.put_u32(vector.len() as u32);
            for &e in vector {
                w.put_u64(e);
            }
        }
    }
    w.into_bytes()
}

/// Decode one checksummed log payload. Fails typed on unknown kinds and
/// structural damage; never panics.
pub fn decode_record(payload: &[u8]) -> LogResult<LogRecord> {
    let mut r = ByteReader::new(payload);
    let kind = r.get_u8()?;
    let rec = match kind {
        KIND_TABLE_CREATED => {
            let name = r.get_str()?.to_string();
            let fields = decode_fields(&mut r)?;
            let segment_rows = r.get_u64()? as usize;
            let n_order = r.get_count(4)?;
            let mut seq_order = Vec::with_capacity(n_order);
            for _ in 0..n_order {
                seq_order.push(r.get_u32()? as usize);
            }
            let n_idx = r.get_count(4)?;
            let mut indexes = Vec::with_capacity(n_idx);
            for _ in 0..n_idx {
                indexes.push(r.get_str()?.to_string());
            }
            LogRecord::TableCreated(TableSpec {
                name,
                fields,
                segment_rows: (segment_rows > 0).then_some(segment_rows),
                seq_order,
                indexes,
            })
        }
        KIND_SEGMENT_ADDED => LogRecord::SegmentAdded(SegmentEntry {
            table: r.get_str()?.to_string(),
            epoch: r.get_u64()?,
            file: r.get_str()?.to_string(),
            meta: decode_segment_meta(&mut r)?,
        }),
        KIND_EPOCH_COMMIT => LogRecord::EpochCommit {
            epoch: r.get_u64()?,
        },
        KIND_RULES => LogRecord::Rules {
            version: r.get_u64()?,
            json: r.get_str()?.to_string(),
        },
        KIND_TOPOLOGY => LogRecord::Topology {
            shards: r.get_u32()?,
            key: r.get_str()?.to_string(),
            cache_capacity: r.get_u64()?,
        },
        KIND_GLOBAL_COMMIT => {
            let global = r.get_u64()?;
            let n = r.get_count(8)?;
            let mut vector = Vec::with_capacity(n);
            for _ in 0..n {
                vector.push(r.get_u64()?);
            }
            LogRecord::GlobalCommit { global, vector }
        }
        other => return Err(LogError::BadKind { kind: other }),
    };
    if !r.is_empty() {
        return Err(LogError::malformed(format!(
            "{} trailing bytes after record",
            r.remaining()
        )));
    }
    Ok(rec)
}

/// Relative path of a segment file inside a shard directory.
pub fn segment_file_name(table: &str, id: u64) -> String {
    format!("seg/{table}.{id:06}.seg")
}

fn engine_err(context: &str, e: &Error) -> LogError {
    LogError::malformed(format!("{context}: {}", e.message()))
}

/// Writer for one shard's durable state: commit log + segment files.
#[derive(Debug)]
pub struct ShardLog {
    dir: LogDir,
    writer: LogWriter,
}

impl ShardLog {
    /// Open a shard directory for writing (creating `seg/` and the log
    /// as needed). Appends to an existing log — run recovery (and
    /// compaction) first when reopening after a crash.
    pub fn create(dir: LogDir) -> LogResult<Self> {
        dir.subdir("seg")?;
        let writer = LogWriter::open(&dir, COMMIT_LOG)?;
        Ok(ShardLog { dir, writer })
    }

    pub fn dir(&self) -> &LogDir {
        &self.dir
    }

    /// Append one record without syncing.
    pub fn append_record(&mut self, rec: &LogRecord) -> LogResult<()> {
        self.writer.append(&encode_record(rec))
    }

    /// Durability barrier for everything appended so far.
    pub fn sync(&mut self) -> LogResult<()> {
        self.writer.sync()
    }

    /// Record the initial catalog state as epoch 0: every table's
    /// definition and initial segments, the initial rules version, and
    /// the epoch-0 commit.
    pub fn log_bootstrap(
        &mut self,
        catalog: &Catalog,
        rules_version: u64,
        rules_json: &str,
    ) -> LogResult<()> {
        for name in catalog.table_names() {
            let table = catalog
                .get(&name)
                .map_err(|e| engine_err("bootstrap", &e))?;
            self.append_record(&LogRecord::TableCreated(TableSpec::of(&table)))?;
            self.log_table_append(&table, 0, 0)?;
        }
        self.append_record(&LogRecord::Rules {
            version: rules_version,
            json: rules_json.to_string(),
        })?;
        self.commit_epoch(0)
    }

    /// Persist every segment of `table` from position `prev_segments`
    /// on as files + `SegmentAdded` records tagged with `epoch`, returning
    /// the logged entries. Files go first so a committed record never
    /// references a missing file.
    pub fn log_table_append(
        &mut self,
        table: &Table,
        prev_segments: usize,
        epoch: u64,
    ) -> LogResult<Vec<SegmentEntry>> {
        let mut entries = Vec::new();
        for seg in &table.segments()[prev_segments..] {
            let entry = SegmentEntry {
                table: table.name().to_string(),
                epoch,
                file: segment_file_name(table.name(), seg.id),
                meta: seg.meta().clone(),
            };
            let bytes = encode_segment_file(seg.data(), seg)
                .map_err(|e| engine_err("segment encode", &e))?;
            self.dir.write_atomic(&entry.file, &bytes)?;
            self.append_record(&LogRecord::SegmentAdded(entry.clone()))?;
            entries.push(entry);
        }
        Ok(entries)
    }

    /// Commit `epoch`: the one fsync that makes it durable.
    pub fn commit_epoch(&mut self, epoch: u64) -> LogResult<()> {
        self.append_record(&LogRecord::EpochCommit { epoch })?;
        self.sync()
    }

    /// Record and sync a new rules version.
    pub fn log_rules(&mut self, version: u64, json: &str) -> LogResult<()> {
        self.append_record(&LogRecord::Rules {
            version,
            json: json.to_string(),
        })?;
        self.sync()
    }
}

/// The durable state decoded from one shard's commit log.
#[derive(Debug, Clone)]
pub struct ShardRecovery {
    pub tables: Vec<TableSpec>,
    /// Committed segments only (epoch ≤ `durable_epoch`), in log order.
    pub segments: Vec<SegmentEntry>,
    /// Highest committed epoch; epochs are validated dense from 0.
    pub durable_epoch: u64,
    /// Latest readable rules version, if any was logged.
    pub rules: Option<(u64, String)>,
    /// Records in the valid log prefix (durable or not).
    pub records_replayed: u64,
    /// Why the log scan stopped, if it did not end on a record boundary
    /// (torn tail after a crash). The durable prefix is unaffected.
    pub tail: Option<LogError>,
}

/// Replay one shard's commit log into its durable state. A torn or
/// checksum-failing tail ends the scan (crash semantics); a record that
/// passes its checksum but does not decode is corruption and fails hard.
pub fn recover_shard(dir: &LogDir) -> LogResult<ShardRecovery> {
    let (payloads, tail) = read_log(dir, COMMIT_LOG)?;
    let mut tables: Vec<TableSpec> = Vec::new();
    let mut committed: Vec<SegmentEntry> = Vec::new();
    let mut pending: Vec<SegmentEntry> = Vec::new();
    let mut durable_epoch: Option<u64> = None;
    let mut rules: Option<(u64, String)> = None;
    for payload in &payloads {
        match decode_record(payload)? {
            LogRecord::TableCreated(spec) => {
                if tables.iter().any(|t| t.name == spec.name) {
                    return Err(LogError::malformed(format!(
                        "table '{}' created twice",
                        spec.name
                    )));
                }
                tables.push(spec);
            }
            LogRecord::SegmentAdded(entry) => {
                if !tables.iter().any(|t| t.name == entry.table) {
                    return Err(LogError::malformed(format!(
                        "segment for unknown table '{}'",
                        entry.table
                    )));
                }
                pending.push(entry);
            }
            LogRecord::EpochCommit { epoch } => {
                let expected = durable_epoch.map_or(0, |e| e + 1);
                if epoch != expected {
                    return Err(LogError::malformed(format!(
                        "epoch commit {epoch}, expected {expected}: history not dense"
                    )));
                }
                if let Some(bad) = pending.iter().find(|s| s.epoch != epoch) {
                    return Err(LogError::malformed(format!(
                        "segment tagged epoch {} committed under epoch {epoch}",
                        bad.epoch
                    )));
                }
                committed.append(&mut pending);
                durable_epoch = Some(epoch);
            }
            LogRecord::Rules { version, json } => rules = Some((version, json)),
            rec @ (LogRecord::Topology { .. } | LogRecord::GlobalCommit { .. }) => {
                return Err(LogError::malformed(format!(
                    "manifest record {rec:?} in a shard log"
                )));
            }
        }
    }
    let durable_epoch = durable_epoch.ok_or_else(|| {
        LogError::malformed("no committed epoch in log: bootstrap never became durable")
    })?;
    Ok(ShardRecovery {
        tables,
        segments: committed,
        durable_epoch,
        rules,
        records_replayed: payloads.len() as u64,
        tail,
    })
}

/// Rewrite a shard's commit log to exactly its durable prefix: table
/// definitions, the latest rules, and each epoch's segments + commit.
/// Run after recovery and before reopening the log for appends, so a
/// torn tail or uncommitted suffix can never corrupt later records.
pub fn compact_shard_log(dir: &LogDir, rec: &ShardRecovery) -> LogResult<()> {
    let mut buf = Vec::new();
    let mut frame = |record: &LogRecord| {
        buf.extend_from_slice(&dc_log::frame_record(&encode_record(record)));
    };
    for t in &rec.tables {
        frame(&LogRecord::TableCreated(t.clone()));
    }
    if let Some((version, json)) = &rec.rules {
        frame(&LogRecord::Rules {
            version: *version,
            json: json.clone(),
        });
    }
    for epoch in 0..=rec.durable_epoch {
        for s in rec.segments.iter().filter(|s| s.epoch == epoch) {
            frame(&LogRecord::SegmentAdded(s.clone()));
        }
        frame(&LogRecord::EpochCommit { epoch });
    }
    dir.write_atomic(COMMIT_LOG, &buf)
}

/// A shard's segment files as sealed segments: each file is decoded at
/// most once and its [`SealedSegment`] cached, with pruning counters.
/// Loads validate the file checksum *and* that the file's embedded
/// metadata matches the log's — the log and the file must agree before
/// any row is trusted.
///
/// Strings decode through one pool for the store's life (equal strings
/// share one allocation across files, as in the live table). A live
/// service [`register`](SegmentStore::register)s the segments it logs, so
/// its `AS OF` queries decode no file at all.
#[derive(Debug)]
pub struct SegmentStore {
    dir: LogDir,
    cache: Mutex<HashMap<String, Arc<SealedSegment>>>,
    strings: Mutex<StrPool>,
    loaded: AtomicU64,
    pruned: AtomicU64,
}

impl SegmentStore {
    pub fn new(dir: LogDir) -> Self {
        SegmentStore {
            dir,
            cache: Mutex::new(HashMap::new()),
            strings: Mutex::new(StrPool::default()),
            loaded: AtomicU64::new(0),
            pruned: AtomicU64::new(0),
        }
    }

    /// One committed segment, decoding its file at most once.
    pub fn load(&self, entry: &SegmentEntry) -> LogResult<Arc<SealedSegment>> {
        if let Some(segment) = self.cache.lock().get(&entry.file) {
            return Ok(Arc::clone(segment));
        }
        let bytes = self.dir.read(&entry.file)?;
        let decoded = decode_segment_file(&bytes, &mut self.strings.lock());
        let segment = decoded.map_err(|e| LogError::Corrupt {
            file: entry.file.clone(),
            detail: e.message().to_string(),
        })?;
        if segment.meta() != &entry.meta {
            return Err(LogError::Corrupt {
                file: entry.file.clone(),
                detail: "file metadata disagrees with commit log".to_string(),
            });
        }
        let segment = Arc::new(segment);
        self.loaded.fetch_add(1, Ordering::Relaxed);
        self.cache
            .lock()
            .insert(entry.file.clone(), Arc::clone(&segment));
        Ok(segment)
    }

    /// Serve the files of `table`'s segments from position `from` on —
    /// just logged by [`ShardLog::log_table_append`] — from the segments
    /// themselves instead of decoding them.
    pub fn register(&self, table: &Table, from: usize) {
        let mut cache = self.cache.lock();
        for seg in &table.segments()[from..] {
            cache.insert(segment_file_name(table.name(), seg.id), Arc::clone(seg));
        }
    }

    /// Segment files decoded from disk so far (cache misses).
    pub fn segments_loaded(&self) -> u64 {
        self.loaded.load(Ordering::Relaxed)
    }

    /// Segments skipped without opening their file because the zone
    /// maps recorded in the log refuted a predicate.
    pub fn segments_pruned(&self) -> u64 {
        self.pruned.load(Ordering::Relaxed)
    }

    /// Open only the entries whose logged zone maps admit `predicates`
    /// — zone-refuted files are never read, which is the point of
    /// embedding zone maps in the log.
    pub fn open_pruned(
        &self,
        entries: &[SegmentEntry],
        predicates: &[ZonePredicate],
    ) -> LogResult<Vec<Arc<SealedSegment>>> {
        let mut out = Vec::new();
        for entry in entries {
            if !entry.meta.may_match_all(predicates) {
                self.pruned.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            out.push(self.load(entry)?);
        }
        Ok(out)
    }
}

/// Materialize the catalog as of shard epoch `epoch`: each table starts
/// empty from its definition, pushes its committed segments with
/// `epoch ≤ E` in log order straight from `store` ([`Table::push`] checks
/// each against the definition: contiguous rows, one zone map per column,
/// the table's schema), then builds its logged indexes. The tables share
/// the store's segments, so materializing another epoch copies no row and
/// decodes no file twice.
pub fn materialize_catalog(
    rec: &ShardRecovery,
    epoch: u64,
    store: &SegmentStore,
) -> LogResult<Catalog> {
    if epoch > rec.durable_epoch {
        return Err(LogError::malformed(format!(
            "epoch {epoch} beyond durable epoch {}",
            rec.durable_epoch
        )));
    }
    let catalog = Catalog::new();
    for spec in &rec.tables {
        let context = format!("table '{}'", spec.name);
        let schema = schema_ref(Schema::new(spec.fields.clone()));
        let mut table = Table::empty(
            &spec.name,
            schema,
            spec.segment_rows,
            spec.seq_order.clone(),
        )
        .map_err(|e| engine_err(&context, &e))?;
        for e in rec
            .segments
            .iter()
            .filter(|s| s.table == spec.name && s.epoch <= epoch)
        {
            table
                .push(store.load(e)?)
                .map_err(|err| LogError::Corrupt {
                    file: e.file.clone(),
                    detail: err.message().to_string(),
                })?;
        }
        for column in &spec.indexes {
            table
                .create_index(column)
                .map_err(|e| engine_err(&context, &e))?;
        }
        catalog.register(table);
    }
    Ok(catalog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_relational::index::ScanBound;

    fn reads_table(rows: usize) -> Table {
        let schema = schema_ref(Schema::new(vec![
            Field::new("epc", DataType::Str),
            Field::new("rtime", DataType::Int),
            Field::new("biz_loc", DataType::Str),
        ]));
        let data: Vec<Vec<Value>> = (0..rows)
            .map(|i| {
                vec![
                    Value::str(format!("e{:02}", i % 4)),
                    Value::Int(i as i64 * 10),
                    Value::str("dock"),
                ]
            })
            .collect();
        let mut t = Table::with_segment_rows("caser", Batch::from_rows(schema, &data).unwrap(), 4);
        t.set_sequence_order(&["epc", "rtime"]).unwrap();
        t.create_index("epc").unwrap();
        t
    }

    fn rows_of(b: &Batch) -> Vec<Vec<Value>> {
        (0..b.num_rows()).map(|i| b.row(i)).collect()
    }

    fn tmp(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("dc-durable-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn record_roundtrip() {
        let t = reads_table(8);
        let records = vec![
            LogRecord::TableCreated(TableSpec::of(&t)),
            LogRecord::SegmentAdded(SegmentEntry {
                table: "caser".into(),
                epoch: 3,
                file: segment_file_name("caser", 2),
                meta: t.segments()[1].meta().clone(),
            }),
            LogRecord::EpochCommit { epoch: 3 },
            LogRecord::Rules {
                version: 2,
                json: "{\"rules\":[]}".into(),
            },
            LogRecord::Topology {
                shards: 4,
                key: "epc".into(),
                cache_capacity: 64,
            },
            LogRecord::GlobalCommit {
                global: 9,
                vector: vec![3, 2, 4, 0],
            },
        ];
        for rec in &records {
            let bytes = encode_record(rec);
            assert_eq!(&decode_record(&bytes).unwrap(), rec);
            // Every truncation fails typed.
            for cut in 0..bytes.len() {
                assert!(decode_record(&bytes[..cut]).is_err());
            }
        }
        assert!(matches!(
            decode_record(&[0xEE]),
            Err(LogError::BadKind { kind: 0xEE })
        ));
    }

    #[test]
    fn bootstrap_recover_materialize_roundtrip() {
        let root = tmp("roundtrip");
        let dir = LogDir::create(&root).unwrap();
        let catalog = Catalog::new();
        let table = reads_table(10);
        let expected_rows = table.num_rows();
        catalog.register(table);
        let mut log = ShardLog::create(dir.clone()).unwrap();
        log.log_bootstrap(&catalog, 0, "{\"rules\":[]}").unwrap();

        // One append epoch.
        let before = catalog.get("caser").unwrap().segments().len();
        let appended = catalog
            .append("caser", catalog.get("caser").unwrap().data().slice(0, 3))
            .unwrap();
        log.log_table_append(&appended, before, 1).unwrap();
        log.commit_epoch(1).unwrap();

        let rec = recover_shard(&dir).unwrap();
        assert_eq!(rec.durable_epoch, 1);
        assert!(rec.tail.is_none());
        let store = SegmentStore::new(dir.clone());

        // Epoch 0 = the bootstrap rows; epoch 1 adds three.
        let at0 = materialize_catalog(&rec, 0, &store).unwrap();
        assert_eq!(at0.get("caser").unwrap().num_rows(), expected_rows);
        let at1 = materialize_catalog(&rec, 1, &store).unwrap();
        let live = catalog.get("caser").unwrap();
        let recovered = at1.get("caser").unwrap();
        assert_eq!(recovered.num_rows(), expected_rows + 3);
        assert_eq!(rows_of(recovered.data()), rows_of(live.data()));
        assert_eq!(recovered.segments(), live.segments());
        assert_eq!(recovered.sequence_order(), live.sequence_order());
        assert_eq!(recovered.indexed_columns(), live.indexed_columns());
        assert_eq!(recovered.index("epc").unwrap(), live.index("epc").unwrap());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn recovery_shares_strings_and_decodes_each_file_once() {
        let root = tmp("pool");
        let dir = LogDir::create(&root).unwrap();
        let catalog = Catalog::new();
        catalog.register(reads_table(10));
        let mut log = ShardLog::create(dir.clone()).unwrap();
        log.log_bootstrap(&catalog, 0, "{\"rules\":[]}").unwrap();
        let before = catalog.get("caser").unwrap().segments().len();
        let appended = catalog
            .append("caser", catalog.get("caser").unwrap().data().slice(0, 3))
            .unwrap();
        log.log_table_append(&appended, before, 1).unwrap();
        log.commit_epoch(1).unwrap();

        let rec = recover_shard(&dir).unwrap();
        let store = SegmentStore::new(dir.clone());
        let latest = materialize_catalog(&rec, rec.durable_epoch, &store).unwrap();
        let files = rec.segments.len() as u64;
        assert_eq!(store.segments_loaded(), files);
        // Rows 0 and 4 sit in different segment files and both read
        // `biz_loc = 'dock'`: one allocation.
        let table = latest.get("caser").unwrap();
        assert_ne!(table.segments()[0].id, table.segments()[1].id);
        let (Value::Str(a), Value::Str(b)) = (
            table.data().row(0)[2].clone(),
            table.data().row(4)[2].clone(),
        ) else {
            panic!("biz_loc is a string column");
        };
        assert!(
            Arc::ptr_eq(&a, &b),
            "equal strings from two files decoded twice"
        );
        // An earlier epoch is served from the segments the first
        // materialization left in the store: no file is decoded again.
        let at0 = materialize_catalog(&rec, 0, &store).unwrap();
        assert_eq!(at0.get("caser").unwrap().num_rows(), 10);
        assert_eq!(store.segments_loaded(), files);
        let rows = |c: &Catalog| rows_of(c.get("caser").unwrap().data());
        assert_eq!(rows(&at0), rows(&latest)[..10].to_vec());
        // One copy of each segment: both epochs hold the store's own.
        let early = at0.get("caser").unwrap();
        assert_eq!(early.segments().len(), 3);
        for (i, entry) in rec.segments.iter().enumerate() {
            let stored = store.load(entry).unwrap();
            assert!(Arc::ptr_eq(&table.segments()[i], &stored), "segment {i}");
            if let Some(seg) = early.segments().get(i) {
                assert!(Arc::ptr_eq(seg, &stored), "epoch-0 segment {i}");
            }
        }
        assert_eq!(store.segments_loaded(), files);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn zone_pruning_skips_files_without_opening() {
        let root = tmp("prune");
        let dir = LogDir::create(&root).unwrap();
        let catalog = Catalog::new();
        catalog.register(reads_table(12));
        let mut log = ShardLog::create(dir.clone()).unwrap();
        log.log_bootstrap(&catalog, 0, "{\"rules\":[]}").unwrap();
        let rec = recover_shard(&dir).unwrap();
        let store = SegmentStore::new(dir.clone());
        // rtime ≥ 100 refutes the first two 4-row segments (rtime max 70).
        let pred = ZonePredicate::range(
            1,
            ScanBound::Inclusive(Value::Int(100)),
            ScanBound::Unbounded,
        );
        let opened = store.open_pruned(&rec.segments, &[pred]).unwrap();
        assert_eq!(opened.len(), 1);
        assert_eq!(opened[0].meta(), &rec.segments[2].meta);
        assert_eq!(store.segments_pruned(), 2);
        assert_eq!(store.segments_loaded(), 1);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn compaction_truncates_uncommitted_suffix() {
        let root = tmp("compact");
        let dir = LogDir::create(&root).unwrap();
        let catalog = Catalog::new();
        catalog.register(reads_table(8));
        let mut log = ShardLog::create(dir.clone()).unwrap();
        log.log_bootstrap(&catalog, 0, "{}").unwrap();
        // An uncommitted (never EpochCommit'd) segment record, then torn
        // garbage at the tail.
        let appended = catalog
            .append("caser", catalog.get("caser").unwrap().data().slice(0, 2))
            .unwrap();
        log.log_table_append(&appended, 2, 1).unwrap();
        drop(log);
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(root.join(COMMIT_LOG))
            .unwrap();
        f.write_all(&[0xAB, 0xCD, 0xEF]).unwrap();
        drop(f);

        let rec = recover_shard(&dir).unwrap();
        assert_eq!(rec.durable_epoch, 0);
        assert_eq!(rec.segments.len(), 2);
        assert!(rec.tail.is_some());
        compact_shard_log(&dir, &rec).unwrap();
        let rec2 = recover_shard(&dir).unwrap();
        assert_eq!(rec2.durable_epoch, 0);
        assert_eq!(rec2.segments.len(), 2);
        assert!(rec2.tail.is_none());
        std::fs::remove_dir_all(&root).unwrap();
    }
}
