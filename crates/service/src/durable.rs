//! Durable backing for a [`crate::QueryService`]: a root manifest plus one
//! commit log per shard, written **before** any snapshot is published.
//!
//! Directory layout under [`DurableOptions::dir`]:
//!
//! ```text
//! root/
//!   MANIFEST.log          topology record, then one GlobalCommit per epoch
//!   shard-0/
//!     commit.log          TableCreated / SegmentAdded / EpochCommit / Rules
//!     seg/<table>.<id>.seg  immutable columnar segment files
//!   shard-1/ ...
//! ```
//!
//! Write protocol per append (WAL-before-publish):
//!
//! 1. every touched shard persists its new segment files (atomic tmp +
//!    fsync + rename), logs `SegmentAdded` records, and commits its next
//!    shard epoch with one fsync;
//! 2. the manifest appends `GlobalCommit { global, vector }` binding the
//!    new global epoch to the per-shard epoch vector, and fsyncs;
//! 3. only then are the in-memory snapshots published.
//!
//! A crash anywhere in that sequence loses at most the in-flight append —
//! which never returned success — and recovery
//! ([`crate::QueryService::recover`]) rolls the service back to the last
//! *globally* committed epoch: the newest manifest `GlobalCommit` whose
//! vector every shard log covers. Shard epochs beyond it (a crash between
//! steps 1 and 2) are truncated by compaction, so the histories stay dense
//! and agree with the manifest.
//!
//! The retained history is what makes **time travel** free: every global
//! epoch maps to a per-shard epoch vector, and each shard can materialize
//! its catalog *as of* any committed shard epoch from the log's segment
//! metadata — opening only the segment files that epoch actually contains.

use crate::snapshot::EpochVector;
use dc_core::durable::{
    compact_shard_log, decode_record, encode_record, materialize_catalog, recover_shard, LogRecord,
    SegmentStore, ShardLog, ShardRecovery,
};
use dc_log::{frame_record, read_log, FailPoint, LogDir, LogError, LogWriter};
use dc_relational::error::Error;
use dc_relational::table::{CatalogRef, Table};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Relative name of the service's root manifest log.
pub const MANIFEST_LOG: &str = "MANIFEST.log";

/// Where (and how) a durable service keeps its logs.
#[derive(Debug, Clone)]
pub struct DurableOptions {
    /// Root directory of the manifest and the per-shard logs.
    pub dir: PathBuf,
    pub(crate) failpoint: Option<Arc<FailPoint>>,
}

impl DurableOptions {
    /// Durable state rooted at `dir` (created if absent).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurableOptions {
            dir: dir.into(),
            failpoint: None,
        }
    }

    /// Fault injection for crash tests: every guarded write consumes ticks
    /// from `fp`, and the first exhausted tick kills the write exactly the
    /// way a power cut would.
    #[doc(hidden)]
    pub fn with_failpoint(mut self, fp: Arc<FailPoint>) -> Self {
        self.failpoint = Some(fp);
        self
    }

    fn open_root(&self) -> Result<LogDir, LogError> {
        match &self.failpoint {
            Some(fp) => LogDir::with_failpoint(&self.dir, Arc::clone(fp)),
            None => LogDir::create(&self.dir),
        }
    }
}

/// Durability counters of a recovered (or freshly bootstrapped) service.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurableStats {
    /// The current global durable epoch (one per successful append).
    pub durable_epoch: u64,
    /// Global epochs restored by the last recovery (1 = bootstrap only).
    pub epochs_recovered: u64,
    /// Log records replayed by the last recovery, across the manifest and
    /// every shard log.
    pub log_records_replayed: u64,
    /// Segment files actually decoded from disk so far — materialization
    /// is lazy, so this stays below the number of recorded segments when
    /// queries only touch recent epochs.
    pub segments_loaded_lazy: u64,
    /// Segments skipped without opening their file because zone maps in
    /// the log refuted a predicate.
    pub segments_pruned_unopened: u64,
}

/// One staged shard publication, handed to [`DurableState::commit_append`]
/// before the snapshot swap.
pub(crate) struct StagedAppend<'a> {
    pub shard: usize,
    /// The table *after* the append, inside the not-yet-published overlay.
    pub table: &'a Table,
    /// Segment count before the append: everything past it is new.
    pub prev_segments: usize,
    /// The shard epoch this publication will become.
    pub epoch: u64,
}

/// Per-shard durable handles: the log writer, the segment store (every
/// segment this process logged or decoded), and the committed history this
/// shard's log encodes.
struct DurableShard {
    log: Mutex<ShardLog>,
    store: SegmentStore,
    recovery: Mutex<ShardRecovery>,
    /// Materialized historical catalogs, keyed by shard epoch; they share
    /// the store's segments.
    catalogs: Mutex<HashMap<u64, CatalogRef>>,
}

/// The global-epoch history: commit `g` ran at per-shard vector
/// `commits[g]`.
struct History {
    commits: Vec<EpochVector>,
}

/// All durable state of one service: root manifest, shard logs, and the
/// epoch history that backs `AS OF` queries.
pub(crate) struct DurableState {
    manifest: Mutex<LogWriter>,
    shards: Vec<DurableShard>,
    history: Mutex<History>,
    replayed: u64,
    epochs_recovered: u64,
}

/// Map a log failure into the engine error surfaced to service callers.
pub(crate) fn log_err(e: LogError) -> Error {
    Error::Execution(format!("durable log: {e}"))
}

/// Split a top-level `AS OF epoch E` clause off `sql`, returning the
/// stripped statement and the epoch. `None` when the statement has no such
/// clause (or does not parse — the engine will report that itself). Text
/// without the word `epoch` cannot hold the clause and is not parsed.
pub(crate) fn split_as_of(sql: &str) -> Option<(String, u64)> {
    let has_epoch = sql
        .as_bytes()
        .windows(5)
        .any(|w| w.eq_ignore_ascii_case(b"epoch"));
    if !has_epoch {
        return None;
    }
    let mut query = dc_relational::sql::parse_query(sql).ok()?;
    let epoch = query.as_of.take()?;
    Some((query.to_string(), epoch))
}

impl DurableState {
    /// Bootstrap a fresh durable root: topology first, then every shard's
    /// initial catalog as its epoch 0, then `GlobalCommit { 0 }`. Refuses
    /// to run over an existing manifest — that state belongs to
    /// [`recover_state`].
    pub(crate) fn bootstrap(
        opts: &DurableOptions,
        shard_catalogs: &[&dc_relational::table::Catalog],
        key: &str,
        cache_capacity: u64,
        rules_json: &str,
    ) -> Result<DurableState, LogError> {
        let root = opts.open_root()?;
        if root.exists(MANIFEST_LOG) {
            return Err(LogError::malformed(
                "durable directory already holds a manifest; use QueryService::recover",
            ));
        }
        let mut manifest = LogWriter::open(&root, MANIFEST_LOG)?;
        manifest.append(&encode_record(&LogRecord::Topology {
            shards: shard_catalogs.len() as u32,
            key: key.to_string(),
            cache_capacity,
        }))?;
        manifest.sync()?;
        let mut shards = Vec::with_capacity(shard_catalogs.len());
        for (i, catalog) in shard_catalogs.iter().enumerate() {
            let dir = root.subdir(&format!("shard-{i}"))?;
            let mut log = ShardLog::create(dir.clone())?;
            log.log_bootstrap(catalog, 0, rules_json)?;
            // Re-reading the log we just wrote guarantees the in-memory
            // history is exactly what a restart would see.
            let recovery = recover_shard(&dir)?;
            let store = SegmentStore::new(dir);
            for table in catalog.table_names().iter().flat_map(|t| catalog.get(t)) {
                store.register(&table, 0);
            }
            shards.push(DurableShard {
                log: Mutex::new(log),
                store,
                recovery: Mutex::new(recovery),
                catalogs: Mutex::new(HashMap::new()),
            });
        }
        let zeros = EpochVector(vec![0; shard_catalogs.len()]);
        manifest.append(&encode_record(&LogRecord::GlobalCommit {
            global: 0,
            vector: zeros.0.clone(),
        }))?;
        manifest.sync()?;
        Ok(DurableState {
            manifest: Mutex::new(manifest),
            shards,
            history: Mutex::new(History {
                commits: vec![zeros],
            }),
            replayed: 0,
            epochs_recovered: 1,
        })
    }

    /// Make one append durable before anything is published: per touched
    /// shard, segment files + `SegmentAdded` records + the shard epoch
    /// commit; then the manifest's `GlobalCommit` binding the new global
    /// epoch to `vector_after`. Returns the new global epoch.
    pub(crate) fn commit_append(
        &self,
        staged: &[StagedAppend<'_>],
        vector_after: &EpochVector,
    ) -> Result<u64, LogError> {
        let mut logged = Vec::with_capacity(staged.len());
        for s in staged {
            let mut log = self.shards[s.shard]
                .log
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            logged.push(log.log_table_append(s.table, s.prev_segments, s.epoch)?);
            log.commit_epoch(s.epoch)?;
        }
        let global = {
            let h = self.history.lock().unwrap_or_else(|e| e.into_inner());
            h.commits.len() as u64
        };
        {
            let mut manifest = self.manifest.lock().unwrap_or_else(|e| e.into_inner());
            manifest.append(&encode_record(&LogRecord::GlobalCommit {
                global,
                vector: vector_after.0.clone(),
            }))?;
            manifest.sync()?;
        }
        // Everything is on disk: extend the in-memory history to match.
        let mut h = self.history.lock().unwrap_or_else(|e| e.into_inner());
        h.commits.push(vector_after.clone());
        for (s, entries) in staged.iter().zip(logged) {
            let shard = &self.shards[s.shard];
            shard.store.register(s.table, s.prev_segments);
            let mut rec = shard.recovery.lock().unwrap_or_else(|e| e.into_inner());
            rec.segments.extend(entries);
            rec.durable_epoch = s.epoch;
        }
        Ok(global)
    }

    /// Persist a new rules version to every shard log.
    pub(crate) fn log_rules(&self, version: u64, json: &str) -> Result<(), LogError> {
        for shard in &self.shards {
            shard
                .log
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .log_rules(version, json)?;
            shard
                .recovery
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .rules = Some((version, json.to_string()));
        }
        Ok(())
    }

    /// The per-shard epoch vector global epoch `global` committed at.
    pub(crate) fn resolve_vector(&self, global: u64) -> Option<EpochVector> {
        self.history
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .commits
            .get(global as usize)
            .cloned()
    }

    /// The newest committed global epoch.
    pub(crate) fn latest_global(&self) -> u64 {
        let h = self.history.lock().unwrap_or_else(|e| e.into_inner());
        h.commits.len() as u64 - 1
    }

    /// Materialize (or fetch the cached) catalog of `shard` as of shard
    /// epoch `epoch`, opening only the segment files committed by then.
    pub(crate) fn historical_catalog(
        &self,
        shard: usize,
        epoch: u64,
    ) -> Result<CatalogRef, LogError> {
        let d = &self.shards[shard];
        if let Some(cat) = d
            .catalogs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&epoch)
        {
            return Ok(Arc::clone(cat));
        }
        // Copy the committed history out of the lock so a slow
        // materialization never stalls ingest.
        let rec = d.recovery.lock().unwrap_or_else(|e| e.into_inner()).clone();
        let catalog: CatalogRef = Arc::new(materialize_catalog(&rec, epoch, &d.store)?);
        d.catalogs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(epoch, Arc::clone(&catalog));
        Ok(catalog)
    }

    /// Current durability counters.
    pub(crate) fn stats(&self) -> DurableStats {
        DurableStats {
            durable_epoch: self.latest_global(),
            epochs_recovered: self.epochs_recovered,
            log_records_replayed: self.replayed,
            segments_loaded_lazy: self.shards.iter().map(|s| s.store.segments_loaded()).sum(),
            segments_pruned_unopened: self.shards.iter().map(|s| s.store.segments_pruned()).sum(),
        }
    }
}

/// Everything [`crate::QueryService::recover`] needs to rebuild a live
/// service from a durable root.
pub(crate) struct Recovered {
    pub state: DurableState,
    pub key: String,
    pub cache_capacity: u64,
    /// Per-shard catalogs materialized at the recovered global epoch.
    pub catalogs: Vec<CatalogRef>,
    /// The per-shard epoch vector of the recovered global epoch.
    pub shard_epochs: Vec<u64>,
    /// Latest durable rules version, if any was ever logged.
    pub rules: Option<(u64, String)>,
}

/// Replay a durable root into a consistent service state.
///
/// The recovered point is the newest manifest `GlobalCommit` whose epoch
/// vector every shard log covers; anything beyond it — shard epochs a
/// crash left without a global commit, torn log tails, orphaned segment
/// files — is truncated by compaction before the logs reopen for appends.
pub(crate) fn recover_state(opts: &DurableOptions) -> Result<Recovered, LogError> {
    let root = opts.open_root()?;
    let (payloads, _tail) = read_log(&root, MANIFEST_LOG)?;
    let mut records = payloads.iter();
    let first = records.next().ok_or_else(|| {
        LogError::malformed("empty manifest: service bootstrap never became durable")
    })?;
    let (nshards, key, cache_capacity) = match decode_record(first)? {
        LogRecord::Topology {
            shards,
            key,
            cache_capacity,
        } => ((shards as usize).max(1), key, cache_capacity),
        other => {
            return Err(LogError::malformed(format!(
                "manifest must start with a topology record, found {other:?}"
            )))
        }
    };
    let mut commits: Vec<EpochVector> = Vec::new();
    for payload in records {
        match decode_record(payload)? {
            LogRecord::GlobalCommit { global, vector } => {
                if global != commits.len() as u64 {
                    return Err(LogError::malformed(format!(
                        "global commit {global}, expected {}: history not dense",
                        commits.len()
                    )));
                }
                if vector.len() != nshards {
                    return Err(LogError::malformed(format!(
                        "global commit {global} has {} shards, topology says {nshards}",
                        vector.len()
                    )));
                }
                commits.push(EpochVector(vector));
            }
            other => {
                return Err(LogError::malformed(format!(
                    "unexpected manifest record {other:?}"
                )))
            }
        }
    }
    if commits.is_empty() {
        return Err(LogError::malformed(
            "manifest has no global commit: bootstrap never became durable",
        ));
    }
    let manifest_records = payloads.len() as u64;

    let mut dirs = Vec::with_capacity(nshards);
    let mut recs = Vec::with_capacity(nshards);
    for i in 0..nshards {
        let dir = root.subdir(&format!("shard-{i}"))?;
        recs.push(recover_shard(&dir)?);
        dirs.push(dir);
    }

    // The recovered point: newest global commit covered by every shard.
    let global = commits
        .iter()
        .enumerate()
        .rev()
        .find(|(_, v)| v.0.iter().zip(&recs).all(|(&e, r)| e <= r.durable_epoch))
        .map(|(g, _)| g)
        .ok_or_else(|| LogError::malformed("no global commit is covered by every shard log"))?;
    commits.truncate(global + 1);
    let vector = commits[global].clone();

    // Truncate each shard to the recovered vector and compact everything,
    // so reopened logs never append after crash debris.
    let mut replayed = manifest_records;
    for (i, rec) in recs.iter_mut().enumerate() {
        replayed += rec.records_replayed;
        rec.segments.retain(|s| s.epoch <= vector.0[i]);
        rec.durable_epoch = vector.0[i];
        rec.tail = None;
        compact_shard_log(&dirs[i], rec)?;
    }
    let mut buf = Vec::new();
    let mut frame = |r: &LogRecord| buf.extend_from_slice(&frame_record(&encode_record(r)));
    frame(&LogRecord::Topology {
        shards: nshards as u32,
        key: key.clone(),
        cache_capacity,
    });
    for (g, v) in commits.iter().enumerate() {
        frame(&LogRecord::GlobalCommit {
            global: g as u64,
            vector: v.0.clone(),
        });
    }
    root.write_atomic(MANIFEST_LOG, &buf)?;

    let rules = recs[0].rules.clone();
    let mut catalogs = Vec::with_capacity(nshards);
    let mut shards = Vec::with_capacity(nshards);
    for (i, rec) in recs.into_iter().enumerate() {
        let store = SegmentStore::new(dirs[i].clone());
        let catalog: CatalogRef = Arc::new(materialize_catalog(&rec, rec.durable_epoch, &store)?);
        catalogs.push(catalog);
        let log = ShardLog::create(dirs[i].clone())?;
        shards.push(DurableShard {
            log: Mutex::new(log),
            store,
            recovery: Mutex::new(rec),
            catalogs: Mutex::new(HashMap::new()),
        });
    }
    let manifest = LogWriter::open(&root, MANIFEST_LOG)?;
    let epochs_recovered = commits.len() as u64;
    Ok(Recovered {
        state: DurableState {
            manifest: Mutex::new(manifest),
            shards,
            history: Mutex::new(History { commits }),
            replayed,
            epochs_recovered,
        },
        key,
        cache_capacity,
        catalogs,
        shard_epochs: vector.0,
        rules,
    })
}
