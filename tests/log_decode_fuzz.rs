//! Corruption fuzzing for the durable log and segment decoders.
//!
//! The corpus is not synthetic: a real durable service (bootstrap, a rule
//! definition, several appends) writes a manifest, a shard commit log, and
//! columnar segment files, and the sweeps then mutate those exact bytes.
//! The contract under mutation is the same everywhere:
//!
//! * **never panic** — every failure is a typed [`LogError`] (or engine
//!   error), including on pure random bytes;
//! * **never silently wrong data** — a decoder either returns records that
//!   are byte-identical to a prefix of what was written, or refuses; a
//!   single flipped bit anywhere in a frame or a segment file is always
//!   refused by its checksum;
//! * **truncation is clean** — cutting the log at any byte recovers
//!   exactly the full frames before the cut, with a typed description of
//!   the torn tail.
//!
//! A handful of pinned regressions (oversized length prefix, unknown kind
//! byte, torn header, zero-length payload) keep the nastiest framing edge
//! cases from quietly regressing, and an end-to-end sweep drives bit
//! flips through full [`QueryService::recover`]: corruption must roll the
//! service back to a shorter durable prefix or refuse loudly — never
//! resurrect altered rows.

use deferred_cleansing::core::durable::{
    decode_record, encode_record, recover_shard, segment_file_name, LogRecord, SegmentEntry,
    TableSpec, COMMIT_LOG,
};
use deferred_cleansing::log::{
    decode_records, frame_record, read_log, LogDir, LogError, RECORD_HEADER_BYTES,
};
use deferred_cleansing::relational::prelude::*;
use deferred_cleansing::service::{
    DurableOptions, QueryRequest, QueryService, ServiceConfig, ShardConfig, MANIFEST_LOG,
};
use deferred_cleansing::DeferredCleansingSystem;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const DUP: &str = "DEFINE duplicate ON caseR CLUSTER BY epc SEQUENCE BY rtime AS (A, B) \
    WHERE A.biz_loc = B.biz_loc and B.rtime - A.rtime < 5 mins ACTION DELETE B";

const SCAN: &str = "select epc, rtime, biz_loc from caser";

const APPENDS: usize = 3;

fn reads_schema() -> SchemaRef {
    schema_ref(Schema::new(vec![
        Field::new("epc", DataType::Str),
        Field::new("rtime", DataType::Int),
        Field::new("biz_loc", DataType::Str),
    ]))
}

fn seed_rows() -> Vec<Vec<Value>> {
    vec![
        vec![Value::str("e1"), Value::Int(0), Value::str("shelf")],
        vec![Value::str("e1"), Value::Int(60), Value::str("shelf")],
        vec![Value::str("e2"), Value::Int(10), Value::str("dock")],
        vec![Value::str("e3"), Value::Int(500), Value::str("gate")],
    ]
}

fn append_rows(i: usize) -> Vec<Vec<Value>> {
    vec![
        vec![
            Value::str(format!("e{}", i % 4)),
            Value::Int(300 * i as i64 + 7),
            Value::str("locA"),
        ],
        vec![
            Value::str(format!("e{}", (i + 1) % 4)),
            Value::Int(300 * i as i64 + 23),
            Value::str("locB"),
        ],
    ]
}

fn oracle_rows(e: usize) -> Vec<Vec<Value>> {
    let mut rows = seed_rows();
    for i in 0..e {
        rows.extend(append_rows(i));
    }
    rows
}

fn batch(rows: &[Vec<Value>]) -> Batch {
    Batch::from_rows(reads_schema(), rows).unwrap()
}

fn rows_of(b: &Batch) -> Vec<Vec<Value>> {
    (0..b.num_rows()).map(|i| b.row(i)).collect()
}

fn scratch(tag: &str) -> PathBuf {
    let base = std::env::var("DC_RECOVERY_WORKDIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| std::env::temp_dir());
    base.join(format!("dc-fuzz-{tag}-{}", std::process::id()))
}

/// Write the reference durable directory the sweeps draw their corpus
/// from: bootstrap + one rules version + `APPENDS` appends, no faults.
fn build_corpus_dir(tag: &str) -> PathBuf {
    let dir = scratch(tag);
    let _ = std::fs::remove_dir_all(&dir);
    let catalog = Arc::new(Catalog::new());
    catalog.register(Table::new("caser", batch(&seed_rows())));
    let sys = DeferredCleansingSystem::with_catalog(catalog);
    let svc = QueryService::start_sharded_durable(
        sys,
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
        ShardConfig::new(1, ""),
        DurableOptions::new(&dir),
    )
    .unwrap();
    svc.define_rule("app", DUP).unwrap();
    for i in 0..APPENDS {
        svc.append("caser", batch(&append_rows(i))).unwrap();
    }
    drop(svc);
    dir
}

fn read_file(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).unwrap();
        }
    }
}

/// Byte offsets where each full frame ends — the only clean cut points.
fn frame_boundaries(payloads: &[&[u8]]) -> Vec<usize> {
    let mut at = 0;
    let mut bounds = vec![0];
    for p in payloads {
        at += RECORD_HEADER_BYTES + p.len();
        bounds.push(at);
    }
    bounds
}

/// Flipping any single bit of a commit log must truncate the decoded
/// stream to a byte-identical prefix with a typed tail error — corrupt
/// bytes can shorten history, never alter it.
#[test]
fn commit_log_bit_flips_yield_prefix_and_typed_error() {
    let dir = build_corpus_dir("flip");
    for file in [dir.join(MANIFEST_LOG), dir.join("shard-0").join(COMMIT_LOG)] {
        let orig = read_file(&file);
        let (originals, tail) = decode_records(&orig);
        assert!(tail.is_none(), "corpus {} has a torn tail", file.display());
        assert!(originals.len() >= 3, "corpus {} too small", file.display());
        for i in 0..orig.len() {
            for bit in 0..8 {
                let mut bytes = orig.clone();
                bytes[i] ^= 1 << bit;
                let (recs, err) = decode_records(&bytes);
                assert!(
                    recs.len() < originals.len(),
                    "flip {i}.{bit} of {}: all {} records survived",
                    file.display(),
                    originals.len()
                );
                assert_eq!(
                    recs,
                    &originals[..recs.len()],
                    "flip {i}.{bit} of {}: decoded records are not a prefix",
                    file.display()
                );
                assert!(
                    err.is_some(),
                    "flip {i}.{bit} of {}: stream shortened without a tail error",
                    file.display()
                );
                // Surviving prefix records still decode as real records.
                for payload in recs {
                    decode_record(payload).unwrap();
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cutting the log at every byte offset recovers exactly the full frames
/// before the cut; a mid-frame cut reports a typed torn tail.
#[test]
fn commit_log_truncations_recover_the_full_frame_prefix() {
    let dir = build_corpus_dir("trunc");
    let orig = read_file(&dir.join("shard-0").join(COMMIT_LOG));
    let (originals, _) = decode_records(&orig);
    let bounds = frame_boundaries(&originals);
    assert_eq!(*bounds.last().unwrap(), orig.len());
    for cut in 0..=orig.len() {
        let (recs, err) = decode_records(&orig[..cut]);
        let full = bounds.iter().filter(|&&b| b <= cut).count() - 1;
        assert_eq!(recs.len(), full, "cut at {cut}");
        assert_eq!(recs, &originals[..full], "cut at {cut}: not a prefix");
        if bounds.contains(&cut) {
            assert!(err.is_none(), "cut at {cut} is a clean frame boundary");
        } else {
            assert!(
                matches!(err, Some(LogError::TruncatedRecord { .. })),
                "cut at {cut}: expected a torn-record error, got {err:?}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A columnar segment file refuses every single-bit flip and every strict
/// truncation: the whole-file checksum (or the magic / length floor)
/// catches them all.
#[test]
fn segment_file_rejects_every_bit_flip_and_truncation() {
    let dir = build_corpus_dir("seg");
    let seg_dir = dir.join("shard-0").join("seg");
    let seg_path = std::fs::read_dir(&seg_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .min()
        .expect("corpus wrote at least one segment file");
    let orig = read_file(&seg_path);
    let segment = decode_segment_file(&orig, &mut StrPool::default()).unwrap();
    assert_eq!(segment.data().num_rows(), segment.rows);
    for i in 0..orig.len() {
        for bit in 0..8 {
            let mut bytes = orig.clone();
            bytes[i] ^= 1 << bit;
            assert!(
                decode_segment_file(&bytes, &mut StrPool::default()).is_err(),
                "flip {i}.{bit}: corrupt segment file decoded successfully"
            );
        }
    }
    for cut in 0..orig.len() {
        assert!(
            decode_segment_file(&orig[..cut], &mut StrPool::default()).is_err(),
            "truncation to {cut} bytes decoded successfully"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Seeded random bytes through every decoder entry point: any outcome is
/// fine except a panic.
#[test]
fn random_bytes_never_panic_any_decoder() {
    let mut rng = StdRng::seed_from_u64(0xDC10_F022);
    for case in 0..256 {
        let len = rng.gen_range(0usize..600);
        let mut bytes: Vec<u8> = (0..len).map(|_| rng.gen() as u8).collect();
        // Half the cases get a plausible record kind up front so the
        // payload decoders get past the first byte.
        if case % 2 == 0 && !bytes.is_empty() {
            bytes[0] = (case % 8) as u8;
        }
        let (recs, _) = decode_records(&bytes);
        for payload in recs {
            let _ = decode_record(payload);
        }
        let _ = decode_record(&bytes);
        let _ = decode_segment_file(&bytes, &mut StrPool::default());
    }
}

/// A directory whose commit log is random garbage must recover to a typed
/// error (or an explicit empty state), never a panic.
#[test]
fn recover_shard_survives_garbage_log() {
    let dir = scratch("garbage");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut rng = StdRng::seed_from_u64(0xDC10_6A2B);
    for _ in 0..32 {
        let len = rng.gen_range(0usize..256);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen() as u8).collect();
        std::fs::write(dir.join(COMMIT_LOG), &bytes).unwrap();
        let log_dir = LogDir::create(&dir).unwrap();
        let _ = read_log(&log_dir, COMMIT_LOG);
        let _ = recover_shard(&log_dir);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pinned framing regressions: the specific shapes that once tempted the
/// decoder into allocating, looping, or trusting garbage.
#[test]
fn pinned_framing_regressions() {
    // Empty log: cleanly zero records.
    let (recs, err) = decode_records(&[]);
    assert!(recs.is_empty() && err.is_none());

    // Torn header: fewer bytes than a length prefix.
    let (recs, err) = decode_records(&[1, 2, 3]);
    assert!(recs.is_empty());
    assert!(matches!(err, Some(LogError::TruncatedRecord { .. })));

    // An absurd length prefix must be refused as framing garbage before
    // any allocation of that size is attempted.
    let mut oversized = u32::MAX.to_le_bytes().to_vec();
    oversized.extend_from_slice(&[0u8; 16]);
    let (recs, err) = decode_records(&oversized);
    assert!(recs.is_empty());
    assert!(matches!(err, Some(LogError::OversizedRecord { .. })));

    // A checksummed frame whose payload starts with an unknown kind:
    // framing accepts it, record decoding refuses it by kind.
    let framed = frame_record(&[0xEE, 1, 2, 3]);
    let (recs, err) = decode_records(&framed);
    assert_eq!(recs.len(), 1);
    assert!(err.is_none());
    assert!(matches!(
        decode_record(recs[0]),
        Err(LogError::BadKind { kind: 0xEE })
    ));

    // A zero-length payload frames fine but is no record.
    let empty_payload = frame_record(&[]);
    let (recs, err) = decode_records(&empty_payload);
    assert_eq!((recs.len(), err.is_none()), (1, true));
    assert!(decode_record(recs[0]).is_err());

    // Flipping a payload byte inside a valid frame is a checksum error.
    let mut framed = frame_record(&[1, 2, 3, 4]);
    let last = framed.len() - 1;
    framed[last] ^= 0x40;
    let (recs, err) = decode_records(&framed);
    assert!(recs.is_empty());
    assert!(matches!(err, Some(LogError::BadChecksum { offset: 0 })));
}

/// End to end: bit flips in the on-disk manifest or shard log must make
/// [`QueryService::recover`] either roll back to a genuine shorter prefix
/// of the history or refuse with a typed error — corrupted bytes never
/// surface as altered rows.
#[test]
fn corrupted_durable_dir_recovers_prefix_or_refuses() {
    let dir = build_corpus_dir("e2e");
    let mut rng = StdRng::seed_from_u64(0xDC10_E2E0);
    let oracles: Vec<Vec<Vec<Value>>> = (0..=APPENDS).map(oracle_rows).collect();
    for (victim, cases) in [
        (PathBuf::from(MANIFEST_LOG), 16usize),
        (Path::new("shard-0").join(COMMIT_LOG), 16),
    ] {
        let orig = read_file(&dir.join(&victim));
        for case in 0..cases {
            let copy = scratch(&format!(
                "e2e-case-{}-{case}",
                victim.display().to_string().replace(['/', '\\'], "_")
            ));
            let _ = std::fs::remove_dir_all(&copy);
            copy_dir(&dir, &copy);
            let mut bytes = orig.clone();
            let at = rng.gen_range(0usize..bytes.len());
            bytes[at] ^= 1 << rng.gen_range(0u32..8);
            std::fs::write(copy.join(&victim), &bytes).unwrap();
            match QueryService::recover(
                DurableOptions::new(&copy),
                ServiceConfig {
                    workers: 1,
                    ..ServiceConfig::default()
                },
            ) {
                Ok(svc) => {
                    let e = svc.durable_stats().unwrap().durable_epoch as usize;
                    assert!(
                        e <= APPENDS,
                        "corrupt {} byte {at}: epoch {e}",
                        victim.display()
                    );
                    let resp = svc.execute(QueryRequest::new("norules", SCAN)).unwrap();
                    assert_eq!(
                        rows_of(&resp.batch),
                        oracles[e],
                        "corrupt {} byte {at}: recovered rows are not the epoch-{e} prefix",
                        victim.display()
                    );
                }
                Err(err) => {
                    assert!(
                        err.to_string().contains("durable log"),
                        "corrupt {} byte {at}: untyped refusal: {err}",
                        victim.display()
                    );
                }
            }
            let _ = std::fs::remove_dir_all(&copy);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The fixed 10-row table the format golden encodes: one NULL in each of
/// the Bool/Int/Double/Str columns, a qualified field, a verified
/// `(epc, rtime)` order and an index, sealed as one segment.
fn golden_table() -> Table {
    let schema = schema_ref(Schema::new(vec![
        Field::new("epc", DataType::Str),
        Field::new("rtime", DataType::Int),
        Field::new("weight", DataType::Double),
        Field::qualified("r", "ok", DataType::Bool),
    ]));
    let rows: Vec<Vec<Value>> = (0..10i64)
        .map(|i| {
            vec![
                if i == 0 {
                    Value::Null
                } else {
                    Value::str(format!("urn:epc:{:03}", i / 3))
                },
                if i == 3 {
                    Value::Null
                } else {
                    Value::Int(i * 60 - 100)
                },
                if i == 5 {
                    Value::Null
                } else {
                    Value::Double(i as f64 * 0.25 - 1.0)
                },
                if i == 8 {
                    Value::Null
                } else {
                    Value::Bool(i % 2 == 0)
                },
            ]
        })
        .collect();
    let data = Batch::from_rows(schema, &rows).unwrap();
    let mut t = Table::with_segment_rows("reads", data, 16);
    t.set_sequence_order(&["epc", "rtime"]).unwrap();
    t.create_index("epc").unwrap();
    t
}

/// One segment file and one record of each of the six log kinds, as hex.
fn durable_format_hex() -> String {
    let t = golden_table();
    assert_eq!(t.segments().len(), 1);
    let seg = &t.segments()[0];
    let mut blocks = vec![(
        "segment file reads.000000",
        encode_segment_file(t.data(), seg).unwrap(),
    )];
    let records = [
        (
            "TableCreated",
            LogRecord::TableCreated(TableSpec {
                name: "reads".into(),
                fields: t.schema().fields().to_vec(),
                segment_rows: Some(16),
                seq_order: vec![0, 1],
                indexes: vec!["epc".into()],
            }),
        ),
        (
            "SegmentAdded",
            LogRecord::SegmentAdded(SegmentEntry {
                table: "reads".into(),
                epoch: 3,
                file: segment_file_name("reads", seg.id),
                meta: seg.meta().clone(),
            }),
        ),
        ("EpochCommit", LogRecord::EpochCommit { epoch: 3 }),
        (
            "Rules",
            LogRecord::Rules {
                version: 2,
                json: "{\"rules\":[]}".into(),
            },
        ),
        (
            "Topology",
            LogRecord::Topology {
                shards: 2,
                key: "epc".into(),
                cache_capacity: 64,
            },
        ),
        (
            "GlobalCommit",
            LogRecord::GlobalCommit {
                global: 9,
                vector: vec![3, 4],
            },
        ),
    ];
    blocks.extend(records.iter().map(|(name, r)| (*name, encode_record(r))));
    let mut out = String::new();
    for (name, bytes) in blocks {
        out.push_str(&format!("# {name} ({} bytes)\n", bytes.len()));
        for line in bytes.chunks(32) {
            out.extend(line.iter().map(|b| format!("{b:02x}")));
            out.push('\n');
        }
    }
    out
}

/// Pins the on-disk bytes: a segment file and one record of every log kind
/// must encode exactly as `tests/snapshots/durable_format.hex` records.
/// Round trips alone cannot catch a codec change that moves bytes. Run with
/// `UPDATE_SNAPSHOTS=1` to regenerate after an intentional format change.
#[test]
fn durable_format_matches_golden_bytes() {
    let actual = durable_format_hex();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots/durable_format.hex");
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing {} — run `UPDATE_SNAPSHOTS=1 cargo test --test log_decode_fuzz`",
            path.display()
        )
    });
    assert_eq!(expected, actual, "the durable on-disk format changed");
}
