//! Property test for the segmented table: random append sequences keep
//! every structure an append folds in — statistics, index tails, sealed
//! segments — equal to its from-scratch build over the flattened rows, and
//! never disturb an older snapshot's handle.
//!
//! Each step appends 0–40 random rows (NULLs, `Int`, `Double` including
//! `-0.0` and NaN, `Str`; the last column is not indexed) through the
//! catalog, sometimes with statistics already computed (the fold path) and
//! sometimes not (the lazy path).
//! Some steps fork the snapshot: two overlays append different batches to
//! one table version. A second test refuses a durable commit through a
//! [`FailPoint`] and then appends a different batch to the snapshot the
//! refused append was staged on.

use deferred_cleansing::relational::index::OrderedIndex;
use deferred_cleansing::relational::prelude::*;
use deferred_cleansing::relational::segment::seal_segments;
use deferred_cleansing::relational::stats::TableStats;
use deferred_cleansing::service::{
    DurableOptions, FailPoint, QueryService, ServiceConfig, ShardConfig,
};
use deferred_cleansing::DeferredCleansingSystem;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const INDEXED: [&str; 3] = ["k", "d", "s"];

fn schema() -> SchemaRef {
    schema_ref(Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("d", DataType::Double),
        Field::new("s", DataType::Str),
        Field::new("x", DataType::Double),
    ]))
}

fn random_row(rng: &mut StdRng) -> Vec<Value> {
    const DOUBLES: [f64; 7] = [-0.0, 0.0, f64::NAN, 1.5, -2.25, 1e9, f64::INFINITY];
    let k = match rng.gen_range(0..8) {
        0 => Value::Null,
        _ => Value::Int(rng.gen_range(-20..20)),
    };
    let d = match rng.gen_range(0..8) {
        0 => Value::Null,
        _ => Value::Double(DOUBLES[rng.gen_range(0..DOUBLES.len())]),
    };
    let s = match rng.gen_range(0..8) {
        0 => Value::Null,
        _ => Value::str(format!("s{}", rng.gen_range(0..12))),
    };
    let x = match rng.gen_range(0..8) {
        0 => Value::Null,
        _ => Value::Double(DOUBLES[rng.gen_range(0..DOUBLES.len())]),
    };
    vec![k, d, s, x]
}

fn random_batch(rng: &mut StdRng) -> Vec<Vec<Value>> {
    let n = rng.gen_range(0..=40);
    (0..n).map(|_| random_row(rng)).collect()
}

fn batch(rows: &[Vec<Value>]) -> Batch {
    Batch::from_rows(schema(), rows).unwrap()
}

/// Rows compared structurally (NaN equals NaN, `-0.0` differs from `0.0`).
fn rows_of(b: &Batch) -> Vec<Vec<Value>> {
    (0..b.num_rows()).map(|i| b.row(i)).collect()
}

/// A table version and the rows it must hold, plus what it answered when
/// it was checked, so a later append cannot silently change it.
struct Handle {
    table: Arc<Table>,
    rows: Vec<Vec<Value>>,
    stats: TableStats,
}

/// Every property of one table version against the rows it must hold.
/// `take` and statistics are checked before `data()` caches the flatten,
/// so a multi-segment version answers them from its segments.
fn check(t: &Table, rows: &[Vec<Value>], rng: &mut StdRng) -> TableStats {
    let expected = batch(rows);
    assert_eq!(t.num_rows(), rows.len());

    // take: ascending ids (what index and zone scans pass), then any order
    // with repeats.
    let mut ascending: Vec<usize> = (0..rows.len()).filter(|_| rng.gen_bool(0.4)).collect();
    if rng.gen_bool(0.2) {
        ascending = (0..rows.len()).collect();
    }
    let scattered: Vec<usize> = match rows.len() {
        0 => Vec::new(),
        n => (0..rng.gen_range(0..20))
            .map(|_| rng.gen_range(0..n))
            .collect(),
    };
    for ids in [&ascending, &scattered] {
        assert_eq!(
            rows_of(&t.take(ids)),
            rows_of(&expected.take(ids)),
            "take {ids:?}"
        );
    }

    let stats = t.stats().clone();
    assert_eq!(stats, TableStats::compute(&expected), "folded statistics");

    for col in INDEXED {
        let ci = expected.schema().index_of_name(col).unwrap();
        assert_eq!(
            t.index(col).unwrap(),
            &OrderedIndex::build(expected.column(ci)),
            "index on {col}"
        );
    }

    // Segment metadata is a function of the flattened rows it covers:
    // resealing each segment's row range gives the same zone maps and
    // verified order, so `segment_runs` and `covering_segments` answer as
    // they would over one concatenated batch.
    let flat = t.data();
    assert_eq!(rows_of(flat), rows);
    let mut start = 0;
    for seg in t.segments() {
        assert_eq!(seg.start, start);
        let resealed = seal_segments(
            &flat.slice(seg.start, seg.rows),
            seg.start,
            seg.id,
            None,
            t.sequence_order(),
        );
        assert_eq!(resealed.len(), 1);
        assert_eq!(resealed[0].meta(), seg.meta());
        start = seg.end();
    }
    assert_eq!(start, rows.len());
    let sorted = |cols: &[usize]| {
        (!t.segments().is_empty())
            .then(|| t.segments().iter().map(|s| s.start).collect::<Vec<_>>())
            .filter(|_| t.segments().iter().all(|s| s.covers_order(cols)))
    };
    assert_eq!(t.segment_runs(&[0]), sorted(&[0]));
    assert_eq!(t.segment_runs(&[0, 1]), sorted(&[0, 1]));
    for v in [Value::Int(0), Value::Int(7), Value::Null] {
        let covering: Vec<u64> = t
            .segments()
            .iter()
            .filter(|s| {
                let col = flat.column(0).slice(s.start, s.rows);
                (0..col.len()).any(|i| !col.is_null(i))
                    && (0..col.len())
                        .filter(|&i| !col.is_null(i))
                        .map(|i| col.value(i))
                        .fold((false, false), |(lo, hi), x| {
                            (lo || x.total_cmp(&v).is_le(), hi || x.total_cmp(&v).is_ge())
                        })
                        == (true, true)
            })
            .map(|s| s.id)
            .collect();
        assert_eq!(t.covering_segments("k", &v), covering, "covering {v}");
    }
    stats
}

fn recheck_old(handles: &[Handle]) {
    for h in handles {
        assert_eq!(rows_of(h.table.data()), h.rows, "an old snapshot changed");
        assert_eq!(
            h.table.stats(),
            &h.stats,
            "an old snapshot's statistics changed"
        );
    }
}

fn new_table(rng: &mut StdRng) -> Table {
    let initial = batch(&random_batch(rng));
    let mut t = match rng.gen_range(0..3) {
        0 => Table::new("t", initial),
        n => Table::with_segment_rows("t", initial, n * 4),
    };
    if rng.gen_bool(0.5) {
        t.set_sequence_order(&["k", "d"]).unwrap();
    }
    if rng.gen_bool(0.3) {
        // Statistics computed before the indexes exist keep every
        // column's distinct values.
        t.stats();
    }
    for col in INDEXED {
        t.create_index(col).unwrap();
    }
    t
}

#[test]
fn random_appends_fold_like_a_rebuild() {
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let cat = Catalog::new();
        let first = cat.register(new_table(&mut rng));
        let mut rows = rows_of(first.data());
        let mut old: Vec<Handle> = Vec::new();
        for _ in 0..30 {
            let current = cat.get("t").unwrap();
            if rng.gen_bool(0.5) {
                // Statistics computed before the append: the append folds.
                current.stats();
            }
            if rng.gen_bool(0.2) {
                // Two overlays append different batches to one snapshot.
                let (a_rows, b_rows) = (random_batch(&mut rng), random_batch(&mut rng));
                let (a, b) = (cat.overlay(), cat.overlay());
                let ta = a.append("t", batch(&a_rows)).unwrap();
                let tb = b.append("t", batch(&b_rows)).unwrap();
                let (mut ra, mut rb) = (rows.clone(), rows.clone());
                ra.extend(a_rows);
                rb.extend(b_rows);
                let stats_b = check(&tb, &rb, &mut rng);
                let stats_a = check(&ta, &ra, &mut rng);
                old.push(Handle {
                    table: tb,
                    rows: rb,
                    stats: stats_b,
                });
                old.push(Handle {
                    table: Arc::clone(&ta),
                    rows: ra.clone(),
                    stats: stats_a,
                });
                cat.register_shared(ta);
                rows = ra;
            } else {
                let appended = random_batch(&mut rng);
                let t = cat.append("t", batch(&appended)).unwrap();
                rows.extend(appended);
                let stats = check(&t, &rows, &mut rng);
                if rng.gen_bool(0.3) {
                    old.push(Handle {
                        table: t,
                        rows: rows.clone(),
                        stats,
                    });
                }
            }
            recheck_old(&old);
        }
    }
}

/// A durable append refused mid-commit publishes nothing; a different
/// append staged on the same snapshot afterwards folds as if the refused
/// one never happened.
#[test]
fn a_refused_commit_leaves_the_snapshot_to_a_different_append() {
    let dir = std::env::temp_dir().join(format!("dc-segmented-table-{}", std::process::id()));
    let run = |fp: Arc<FailPoint>, appends: &[Vec<Vec<Value>>]| {
        let _ = std::fs::remove_dir_all(&dir);
        let catalog = Arc::new(Catalog::new());
        let mut t = Table::new("t", batch(&appends[0]));
        for col in INDEXED {
            t.create_index(col).unwrap();
        }
        catalog.register(t);
        let svc = QueryService::start_sharded_durable(
            DeferredCleansingSystem::with_catalog(catalog),
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
            ShardConfig::new(1, ""),
            DurableOptions::new(&dir).with_failpoint(Arc::clone(&fp)),
        )
        .unwrap();
        let results: Vec<bool> = appends[1..]
            .iter()
            .map(|rows| {
                // Statistics computed on the published version: its
                // successor folds them.
                svc.shard_snapshot(0).catalog.get("t").unwrap().stats();
                svc.append("t", batch(rows)).is_ok()
            })
            .collect();
        (svc, results)
    };
    let mut rng = StdRng::seed_from_u64(99);
    let appends: Vec<Vec<Vec<Value>>> = (0..4)
        .map(|_| (0..30).map(|_| random_row(&mut rng)).collect())
        .collect();
    // Measure the ticks the first two appends take, then refuse the third
    // one part-way through its segment file.
    let unlimited = FailPoint::unlimited();
    let (svc, ok) = run(Arc::clone(&unlimited), &appends[..3]);
    assert_eq!(ok, [true, true]);
    drop(svc);
    let budget = unlimited.ticks_requested() + 10;
    let fp = FailPoint::after_ticks(budget);
    let (svc, ok) = run(Arc::clone(&fp), &appends);
    assert_eq!(ok, [true, true, false]);
    assert!(fp.is_tripped());

    let snapshot = svc.shard_snapshot(0);
    let published = snapshot.catalog.get("t").unwrap();
    let mut rows: Vec<Vec<Value>> = appends[..3].concat();
    check(&published, &rows, &mut rng);
    let different: Vec<Vec<Value>> = (0..17).map(|_| random_row(&mut rng)).collect();
    let next = snapshot
        .catalog
        .overlay()
        .append("t", batch(&different))
        .unwrap();
    let before = rows.clone();
    rows.extend(different);
    check(&next, &rows, &mut rng);
    assert_eq!(rows_of(published.data()), before);
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
}
