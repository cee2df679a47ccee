//! Storage-layer transparency: segmentation, zone-map pruning, and the
//! cleansed-sequence cache are pure optimizations.
//!
//! * A segmented table answers every query with byte-identical rows to the
//!   same data held monolithically, at any parallelism; the deterministic
//!   operator metrics agree except for the scan-level fetch counters that
//!   pruning is *supposed* to shrink.
//! * The cleansed-sequence cache returns byte-identical results cold,
//!   warm, and after an append invalidates part of it.

use dc_bench::harness::{run_variant, setup_with_parallelism, Variant};
use deferred_cleansing::relational::prelude::*;
use deferred_cleansing::relational::sql::plan_sql;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PARALLELISMS: [usize; 3] = [1, 2, 8];
const CASES: u64 = 48;

fn rows_of(b: &Batch) -> Vec<Vec<Value>> {
    (0..b.num_rows()).map(|i| b.row(i)).collect()
}

/// Zero the counters that segment pruning legitimately changes: the
/// segment counters everywhere, and the pre-residual fetch counters of
/// scan nodes (a pruned scan fetches fewer rows; every operator above it
/// sees exactly the same stream).
fn normalize_metrics(m: &mut OperatorMetrics) {
    normalize_stats(&mut m.stats);
    if m.name == "ScanExec" {
        m.rows_in = 0;
        m.comparisons = 0;
    }
    for c in &mut m.children {
        normalize_metrics(c);
    }
}

fn normalize_stats(s: &mut ExecStats) {
    s.segments_total = 0;
    s.segments_pruned = 0;
    s.segments_scanned = 0;
    s.rows_scanned = 0;
}

fn random_reads(rng: &mut StdRng) -> Vec<Vec<Value>> {
    let n = rng.gen_range(1usize..200);
    (0..n)
        .map(|_| {
            vec![
                Value::str(format!("e{}", rng.gen_range(0u8..6))),
                Value::Int(rng.gen_range(0i64..2000)),
                Value::str(format!("loc{}", rng.gen_range(0u8..4))),
                Value::Int(rng.gen_range(-50i64..50)),
            ]
        })
        .collect()
}

fn random_query(rng: &mut StdRng) -> String {
    let lo = rng.gen_range(0i64..2000);
    let hi = lo + rng.gen_range(0i64..800);
    match rng.gen_range(0u8..5) {
        0 => format!("select epc, rtime from r where rtime < {lo}"),
        1 => format!("select epc, rtime, val from r where rtime >= {lo} and rtime < {hi}"),
        2 => format!(
            "select epc, rtime from r where epc = 'e{}'",
            rng.gen_range(0u8..6)
        ),
        3 => format!(
            "select epc, count(*) as n from r \
             where epc in ('e0', 'e{}') and rtime < {hi} group by epc",
            rng.gen_range(1u8..6)
        ),
        _ => format!(
            "select epc, rtime, val from r where val > {} and rtime < {hi}",
            rng.gen_range(-50i64..50)
        ),
    }
}

/// Segmented scan ≡ monolithic scan on random data, random segment sizes,
/// random index sets, and random range/point/IN queries, at P ∈ {1, 2, 8}.
#[test]
fn segmented_scan_equivalent_to_monolithic() {
    let schema = || {
        schema_ref(Schema::new(vec![
            Field::new("epc", DataType::Str),
            Field::new("rtime", DataType::Int),
            Field::new("biz_loc", DataType::Str),
            Field::new("val", DataType::Int),
        ]))
    };
    for case in 0..CASES {
        let seed = 0xDC51_0000 + case;
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = random_reads(&mut rng);
        let batch = Batch::from_rows(schema(), &rows).unwrap();
        let segment_rows = rng.gen_range(1usize..=rows.len().max(1) * 2);

        let mono_cat = Catalog::new();
        let mut mono = Table::new("r", batch.clone());
        let seg_cat = Catalog::new();
        let mut seg = Table::with_segment_rows("r", batch, segment_rows);
        for col in ["epc", "rtime"] {
            if rng.gen_bool(0.5) {
                mono.create_index(col).unwrap();
                seg.create_index(col).unwrap();
            }
        }
        mono_cat.register(mono);
        seg_cat.register(seg);

        let sql = random_query(&mut rng);
        let plan_m = plan_sql(&sql, &mono_cat).unwrap();
        let plan_s = plan_sql(&sql, &seg_cat).unwrap();

        let mut reference: Option<(Vec<Vec<Value>>, ExecStats, OperatorMetrics)> = None;
        for p in PARALLELISMS {
            let opts = ExecOptions::with_parallelism(p);
            let mut ex_m = Executor::with_options(&mono_cat, opts);
            let out_m = ex_m.execute(&plan_m).unwrap();
            let mut ex_s = Executor::with_options(&seg_cat, opts);
            let out_s = ex_s.execute(&plan_s).unwrap();

            let ctx = format!("seed {seed} P={p} segment_rows={segment_rows} sql: {sql}");
            assert_eq!(rows_of(&out_m), rows_of(&out_s), "rows diverge: {ctx}");

            let mut stats_m = ex_m.stats;
            let mut stats_s = ex_s.stats;
            normalize_stats(&mut stats_m);
            normalize_stats(&mut stats_s);
            assert_eq!(stats_m, stats_s, "normalized stats diverge: {ctx}");

            let mut metrics_s = ex_s.metrics.as_ref().unwrap().deterministic();
            let mut metrics_m = ex_m.metrics.as_ref().unwrap().deterministic();
            normalize_metrics(&mut metrics_m);
            normalize_metrics(&mut metrics_s);
            assert_eq!(metrics_m, metrics_s, "normalized metrics diverge: {ctx}");

            // Across parallelism the segmented run is *strictly* identical.
            let current = (rows_of(&out_s), ex_s.stats, metrics_s);
            match &reference {
                None => reference = Some(current),
                Some(first) => {
                    assert_eq!(first.0, current.0, "rows vary with P: {ctx}");
                    assert_eq!(first.1, current.1, "stats vary with P: {ctx}");
                    assert_eq!(first.2, current.2, "metrics vary with P: {ctx}");
                }
            }
        }
    }
}

/// End-to-end cache invalidation on generated RFID data: warm hits, an
/// append evicts exactly the stale sequence, and the post-append answer is
/// byte-identical to a cold system over the same appended data.
#[test]
fn cache_invalidation_matches_cold_run() {
    let env = setup_with_parallelism(3, 10.0, 7, 2);
    let ds = &env.dataset;
    let t1 = ds.rtime_quantile(0.10);
    let sql = ds.q1(t1);

    let cold = run_variant(&env, 1, &sql, Variant::JoinBack).unwrap();
    assert!(cold.stats.seq_cache_misses > 0);
    let warm = run_variant(&env, 1, &sql, Variant::JoinBack).unwrap();
    assert!(warm.stats.seq_cache_hits > 0);
    assert_eq!(warm.stats.seq_cache_misses, 0);
    assert_eq!(warm.result_rows, cold.result_rows);

    // Append one read for an EPC the query cleanses.
    let victim_sql = format!("select epc from caser where rtime <= {t1} limit 1");
    let victim = env.system.query_dirty(&victim_sql).unwrap().row(0)[0]
        .as_str()
        .unwrap()
        .to_string();
    let extra_row = vec![
        Value::str(victim.as_str()),
        Value::Int(t1),
        Value::str("rdr:late"),
        Value::str("gln:late"),
        Value::str("step000"),
    ];
    let schema = env.system.catalog().get("caser").unwrap().schema().clone();
    let extra = Batch::from_rows(schema.clone(), std::slice::from_ref(&extra_row)).unwrap();
    env.system.catalog().append("caser", extra).unwrap();

    let after = run_variant(&env, 1, &sql, Variant::JoinBack).unwrap();
    assert!(
        after.stats.seq_cache_invalidations >= 1,
        "append must evict the stale entry"
    );
    assert!(
        after.stats.seq_cache_hits > 0,
        "untouched sequences still hit"
    );

    // A fresh environment over the same appended data agrees byte for byte.
    let fresh = setup_with_parallelism(3, 10.0, 7, 2);
    let extra = Batch::from_rows(schema, &[extra_row]).unwrap();
    fresh.system.catalog().append("caser", extra).unwrap();
    let (expect, _) = fresh
        .system
        .query_with_strategy(
            "rules-1",
            &sql,
            deferred_cleansing::rewrite::Strategy::JoinBack,
        )
        .unwrap();
    let (got, _) = env
        .system
        .query_with_strategy(
            "rules-1",
            &sql,
            deferred_cleansing::rewrite::Strategy::JoinBack,
        )
        .unwrap();
    assert_eq!(rows_of(&got), rows_of(&expect));
}
