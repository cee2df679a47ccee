//! Microbench for the vectorized hash machinery of
//! [`dc_relational::hash`]: batch key encoding + [`RawKeyTable`] lookups
//! behind join, GROUP BY aggregation, and DISTINCT, versus the
//! `Vec<Value>`-keyed reference operators of `dc-oracle`. Every end-to-end
//! case must return the oracle's rows; the wide n-to-1 join must also hand
//! its probe-side columns through without copying a cell.
//!
//! The interesting numbers are not wall-clock (printed as colour only)
//! but the deterministic [`HashStats`] counters and the encoder's
//! allocation accounting: the fixed-width encode path must do a
//! **constant number of allocations regardless of row count**, and probe
//! memcmps can never exceed key lookups plus counted collisions (a memcmp
//! happens only on a full 64-bit hash match, which is either the entry we
//! are looking for or a counted collision).
//!
//! [`RawKeyTable`]: dc_relational::hash::RawKeyTable
//! [`HashStats`]: dc_relational::hash::HashStats

use dc_relational::agg::{distinct, hash_aggregate, AggExpr, AggFunc};
use dc_relational::batch::{schema_ref, Batch};
use dc_relational::column::ColumnBuilder;
use dc_relational::expr::Expr;
use dc_relational::hash::{encode_keys, HashStats, NullKeys};
use dc_relational::join::{hash_join, JoinType};
use dc_relational::physical::QueryBudget;
use dc_relational::schema::{Field, Schema, SchemaRef};
use dc_relational::value::{DataType, Value};
use std::time::Instant;

/// One measured (operation, input size) point.
#[derive(Debug, Clone)]
pub struct HashKernelPoint {
    pub label: &'static str,
    /// Input rows fed to the operation (left + right for joins).
    pub rows: u64,
    /// Output rows (join matches / groups / distinct survivors).
    pub out_rows: u64,
    /// Key lookups against the table (build inserts + probe gets).
    pub lookups: u64,
    pub hash_ops: u64,
    pub hash_collisions: u64,
    pub probe_memcmps: u64,
    pub key_bytes_encoded: u64,
    /// Allocation events on the key-encode path; `u64::MAX` when the case
    /// does not expose an encoder (join/agg/distinct end-to-end cases).
    pub alloc_events: u64,
    pub vectorized_ms: f64,
    pub oracle_ms: f64,
}

impl HashKernelPoint {
    /// Whether this point carries encoder allocation accounting.
    pub fn has_alloc_events(&self) -> bool {
        self.alloc_events != u64::MAX
    }
}

/// A deterministic xorshift generator, enough to shape the data without
/// pulling in a rand crate.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

fn fact_schema() -> SchemaRef {
    schema_ref(Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("epc", DataType::Str),
        Field::new("w", DataType::Double),
    ]))
}

fn dim_schema() -> SchemaRef {
    schema_ref(Schema::new(vec![
        Field::new("dk", DataType::Int),
        Field::new("gln", DataType::Str),
    ]))
}

/// `rows` fact rows: `k` Int over `rows / 4` distinct values, `epc` Str
/// over 64 distinct tags, `w` Double.
fn fact_batch(rows: usize, seed: u64) -> Batch {
    let mut rng = Rng(seed | 1);
    let mut k = ColumnBuilder::new(DataType::Int, rows);
    let mut epc = ColumnBuilder::new(DataType::Str, rows);
    let mut w = ColumnBuilder::new(DataType::Double, rows);
    let spread = (rows / 4).max(1) as u64;
    for _ in 0..rows {
        k.push(&Value::Int((rng.next() % spread) as i64)).unwrap();
        epc.push(&Value::str(format!("urn:epc:{:04}", rng.next() % 64)))
            .unwrap();
        w.push(&Value::Double((rng.next() % 1_000_000) as f64 / 1e6))
            .unwrap();
    }
    Batch::new(fact_schema(), vec![k.finish(), epc.finish(), w.finish()]).expect("fact batch")
}

/// `rows / 8` dimension rows keyed to hit about half the fact keys.
fn dim_batch(rows: usize, seed: u64) -> Batch {
    let n = (rows / 8).max(1);
    let mut rng = Rng(seed | 1);
    let spread = (rows / 2).max(1) as u64;
    let mut dk = ColumnBuilder::new(DataType::Int, n);
    let mut gln = ColumnBuilder::new(DataType::Str, n);
    for _ in 0..n {
        dk.push(&Value::Int((rng.next() % spread) as i64)).unwrap();
        gln.push(&Value::str(format!("urn:epc:{:04}", rng.next() % 96)))
            .unwrap();
    }
    Batch::new(dim_schema(), vec![dk.finish(), gln.finish()]).expect("dim batch")
}

/// Payload columns on the probe side of the wide n-to-1 join case.
const WIDE_PAYLOADS: usize = 5;

/// `rows` probe rows for the wide join: a foreign key `fk` into
/// [`reference_batch`] — every value present there — and [`WIDE_PAYLOADS`]
/// `Str` columns the join only carries along.
fn wide_fact_batch(rows: usize, seed: u64) -> Batch {
    let mut rng = Rng(seed | 1);
    let keys = (rows / 8).max(1) as u64;
    let mut fields = vec![Field::new("fk", DataType::Int)];
    let mut fk = ColumnBuilder::new(DataType::Int, rows);
    for _ in 0..rows {
        fk.push(&Value::Int((rng.next() % keys) as i64)).unwrap();
    }
    let mut cols = vec![fk.finish()];
    for p in 0..WIDE_PAYLOADS {
        fields.push(Field::new(format!("p{p}"), DataType::Str));
        let mut payload = ColumnBuilder::new(DataType::Str, rows);
        for _ in 0..rows {
            payload
                .push(&Value::str(format!("payload-{p}-{:05}", rng.next() % 4096)))
                .unwrap();
        }
        cols.push(payload.finish());
    }
    Batch::new(schema_ref(Schema::new(fields)), cols).expect("wide fact batch")
}

/// The reference table of the wide join: one row per key `0..rows / 8`.
fn reference_batch(rows: usize) -> Batch {
    let n = (rows / 8).max(1);
    let mut dk = ColumnBuilder::new(DataType::Int, n);
    let mut gln = ColumnBuilder::new(DataType::Str, n);
    for i in 0..n {
        dk.push(&Value::Int(i as i64)).unwrap();
        gln.push(&Value::str(format!("urn:epc:{i:06}"))).unwrap();
    }
    Batch::new(dim_schema(), vec![dk.finish(), gln.finish()]).expect("reference batch")
}

/// Time `op` over `iters` repetitions, returning (last result, total ms).
fn timed<T>(iters: usize, mut op: impl FnMut() -> T) -> (T, f64) {
    let t = Instant::now();
    let mut last = None;
    for _ in 0..iters {
        last = Some(op());
    }
    (
        last.expect("at least one iteration"),
        t.elapsed().as_secs_f64() * 1e3,
    )
}

/// Run the hash-machinery operations over `rows`-row inputs, `iters`
/// timed repetitions per measurement.
pub fn hash_kernel_ablation(rows: usize, iters: usize) -> Vec<HashKernelPoint> {
    let fact = fact_batch(rows, 0x5eed_2006);
    let dim = dim_batch(rows, 0x00d1_ce00);
    let wide = wide_fact_batch(rows, 0x0f00_d1e5);
    let reference = reference_batch(rows);
    let budget = QueryBudget::unlimited();
    let mut points = Vec::new();

    // Encode-only: fixed-width (Int + Double) and var-width (Str) layouts.
    // The oracle lane materializes the same keys as `Vec<Value>` rows —
    // the per-row boxing the normalized encoding replaces.
    for (label, cols) in [
        ("encode_fixed", vec![0usize, 2]),
        ("encode_var", vec![1usize]),
    ] {
        let key_cols: Vec<_> = cols.iter().map(|&c| fact.column(c).clone()).collect();
        let (enc, vectorized_ms) = timed(iters, || {
            let mut stats = HashStats::default();
            let enc = encode_keys(&key_cols, None, rows, NullKeys::Match, &mut stats).unwrap();
            (enc, stats)
        });
        let (_, oracle_ms) = timed(iters, || {
            let keys: Vec<Vec<Value>> = (0..rows)
                .map(|i| cols.iter().map(|&c| fact.column(c).value(i)).collect())
                .collect();
            keys
        });
        let (enc, stats) = enc;
        points.push(HashKernelPoint {
            label,
            rows: rows as u64,
            out_rows: enc.rows() as u64,
            lookups: 0,
            hash_ops: stats.hash_ops,
            hash_collisions: stats.hash_collisions,
            probe_memcmps: stats.probe_memcmps,
            key_bytes_encoded: stats.key_bytes_encoded,
            alloc_events: enc.alloc_events(),
            vectorized_ms,
            oracle_ms,
        });
    }

    // End-to-end consumers: the engine's entry point — (output, key
    // lookups, hash work) — against the oracle's `Vec<Value>`-keyed
    // reference, which has only its output to report.
    type Engine<'a> = Box<dyn Fn() -> (Batch, u64, HashStats) + 'a>;
    type Oracle<'a> = Box<dyn Fn() -> Batch + 'a>;
    fn join<'a>(
        probe: &'a Batch,
        build: &'a Batch,
        (left, right): (&'static str, &'static str),
        budget: &'a QueryBudget,
    ) -> (Engine<'a>, Oracle<'a>) {
        let (left, right) = ([Expr::col(left)], [Expr::col(right)]);
        let (l, r) = (left.clone(), right.clone());
        let engine = move || {
            let (out, work) =
                hash_join(probe, build, &l, &r, JoinType::Inner, None, budget).unwrap();
            let lookups = build.num_rows() as u64 + work.probes;
            (out, lookups, work.hash)
        };
        let oracle = move || dc_oracle::join(probe, build, &left, &right, JoinType::Inner).unwrap();
        (Box::new(engine), Box::new(oracle))
    }
    fn aggregate<'a>(
        input: &'a Batch,
        group_by: &'a [(Expr, String)],
        aggs: Vec<AggExpr>,
        budget: &'a QueryBudget,
    ) -> (Engine<'a>, Oracle<'a>) {
        let rows = input.num_rows() as u64;
        let reference = aggs.clone();
        let engine = move || {
            let mut stats = HashStats::default();
            let out = hash_aggregate(input, group_by, &aggs, budget, &mut stats).unwrap();
            (out, rows, stats)
        };
        let oracle = move || dc_oracle::aggregate(input, group_by, &reference).unwrap();
        (Box::new(engine), Box::new(oracle))
    }
    let agg = |func: AggFunc, alias: &str| AggExpr {
        func,
        alias: alias.into(),
    };
    let by_epc = [(Expr::col("epc"), "epc".to_string())];
    let by_k = [(Expr::col("k"), "k".to_string())];
    let join_rows = (fact.num_rows() + dim.num_rows()) as u64;
    let fact_rows = fact.num_rows() as u64;
    let cases: Vec<(&'static str, u64, (Engine<'_>, Oracle<'_>))> = vec![
        (
            "join_int",
            join_rows,
            join(&fact, &dim, ("k", "dk"), &budget),
        ),
        (
            "join_str",
            join_rows,
            join(&fact, &dim, ("epc", "gln"), &budget),
        ),
        (
            "join_wide_fk",
            (wide.num_rows() + reference.num_rows()) as u64,
            join(&wide, &reference, ("fk", "dk"), &budget),
        ),
        (
            "group_by_str",
            fact_rows,
            aggregate(
                &fact,
                &by_epc,
                vec![
                    agg(AggFunc::CountStar, "n"),
                    agg(AggFunc::Sum(Expr::col("w")), "s"),
                ],
                &budget,
            ),
        ),
        (
            "count_distinct_str",
            fact_rows,
            aggregate(
                &fact,
                &by_k,
                vec![agg(AggFunc::CountDistinct(Expr::col("epc")), "tags")],
                &budget,
            ),
        ),
        (
            "min_max_str",
            fact_rows,
            aggregate(
                &fact,
                &by_k,
                vec![
                    agg(AggFunc::Min(Expr::col("epc")), "lo"),
                    agg(AggFunc::Max(Expr::col("epc")), "hi"),
                ],
                &budget,
            ),
        ),
        (
            "distinct",
            fact_rows,
            (
                Box::new(|| {
                    let mut stats = HashStats::default();
                    let out = distinct(&fact, &budget, &mut stats).unwrap();
                    (out, fact_rows, stats)
                }),
                Box::new(|| dc_oracle::distinct(&fact)),
            ),
        ),
    ];
    for (label, rows_in, (engine, oracle)) in cases {
        let ((out, lookups, stats), vectorized_ms) = timed(iters, engine);
        let (expect, oracle_ms) = timed(iters, oracle);
        // Row order is part of the contract, so the columns compare as
        // they are (row by row, nothing materialized).
        assert!(
            out.schema() == expect.schema() && out.columns() == expect.columns(),
            "{label}: vectorized and oracle outputs diverge"
        );
        if label == "join_wide_fk" {
            // Every probe row has exactly one match, so the probe side's
            // output is its input: the join may not have copied a cell.
            let copied: usize = (0..wide.num_columns())
                .filter(|&c| !std::ptr::eq(out.column(c).data(), wide.column(c).data()))
                .map(|c| out.column(c).len())
                .sum();
            assert_eq!(copied, 0, "{label}: probe-side cells copied");
        }
        let out_rows = out.num_rows() as u64;
        points.push(HashKernelPoint {
            label,
            rows: rows_in,
            out_rows,
            lookups,
            hash_ops: stats.hash_ops,
            hash_collisions: stats.hash_collisions,
            probe_memcmps: stats.probe_memcmps,
            key_bytes_encoded: stats.key_bytes_encoded,
            alloc_events: u64::MAX,
            vectorized_ms,
            oracle_ms,
        });
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_encode_allocations_are_constant_in_row_count() {
        let small = hash_kernel_ablation(512, 1);
        let large = hash_kernel_ablation(4_096, 1);
        let alloc = |pts: &[HashKernelPoint]| {
            pts.iter()
                .find(|p| p.label == "encode_fixed")
                .expect("encode_fixed point")
                .alloc_events
        };
        assert_eq!(
            alloc(&small),
            alloc(&large),
            "fixed-width encode allocations must not scale with rows"
        );
        assert!(alloc(&large) <= 4);
    }

    #[test]
    fn probe_memcmps_bounded_by_lookups_plus_collisions() {
        for p in hash_kernel_ablation(2_048, 1) {
            if p.lookups == 0 {
                continue; // encode-only points never probe
            }
            assert!(
                p.probe_memcmps <= p.lookups + p.hash_collisions,
                "{}: {} memcmps > {} lookups + {} collisions",
                p.label,
                p.probe_memcmps,
                p.lookups,
                p.hash_collisions
            );
            assert!(p.hash_ops > 0, "{}: hash path did not engage", p.label);
        }
    }
}
