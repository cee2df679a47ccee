//! Microbench for the typed expression kernels of
//! [`dc_relational::expr`]: [`filter_chunk`] over a selection-carrying
//! chunk versus the per-row `Value`-boxing oracle
//! ([`dc_oracle::evaluate`] on the compacted batch).
//!
//! The interesting number is not wall-clock (printed as colour only) but
//! the deterministic [`KernelStats`](dc_relational::expr::KernelStats): a
//! typed kernel must do **at most one
//! accumulator op per compute node per selected row**, and a predicate
//! made of kernel-covered nodes must never fall back to the boxed path.
//! The `--smoke` bench asserts both, plus survivor-count equivalence with
//! the oracle, at several selection densities.

use dc_relational::batch::{schema_ref, Batch};
use dc_relational::column::{Column, ColumnBuilder};
use dc_relational::expr::{filter_chunk, BinaryOp, Expr};
use dc_relational::schema::{Field, Schema};
use dc_relational::value::{DataType, Value};
use std::time::Instant;

/// One measured (predicate, selection density) point.
#[derive(Debug, Clone)]
pub struct ExprKernelPoint {
    pub label: &'static str,
    /// Percentage of physical rows carried by the chunk's selection vector
    /// (100 = flat chunk, no selection).
    pub density_pct: u32,
    /// Compute nodes in the predicate (comparison / arithmetic / AND / IN
    /// nodes — leaves are free).
    pub compute_nodes: u64,
    /// Logical rows the kernels evaluated (= selected rows).
    pub evaluated_rows: u64,
    pub kernel_ops: u64,
    pub fallback_rows: u64,
    /// Rows where the predicate was TRUE — must match the oracle.
    pub kernel_survivors: u64,
    pub oracle_survivors: u64,
    pub kernel_ms: f64,
    pub oracle_ms: f64,
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

/// Build the bench chunk: `a` Int in [0, 1000), `b` Int in [0, 1000) with
/// ~5% NULLs, `c` Double in [0, 1).
fn build_batch(rows: usize, seed: u64) -> Batch {
    let mut rng = Rng(seed | 1);
    let mut a = ColumnBuilder::new(DataType::Int, rows);
    let mut b = ColumnBuilder::new(DataType::Int, rows);
    let mut c = ColumnBuilder::new(DataType::Double, rows);
    for _ in 0..rows {
        a.push(&Value::Int((rng.next() % 1000) as i64)).unwrap();
        if rng.next() % 100 < 5 {
            b.push_null();
        } else {
            b.push(&Value::Int((rng.next() % 1000) as i64)).unwrap();
        }
        c.push(&Value::Double((rng.next() % 1_000_000) as f64 / 1e6))
            .unwrap();
    }
    let schema = schema_ref(Schema::new(vec![
        Field::new("a", DataType::Int),
        Field::new("b", DataType::Int),
        Field::new("c", DataType::Double),
    ]));
    Batch::new(schema, vec![a.finish(), b.finish(), c.finish()]).expect("bench batch")
}

/// The benched predicates with their compute-node counts (nodes that charge
/// one kernel op per evaluated row: comparisons, arithmetic, AND, IN).
fn cases() -> Vec<(&'static str, u64, Expr)> {
    vec![
        ("cmp_int", 1, Expr::col("a").lt(Expr::lit(500i64))),
        (
            "arith_cmp",
            2,
            Expr::binary(Expr::col("a"), BinaryOp::Plus, Expr::col("b")).lt(Expr::lit(1000i64)),
        ),
        (
            "and_cmp",
            3,
            Expr::col("a")
                .lt(Expr::lit(800i64))
                .and(Expr::col("b").gt_eq(Expr::lit(100i64))),
        ),
        (
            "in_list",
            1,
            Expr::InList {
                expr: Box::new(Expr::col("a")),
                list: (0..16).map(|k| Value::Int(k * 61)).collect(),
                negated: false,
            },
        ),
        ("mixed_num_cmp", 1, Expr::col("c").lt(Expr::lit(0.35f64))),
    ]
}

/// Count TRUE rows of `pred` via the per-row `Value` oracle on the
/// compacted batch.
fn oracle_survivors(pred: &Expr, chunk: &Batch) -> u64 {
    let compact = chunk.flatten();
    let c: Column = dc_oracle::evaluate(pred, &compact).expect("oracle eval");
    (0..c.len())
        .filter(|&k| !c.is_null(k) && c.value(k) == Value::Bool(true))
        .count() as u64
}

/// Run every predicate at each selection density over a `rows`-row chunk,
/// `iters` timed repetitions per measurement.
pub fn expr_kernel_ablation(
    rows: usize,
    densities_pct: &[u32],
    iters: usize,
) -> Vec<ExprKernelPoint> {
    let base = build_batch(rows, 0x5eed_2006);
    let mut points = Vec::new();
    for &pct in densities_pct {
        let chunk = if pct >= 100 {
            base.clone()
        } else {
            let mut rng = Rng(0x00d1_ce00 + u64::from(pct));
            let sel: Vec<u32> = (0..rows as u32)
                .filter(|_| (rng.next() % 100) < u64::from(pct))
                .collect();
            base.with_selection(sel)
        };
        let evaluated = chunk.num_rows() as u64;
        for (label, compute_nodes, pred) in cases() {
            let t = Instant::now();
            let mut outcome = None;
            for _ in 0..iters {
                outcome = Some(filter_chunk(&pred, &chunk).expect("kernel filter"));
            }
            let kernel_ms = t.elapsed().as_secs_f64() * 1e3;
            let outcome = outcome.expect("at least one iteration");

            let t = Instant::now();
            let mut oracle = 0;
            for _ in 0..iters {
                oracle = oracle_survivors(&pred, &chunk);
            }
            let oracle_ms = t.elapsed().as_secs_f64() * 1e3;

            points.push(ExprKernelPoint {
                label,
                density_pct: pct,
                compute_nodes,
                evaluated_rows: evaluated,
                kernel_ops: outcome.stats.kernel_ops,
                fallback_rows: outcome.stats.fallback_rows,
                kernel_survivors: outcome.selected.len() as u64,
                oracle_survivors: oracle,
                kernel_ms,
                oracle_ms,
            });
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_stay_within_one_op_per_node_per_selected_row() {
        for p in expr_kernel_ablation(2_048, &[100, 20], 1) {
            assert_eq!(p.fallback_rows, 0, "{} fell back", p.label);
            assert!(
                p.kernel_ops <= p.compute_nodes * p.evaluated_rows,
                "{}@{}%: {} ops > {} nodes x {} rows",
                p.label,
                p.density_pct,
                p.kernel_ops,
                p.compute_nodes,
                p.evaluated_rows
            );
            assert_eq!(
                p.kernel_survivors, p.oracle_survivors,
                "{}@{}% disagrees with the oracle",
                p.label, p.density_pct
            );
        }
    }
}
