//! Kernel-level ablation for the Φ_C hot path: naive per-row frame
//! recomputation on scalar `Value`s vs the typed sliding kernels, and
//! run-aware merge sort vs a from-scratch full sort.
//!
//! Unlike the figure experiments this does not go through SQL — it drives
//! [`WindowEval`] (against [`NaiveWindow`], the reference in `dc-oracle`)
//! and [`sort_batch_runs`] directly so the two sides differ *only* in the
//! kernel under test. Work counters are deterministic; the
//! bench binary gates on them and reports wall-clock as colour.

use dc_oracle::NaiveWindow;
use dc_relational::batch::{schema_ref, Batch};
use dc_relational::column::Column;
use dc_relational::expr::Expr;
use dc_relational::physical::QueryBudget;
use dc_relational::schema::{Field, Schema};
use dc_relational::sort::{sort_batch_runs, SortKey};
use dc_relational::value::{DataType, Value};
use dc_relational::window::{Frame, FrameBound, WindowEval, WindowExpr, WindowFuncKind};
use std::time::Instant;

/// One frame width measured both ways over the same data.
#[derive(Debug, Clone)]
pub struct KernelPoint {
    pub width: usize,
    /// Accumulator ops of the typed path (frame positions entering or
    /// leaving aggregate state) — frame-width independent by design.
    pub incremental_ops: u64,
    /// Frame rows visited by the naive path — grows linearly with width.
    pub naive_work: u64,
    pub incremental_ms: f64,
    pub naive_ms: f64,
}

#[derive(Debug, Clone)]
pub struct KernelAblation {
    pub rows: usize,
    pub partitions: usize,
    pub points: Vec<KernelPoint>,
}

impl KernelAblation {
    /// Counter growth of the typed path from the narrowest to the widest
    /// measured frame. The acceptance bar is ≤ 1.2×; the naive path's
    /// equivalent ratio tracks the width ratio itself.
    pub fn incremental_growth(&self) -> f64 {
        let first = self.points.first().map_or(1, |p| p.incremental_ops);
        let last = self.points.last().map_or(1, |p| p.incremental_ops);
        last as f64 / first.max(1) as f64
    }
}

/// Reads-shaped data sorted by (epc, rtime): `partitions` equal EPC runs,
/// read times 0–59 s apart, a location that changes every few reads.
fn reads_like_batch(rows: usize, partitions: usize) -> Batch {
    let schema = schema_ref(Schema::new(vec![
        Field::new("epc", DataType::Int),
        Field::new("rtime", DataType::Int),
        Field::new("loc", DataType::Str),
        Field::new("v", DataType::Int),
    ]));
    let per = rows.div_ceil(partitions.max(1));
    // Deterministic pseudo-random values (no RNG dependency): a fixed
    // multiplicative hash of the row index.
    let mut rtime = 0i64;
    let data: Vec<Vec<Value>> = (0..rows)
        .map(|i| {
            let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 33;
            rtime = if i % per == 0 {
                0
            } else {
                rtime + (h % 60) as i64
            };
            vec![
                Value::Int((i / per) as i64),
                Value::Int(rtime),
                Value::str(format!("loc{}", (h >> 8) % 7)),
                Value::Int((h % 1000) as i64),
            ]
        })
        .collect();
    Batch::from_rows(schema, &data).expect("bench batch")
}

fn window_expr(func: WindowFuncKind, arg: &str, frame: &Frame) -> WindowExpr {
    WindowExpr {
        func,
        arg: Some(Expr::col(arg)),
        frame: frame.clone(),
        alias: format!("{func}_{arg}"),
    }
}

fn bench_exprs(width: usize) -> Vec<WindowExpr> {
    let frame = Frame::rows(
        FrameBound::Preceding(width as i64 - 1),
        FrameBound::CurrentRow,
    );
    [
        WindowFuncKind::Sum,
        WindowFuncKind::Min,
        WindowFuncKind::Count,
    ]
    .map(|func| window_expr(func, "v", &frame))
    .to_vec()
}

/// Both paths over every partition of `batch`: (typed ops, typed ms, naive
/// work, naive ms). Panics if they ever disagree on a value — the bench
/// doubles as an end-to-end equivalence check.
fn run_both(batch: &Batch, exprs: &[WindowExpr]) -> (u64, f64, u64, f64) {
    let order_key = Expr::col("rtime");
    let ev = WindowEval::prepare(batch, &[Expr::col("epc")], Some(&order_key), exprs)
        .expect("prepare window eval");

    let start = Instant::now();
    let (typed, ops) = ev
        .eval_partitions(ev.partitions(), &QueryBudget::unlimited())
        .expect("typed kernels");
    let typed_ms = start.elapsed().as_secs_f64() * 1e3;

    let reference = NaiveWindow::prepare(batch, &[Expr::col("epc")], Some(&order_key), exprs)
        .expect("prepare naive window");
    let start = Instant::now();
    let mut naive_work = 0u64;
    let mut naive: Vec<Vec<Value>> = vec![Vec::new(); exprs.len()];
    for &range in ev.partitions() {
        let (vals, w) = reference.eval_partition(range).expect("naive");
        naive_work += w;
        for (acc, v) in naive.iter_mut().zip(vals) {
            acc.extend(v);
        }
    }
    let naive_ms = start.elapsed().as_secs_f64() * 1e3;

    for ((col, vals), we) in typed.iter().zip(&naive).zip(exprs) {
        let expect = Column::from_values(col.data_type(), vals).expect("naive column");
        assert!(*col == expect, "kernel mismatch for {we}");
    }
    (ops, typed_ms, naive_work, naive_ms)
}

/// Measure naive vs typed window evaluation at each frame width over one
/// fixed dataset.
pub fn kernel_ablation(rows: usize, partitions: usize, widths: &[usize]) -> KernelAblation {
    let batch = reads_like_batch(rows, partitions);
    let points = widths
        .iter()
        .map(|&width| {
            let (incremental_ops, incremental_ms, naive_work, naive_ms) =
                run_both(&batch, &bench_exprs(width));
            KernelPoint {
                width,
                incremental_ops,
                naive_work,
                incremental_ms,
                naive_ms,
            }
        })
        .collect();
    KernelAblation {
        rows,
        partitions,
        points,
    }
}

/// One cleansing-rule window shape at RFID partition sizes, both ways.
#[derive(Debug, Clone)]
pub struct ShapePoint {
    pub shape: &'static str,
    pub exprs: usize,
    pub typed_ops: u64,
    /// Wall-clock per input row over all of the shape's expressions
    /// (best of three runs).
    pub typed_ns_per_row: f64,
    pub naive_ns_per_row: f64,
}

/// The three frame shapes the compiled rules and q1/q2 put on the hot path
/// — a two-column lag (duplicate/replacing rules), a bounded RANGE look-ahead
/// (reader rule), a running sum — over `rows` reads in partitions of about
/// 32 (RFIDGen: 30 reads per EPC).
pub fn shape_ablation(rows: usize) -> Vec<ShapePoint> {
    let batch = reads_like_batch(rows, rows.div_ceil(32));
    let lag = Frame::rows(FrameBound::Preceding(1), FrameBound::Preceding(1));
    let shapes: [(&'static str, Vec<WindowExpr>); 3] = [
        (
            "lag",
            vec![
                window_expr(WindowFuncKind::Max, "loc", &lag),
                window_expr(WindowFuncKind::Max, "rtime", &lag),
            ],
        ),
        (
            "bounded_range",
            vec![window_expr(
                WindowFuncKind::Max,
                "v",
                &Frame::range(FrameBound::Following(1), FrameBound::Following(299)),
            )],
        ),
        (
            "running_sum",
            vec![window_expr(
                WindowFuncKind::Sum,
                "v",
                &Frame::rows(FrameBound::UnboundedPreceding, FrameBound::CurrentRow),
            )],
        ),
    ];
    shapes
        .into_iter()
        .map(|(shape, exprs)| {
            let runs: Vec<_> = (0..3).map(|_| run_both(&batch, &exprs)).collect();
            let best = |ms: fn(&(u64, f64, u64, f64)) -> f64| {
                runs.iter().map(ms).fold(f64::INFINITY, f64::min) * 1e6 / rows as f64
            };
            ShapePoint {
                shape,
                exprs: exprs.len(),
                typed_ops: runs[0].0,
                typed_ns_per_row: best(|r| r.1),
                naive_ns_per_row: best(|r| r.3),
            }
        })
        .collect()
}

/// Run-aware sort vs full sort over the same segmented-append-shaped data.
#[derive(Debug, Clone)]
pub struct SortAblation {
    pub rows: usize,
    /// Pre-sorted runs merged (one per simulated segment append).
    pub runs: u64,
    /// Comparisons with segment-metadata run hints (no detection pass).
    pub hinted_comparisons: u64,
    /// Comparisons with data-driven run detection (detection + merge).
    pub detected_comparisons: u64,
    /// Comparisons a from-scratch stable sort of the same rows performs.
    pub full_sort_comparisons: u64,
    /// A fully-sorted input skipped its sort entirely.
    pub sorted_input_elided: bool,
}

/// Build `k` runs of `per_run` ascending keys with overlapping value ranges
/// — the shape of a table assembled from time-ordered segment appends —
/// then sort it three ways: hinted merge, detected merge, and a counted
/// from-scratch stable sort. Panics if the merge output ever differs from
/// the full sort's.
pub fn sort_ablation(per_run: usize, k: usize) -> SortAblation {
    let schema = schema_ref(Schema::new(vec![Field::new("t", DataType::Int)]));
    let mut keys: Vec<i64> = Vec::with_capacity(per_run * k);
    let mut run_starts = Vec::with_capacity(k);
    for run in 0..k {
        run_starts.push(keys.len());
        // Each run overlaps half of its neighbour's range.
        let base = (run * per_run / 2) as i64;
        keys.extend((0..per_run).map(|i| base + i as i64));
    }
    let rows: Vec<Vec<Value>> = keys.iter().map(|&t| vec![Value::Int(t)]).collect();
    let batch = Batch::from_rows(schema, &rows).expect("bench batch");
    let sort_keys = [SortKey::asc(Expr::col("t"))];

    let (hinted, h_eff) =
        sort_batch_runs(&batch, &sort_keys, Some(&run_starts)).expect("hinted sort");
    let (detected, d_eff) = sort_batch_runs(&batch, &sort_keys, None).expect("detected sort");

    // Counted reference: the full-sort path this engine would otherwise
    // take (stable comparison sort of row indices on the key).
    let mut full_sort_comparisons = 0u64;
    let mut perm: Vec<usize> = (0..keys.len()).collect();
    perm.sort_by(|&a, &b| {
        full_sort_comparisons += 1;
        keys[a].cmp(&keys[b])
    });
    let reference = batch.take(&perm);
    let same =
        |b: &Batch| (0..b.num_rows()).all(|i| b.column(0).value(i) == reference.column(0).value(i));
    assert!(same(&hinted) && same(&detected), "merge mismatch");

    let (_, sorted_eff) =
        sort_batch_runs(&reference, &sort_keys, None).expect("sort of sorted input");

    SortAblation {
        rows: keys.len(),
        runs: h_eff.runs,
        hinted_comparisons: h_eff.comparisons,
        detected_comparisons: d_eff.comparisons,
        full_sort_comparisons,
        sorted_input_elided: sorted_eff.elided,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_ops_are_width_independent() {
        let ka = kernel_ablation(512, 4, &[16, 64]);
        assert!(ka.incremental_growth() <= 1.2, "{ka:?}");
        // The naive side really does pay per frame row.
        assert!(ka.points[1].naive_work > 2 * ka.points[0].naive_work);
    }

    #[test]
    fn shape_ablation_covers_the_rule_shapes() {
        let shapes = shape_ablation(1024);
        let names: Vec<_> = shapes.iter().map(|s| s.shape).collect();
        assert_eq!(names, ["lag", "bounded_range", "running_sum"]);
        // A lag over partitions of 32: every row but the first enters and
        // every row but the last two leaves, per expression.
        assert_eq!(shapes[0].typed_ops, 2 * 32 * (2 * 32 - 3));
    }

    #[test]
    fn merge_beats_full_sort_on_append_shaped_data() {
        let sa = sort_ablation(256, 4);
        assert_eq!(sa.runs, 4);
        assert!(sa.hinted_comparisons < sa.full_sort_comparisons);
        assert!(sa.hinted_comparisons < sa.detected_comparisons);
        assert!(sa.sorted_input_elided);
    }
}
