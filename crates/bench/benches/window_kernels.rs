//! Microbench for the Φ_C hot-path kernels: typed sliding-window
//! aggregation vs naive frame recomputation (by frame width, and in ns/row
//! for the three frame shapes the compiled rules use), and run-aware merge
//! sort vs a from-scratch full sort.
//!
//! Counters are deterministic, so this bench *asserts* the two acceptance
//! bars instead of just printing numbers: incremental accumulator ops must
//! grow ≤ 1.2× from the narrowest to the widest frame, and the merge path
//! must beat the full sort's comparison count on append-shaped data.
//! Wall-clock is printed as colour only.
//!
//! `--smoke` shrinks the dataset for CI; `--out <path>` writes the numbers
//! as JSON (default `BENCH_window_kernels.json`).

use dc_bench::window_kernels::{kernel_ablation, shape_ablation, sort_ablation};
use dc_json::Json;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_window_kernels.json", String::as_str);

    let (rows, partitions, per_run, runs) = if smoke {
        (8_192, 16, 1_024, 8)
    } else {
        (131_072, 64, 16_384, 8)
    };
    let widths = [16usize, 64, 256];

    let ka = kernel_ablation(rows, partitions, &widths);
    println!("window_kernels: {rows} rows, {partitions} partitions, 3 aggregates (sum/min/count)");
    for p in &ka.points {
        println!(
            "  width {:>4}: incremental {:>9} ops {:>9.3}ms | naive {:>10} frame rows {:>9.3}ms",
            p.width, p.incremental_ops, p.incremental_ms, p.naive_work, p.naive_ms
        );
    }
    let growth = ka.incremental_growth();
    let naive_growth = ka.points.last().unwrap().naive_work as f64
        / ka.points.first().unwrap().naive_work.max(1) as f64;
    println!("  ops growth 16->256: incremental {growth:.3}x, naive {naive_growth:.1}x");
    assert!(
        growth <= 1.2,
        "incremental accumulator ops grew {growth:.3}x from width 16 to 256 (bar: 1.2x)"
    );

    let shapes = shape_ablation(rows);
    println!("rule shapes: {rows} rows in partitions of 32, ns per input row");
    for s in &shapes {
        println!(
            "  {:<14} {} expr(s): typed {:>8.1} ns/row | naive {:>8.1} ns/row | {:>9} ops",
            s.shape, s.exprs, s.typed_ns_per_row, s.naive_ns_per_row, s.typed_ops
        );
    }

    let sa = sort_ablation(per_run, runs);
    println!(
        "run_aware_sort: {} rows in {} runs: hinted {} cmps, detected {} cmps, full sort {} cmps, \
         sorted input elided: {}",
        sa.rows,
        sa.runs,
        sa.hinted_comparisons,
        sa.detected_comparisons,
        sa.full_sort_comparisons,
        sa.sorted_input_elided
    );
    assert!(sa.runs > 1, "append-shaped input must yield multiple runs");
    assert!(
        sa.hinted_comparisons < sa.full_sort_comparisons,
        "hinted merge ({}) must beat the full sort ({})",
        sa.hinted_comparisons,
        sa.full_sort_comparisons
    );
    assert!(sa.sorted_input_elided, "sorted input must elide its sort");

    let json = Json::obj()
        .set("smoke", smoke)
        .set("rows", rows)
        .set("partitions", partitions)
        .set(
            "kernel_points",
            Json::Arr(
                ka.points
                    .iter()
                    .map(|p| {
                        Json::obj()
                            .set("width", p.width)
                            .set("incremental_ops", p.incremental_ops)
                            .set("naive_work", p.naive_work)
                            .set("incremental_ms", Json::Num(p.incremental_ms))
                            .set("naive_ms", Json::Num(p.naive_ms))
                    })
                    .collect(),
            ),
        )
        .set("incremental_growth", Json::Num(growth))
        .set(
            "rule_shapes",
            Json::Arr(
                shapes
                    .iter()
                    .map(|s| {
                        Json::obj()
                            .set("shape", s.shape)
                            .set("exprs", s.exprs)
                            .set("typed_ops", s.typed_ops)
                            .set("typed_ns_per_row", Json::Num(s.typed_ns_per_row))
                            .set("naive_ns_per_row", Json::Num(s.naive_ns_per_row))
                    })
                    .collect(),
            ),
        )
        .set(
            "sort",
            Json::obj()
                .set("rows", sa.rows)
                .set("runs", sa.runs)
                .set("hinted_comparisons", sa.hinted_comparisons)
                .set("detected_comparisons", sa.detected_comparisons)
                .set("full_sort_comparisons", sa.full_sort_comparisons)
                .set("sorted_input_elided", sa.sorted_input_elided),
        );
    std::fs::write(out_path, json.pretty()).expect("write bench json");
    println!("wrote {out_path}");
}
