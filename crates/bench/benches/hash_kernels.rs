//! Microbench for the vectorized hash machinery: batch key encoding +
//! normalized-key tables behind join, GROUP BY, and DISTINCT, vs the
//! retained `Vec<Value>` oracle.
//!
//! Counters are deterministic, so this bench *asserts* the acceptance
//! bars instead of just printing numbers: the fixed-width encode path
//! must spend a constant (≤ 4) number of allocations regardless of row
//! count, every consumer must spend at most one memcmp per key lookup
//! plus counted collisions, and the two lanes must agree on output
//! cardinality (checked inside the ablation). Wall-clock is colour only.
//!
//! `--smoke` shrinks the input for CI; `--out <path>` writes the numbers
//! as JSON (default `BENCH_hash_kernels.json`).

use dc_bench::hash_kernels::hash_kernel_ablation;
use dc_json::Json;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_hash_kernels.json", String::as_str);

    let (rows, iters) = if smoke { (16_384, 4) } else { (262_144, 16) };

    // The allocation bar needs two sizes: constant means size-independent.
    let half = hash_kernel_ablation(rows / 2, 1);
    let points = hash_kernel_ablation(rows, iters);
    println!("hash_kernels: {rows} rows, {iters} iters");
    for p in &points {
        println!(
            "  {:>12}: {:>8} rows -> {:>7} out, {:>9} hash_ops, {:>4} collisions, \
             {:>8} memcmps, {:>9} key bytes | vectorized {:>8.3}ms vs oracle {:>8.3}ms",
            p.label,
            p.rows,
            p.out_rows,
            p.hash_ops,
            p.hash_collisions,
            p.probe_memcmps,
            p.key_bytes_encoded,
            p.vectorized_ms,
            p.oracle_ms
        );
        if p.has_alloc_events() {
            let at_half = half
                .iter()
                .find(|q| q.label == p.label)
                .expect("matching half-size point");
            assert_eq!(
                p.alloc_events, at_half.alloc_events,
                "{}: allocations scale with row count ({} at {} rows vs {} at {} rows)",
                p.label, p.alloc_events, p.rows, at_half.alloc_events, at_half.rows
            );
            if p.label == "encode_fixed" {
                assert!(
                    p.alloc_events <= 4,
                    "{}: fixed-width encoding spent {} allocations",
                    p.label,
                    p.alloc_events
                );
            }
        } else {
            assert!(
                p.probe_memcmps <= p.lookups + p.hash_collisions,
                "{}: {} memcmps exceed {} lookups + {} collisions",
                p.label,
                p.probe_memcmps,
                p.lookups,
                p.hash_collisions
            );
            assert!(p.hash_ops > 0, "{}: hash path did not engage", p.label);
        }
    }

    let json = Json::obj().set("smoke", smoke).set("rows", rows).set(
        "points",
        Json::Arr(
            points
                .iter()
                .map(|p| {
                    let mut o = Json::obj()
                        .set("label", p.label)
                        .set("rows", p.rows)
                        .set("out_rows", p.out_rows)
                        .set("lookups", p.lookups)
                        .set("hash_ops", p.hash_ops)
                        .set("hash_collisions", p.hash_collisions)
                        .set("probe_memcmps", p.probe_memcmps)
                        .set("key_bytes_encoded", p.key_bytes_encoded)
                        .set("vectorized_ms", Json::Num(p.vectorized_ms))
                        .set("oracle_ms", Json::Num(p.oracle_ms));
                    if p.has_alloc_events() {
                        o = o.set("alloc_events", p.alloc_events);
                    }
                    o
                })
                .collect(),
        ),
    );
    std::fs::write(out_path, json.pretty()).expect("write bench json");
    println!("wrote {out_path}");
}
