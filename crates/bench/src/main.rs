//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [all|table1|fig7a|fig7d|fig8|fig9ab|fig9cd|storage|plans|ablations|eager|sharded|stream|recovery|service]
//!       [--scale N] [--seed S] [--threads N] [--workers A,B,..] [--shards A,B,..]
//!       [--out-dir DIR] [--json] [--explain]
//! ```
//!
//! `sharded` runs the Figure-7 query pair through the scatter-gather
//! coordinator at each `--shards` count and records the coordinator's
//! deterministic work counters (`shard_rows_merged`, `segments_scanned`,
//! `sort_comparisons`); it **is** part of `all` and gated by `bench-gate`.
//!
//! `stream` subscribes one standing query per incremental maintenance mode
//! and publishes an append-heavy suffix workload, comparing the scoped
//! maintenance cleansing work against cold full recomputes
//! (`delta_work_pct`). Deterministic, part of `all`, gated by `bench-gate`.
//!
//! `recovery` bootstraps a durable service, publishes append epochs, and
//! restarts from the logs alone, recording replayed records, lazily loaded
//! segment files, and zone-map pruning of a cold historical scan. Its work
//! counters are deterministic, so it **is** part of `all` and gated.
//!
//! `service` measures the concurrent `QueryService` (readers + live
//! append ingest), plus a wall-clock q/s sweep over `--shards` counts. It
//! is wall-clock-bound and intentionally **not** part of `all`, so the
//! deterministic bench gate never sees it.
//!
//! Besides the console rendering, every run writes `BENCH_repro.json` into
//! `--out-dir` (default `target/repro`, also the recovery scratch root) — a
//! machine-readable record of per-figure wall-clock, the deterministic work
//! counters of every measurement, and the parallelism used. `--threads N`
//! enables partition-parallel Φ_C cleansing: window wall-clock improves with
//! N while every work counter stays identical.
//!
//! `--explain` switches to EXPLAIN ANALYZE mode instead: it runs the
//! Figure-7 queries under the cost-based strategy, prints each one's
//! rewrite decision (chosen candidate, all cost estimates, derived
//! conditions) and executed physical plan with per-operator row counts,
//! and writes the machine-readable trees to `EXPLAIN_repro.json`.

use dc_bench::experiments::{
    ablation_joinback, ablation_order_sharing, eager_vs_deferred, explains, fig7_selectivity,
    fig9_dirty, fig9_rules, plans, storage_cache, table1, ExperimentRow, DEFAULT_SCALE,
    DEFAULT_SEED,
};
use dc_bench::report::{render_figure, render_table1};
use dc_json::Json;
use std::time::Instant;

struct Args {
    what: String,
    scale: usize,
    seed: u64,
    threads: usize,
    /// Worker-pool sizes swept by the `service` figure.
    workers: Vec<usize>,
    /// Shard counts swept by the `sharded` figure and the `service` q/s
    /// sweep.
    shards: Vec<usize>,
    /// Directory for machine-readable outputs and recovery scratch state.
    out_dir: std::path::PathBuf,
    json: bool,
    explain: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        what: "all".to_string(),
        scale: DEFAULT_SCALE,
        seed: DEFAULT_SEED,
        threads: 1,
        workers: vec![1, 2, 4],
        shards: vec![1, 2, 4],
        out_dir: std::path::PathBuf::from("target/repro"),
        json: false,
        explain: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                args.scale = it.next().and_then(|v| v.parse().ok()).expect("--scale N");
            }
            "--seed" => {
                args.seed = it.next().and_then(|v| v.parse().ok()).expect("--seed S");
            }
            "--threads" => {
                // The engine clamps parallelism to >= 1; clamp here too so the
                // BENCH_repro.json header agrees with the per-run reports.
                args.threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .map(|n: usize| n.max(1))
                    .expect("--threads N");
            }
            "--workers" => {
                // Comma-separated worker-pool sizes for the service sweep,
                // e.g. `--workers 1,2,4`. Zero-size pools are clamped to 1.
                let list = it.next().expect("--workers A,B,..");
                args.workers = list
                    .split(',')
                    .map(|v| v.trim().parse::<usize>().map(|n| n.max(1)))
                    .collect::<Result<_, _>>()
                    .expect("--workers takes comma-separated counts");
                assert!(
                    !args.workers.is_empty(),
                    "--workers takes at least one count"
                );
            }
            "--shards" => {
                // Comma-separated shard counts for the sharded figures,
                // e.g. `--shards 1,2,4`. Zero shards are clamped to 1.
                let list = it.next().expect("--shards A,B,..");
                args.shards = list
                    .split(',')
                    .map(|v| v.trim().parse::<usize>().map(|n| n.max(1)))
                    .collect::<Result<_, _>>()
                    .expect("--shards takes comma-separated counts");
                assert!(!args.shards.is_empty(), "--shards takes at least one count");
            }
            "--out-dir" => {
                args.out_dir = it
                    .next()
                    .map(std::path::PathBuf::from)
                    .expect("--out-dir DIR");
            }
            "--json" => args.json = true,
            "--explain" => args.explain = true,
            other if !other.starts_with('-') => args.what = other.to_string(),
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

fn rows_json(rows: &[ExperimentRow]) -> Json {
    Json::Arr(rows.iter().map(|r| r.to_json()).collect())
}

/// Run one experiment: print it, and return its machine-readable record(s)
/// for `BENCH_repro.json` (figure name → result rows).
fn run_one(args: &Args, what: &str) -> Vec<(String, Json)> {
    let selectivities = [0.01, 0.05, 0.10, 0.20, 0.30, 0.40];
    let emit = |title: &str, rows: &[ExperimentRow]| {
        if args.json {
            println!("{}", rows_json(rows).pretty());
        } else {
            println!("{}", render_figure(title, rows));
        }
    };
    match what {
        "table1" => {
            let rows = table1(args.scale, args.seed);
            let json = Json::Arr(rows.iter().map(|r| r.to_json()).collect());
            if args.json {
                println!("{}", json.pretty());
            } else {
                println!("== Table 1: expanded (context) conditions ==");
                println!("{}", render_table1(&rows));
            }
            vec![("table1".into(), json)]
        }
        "fig7a" => {
            let rows = fig7_selectivity("q1", args.scale, args.seed, &selectivities, args.threads);
            emit("Figure 7(a): q1 vs selectivity (reader rule, db-10)", &rows);
            vec![("fig7a".into(), rows_json(&rows))]
        }
        "fig7d" => {
            let rows = fig7_selectivity("q2", args.scale, args.seed, &selectivities, args.threads);
            emit("Figure 7(d): q2 vs selectivity (reader rule, db-10)", &rows);
            vec![("fig7d".into(), rows_json(&rows))]
        }
        "fig8" => {
            let rows = fig7_selectivity(
                "q2prime",
                args.scale,
                args.seed,
                &selectivities,
                args.threads,
            );
            emit(
                "Figure 8: q2' (uncorrelated predicate) vs selectivity",
                &rows,
            );
            vec![("fig8".into(), rows_json(&rows))]
        }
        "fig9ab" => {
            let a = fig9_rules("q1", args.scale, args.seed, args.threads);
            emit("Figure 9(a): q1 vs number of rules (10% sel, db-10)", &a);
            let b = fig9_rules("q2", args.scale, args.seed, args.threads);
            emit("Figure 9(b): q2 vs number of rules (10% sel, db-10)", &b);
            vec![
                ("fig9a".into(), rows_json(&a)),
                ("fig9b".into(), rows_json(&b)),
            ]
        }
        "fig9cd" => {
            let c = fig9_dirty("q1", args.scale, args.seed, args.threads);
            emit("Figure 9(c): q1 vs anomaly % (3 rules, 10% sel)", &c);
            let d = fig9_dirty("q2", args.scale, args.seed, args.threads);
            emit("Figure 9(d): q2 vs anomaly % (3 rules, 10% sel)", &d);
            vec![
                ("fig9c".into(), rows_json(&c)),
                ("fig9d".into(), rows_json(&d)),
            ]
        }
        "plans" => {
            let ps = plans(args.scale, args.seed);
            let mut arr = Vec::new();
            for (label, text) in &ps {
                println!("== {label} ==\n{text}");
                arr.push(
                    Json::obj()
                        .set("label", label.as_str())
                        .set("plan", text.as_str()),
                );
            }
            vec![("plans".into(), Json::Arr(arr))]
        }
        "ablations" => {
            let (shared, unshared) = ablation_order_sharing(args.scale, args.seed);
            println!("== Ablation: order sharing (q1_e) ==");
            println!(
                "with sharing   : {:>8.1}ms  sorts={} rows_sorted={}",
                shared.millis, shared.stats.sorts_performed, shared.stats.rows_sorted
            );
            println!(
                "without sharing: {:>8.1}ms  sorts={} rows_sorted={}",
                unshared.millis, unshared.stats.sorts_performed, unshared.stats.rows_sorted
            );
            let (improved, plain) = ablation_joinback(args.scale, args.seed);
            println!("== Ablation: improved vs plain join-back (q1_j) ==");
            println!(
                "improved (ec on outer arm): {:>8.1}ms  rows_sorted={} rows_scanned={}",
                improved.millis, improved.stats.rows_sorted, improved.stats.rows_scanned
            );
            println!(
                "plain (no ec on outer arm): {:>8.1}ms  rows_sorted={} rows_scanned={}",
                plain.millis, plain.stats.rows_sorted, plain.stats.rows_scanned
            );
            let json = Json::obj()
                .set("order_sharing_on", shared.to_json())
                .set("order_sharing_off", unshared.to_json())
                .set("joinback_improved", improved.to_json())
                .set("joinback_plain", plain.to_json());
            vec![("ablations".into(), json)]
        }
        "storage" => {
            let rows = storage_cache(args.scale, args.seed, args.threads);
            emit("Storage: zone-map pruning + cleansed-sequence cache", &rows);
            vec![("storage".into(), rows_json(&rows))]
        }
        "eager" => {
            let c = eager_vs_deferred(args.scale, args.seed);
            println!("== Eager vs deferred (q1, 3 rules, 10% sel) ==");
            println!(
                "eager: materialize {:.1}ms once ({} rows), then {:.1}ms per query",
                c.materialize_ms, c.eager_rows, c.eager_query_ms
            );
            println!(
                "deferred: {:.1}ms per query, nothing materialized",
                c.deferred_query_ms
            );
            let json = Json::obj()
                .set("materialize_ms", Json::Num(c.materialize_ms))
                .set("eager_rows", c.eager_rows)
                .set("eager_query_ms", Json::Num(c.eager_query_ms))
                .set("deferred_query_ms", Json::Num(c.deferred_query_ms));
            vec![("eager".into(), json)]
        }
        "sharded" => {
            let rows =
                dc_bench::service_bench::sharded_scatter(args.scale, args.seed, &args.shards);
            println!("== Sharded: scatter-gather coordinator work counters ==");
            for r in &rows {
                println!("{}", r.render());
            }
            let json = Json::Arr(rows.iter().map(|r| r.to_json()).collect());
            vec![("sharded".into(), json)]
        }
        "stream" => {
            let rows = dc_bench::stream_bench::stream_maintenance(args.scale, args.seed, 8);
            println!("== Stream: standing-query maintenance vs cold recompute ==");
            for r in &rows {
                println!("{}", r.render());
            }
            let json = Json::Arr(rows.iter().map(|r| r.to_json()).collect());
            vec![("stream".into(), json)]
        }
        "recovery" => {
            let scratch = args.out_dir.join("recovery-scratch");
            let rows = dc_bench::recovery_bench::recovery_figure(
                args.scale,
                args.seed,
                &[2, 4, 8],
                &scratch,
            );
            let _ = std::fs::remove_dir_all(&scratch);
            println!("== Recovery: durable log replay + time travel ==");
            for r in &rows {
                println!("{}", r.render());
            }
            let json = Json::Arr(rows.iter().map(|r| r.to_json()).collect());
            vec![("recovery".into(), json)]
        }
        "service" => {
            let rows = dc_bench::service_bench::service_throughput(
                args.scale.min(8),
                args.seed,
                &args.workers,
            );
            println!("== Service: concurrent snapshot queries + live ingest ==");
            for r in &rows {
                println!("{}", r.render());
            }
            let scaling = dc_bench::service_bench::shard_scaling(
                args.scale.min(8),
                args.seed,
                &args.shards,
                16,
            );
            println!("== Service: scatter-gather q/s vs shard count ==");
            for r in &scaling {
                println!("{}", r.render());
            }
            vec![
                (
                    "service".into(),
                    Json::Arr(rows.iter().map(|r| r.to_json()).collect()),
                ),
                (
                    "service_sharded".into(),
                    Json::Arr(scaling.iter().map(|r| r.to_json()).collect()),
                ),
            ]
        }
        other => panic!("unknown experiment '{other}'"),
    }
}

/// EXPLAIN ANALYZE mode: print the Figure-7 rewrite decisions and executed
/// plans, and write `EXPLAIN_repro.json`.
fn run_explain(args: &Args) {
    let reports = explains(args.scale, args.seed, args.threads);
    let mut arr = Vec::new();
    for (label, rep) in &reports {
        if args.json {
            println!("{}", rep.to_json().pretty());
        } else {
            println!("== EXPLAIN ANALYZE {label} ==\n{}", rep.text());
        }
        arr.push(
            Json::obj()
                .set("label", label.as_str())
                .set("report", rep.to_json()),
        );
    }
    let record = Json::obj()
        .set("scale", args.scale)
        .set("seed", args.seed)
        .set("parallelism", args.threads)
        .set("explains", Json::Arr(arr));
    write_record(args, "EXPLAIN_repro.json", &record);
}

/// Write one machine-readable record into `--out-dir` (created if absent).
fn write_record(args: &Args, name: &str, record: &Json) {
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("could not create {}: {e}", args.out_dir.display());
        return;
    }
    let path = args.out_dir.join(name);
    match std::fs::write(&path, record.pretty()) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn main() {
    let args = parse_args();
    if args.explain {
        run_explain(&args);
        return;
    }
    let whats: Vec<&str> = if args.what == "all" {
        vec![
            "table1",
            "plans",
            "fig7a",
            "fig7d",
            "fig8",
            "fig9ab",
            "fig9cd",
            "storage",
            "ablations",
            "eager",
            "sharded",
            "stream",
            "recovery",
        ]
    } else {
        vec![args.what.as_str()]
    };

    let mut figures = Vec::new();
    for what in whats {
        let start = Instant::now();
        let records = run_one(&args, what);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        for (name, rows) in records {
            figures.push(
                Json::obj()
                    .set("name", name)
                    .set("wall_clock_ms", Json::Num(wall_ms))
                    .set("rows", rows),
            );
        }
    }

    let record = Json::obj()
        .set("scale", args.scale)
        .set("seed", args.seed)
        .set("parallelism", args.threads)
        .set("figures", Json::Arr(figures));
    write_record(&args, "BENCH_repro.json", &record);
}
