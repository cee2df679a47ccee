//! # dc-benchmark — the repo benchmark
//!
//! One command measures the deferred-cleansing system end to end on four
//! named workloads and, in a separate traced pass, layer by layer. See
//! `benchmark/README.md` for the workloads, the metrics and how to read
//! them; `BENCHMARK.json` at the repo root is the contract with the driver.
//!
//! The package is standalone (own `[workspace]`, own lock file): nothing in
//! the repo depends on it and it changes nothing outside its directory.

pub mod check;
pub mod direct;
pub mod env;
pub mod harness;
pub mod layers;
pub mod metrics;
pub mod report;
pub mod service;
pub mod span;
pub mod stats;

use harness::{RunConfig, RunOutput};
use std::path::PathBuf;

/// Seconds one run measures when `--seconds` is not given; `BENCHMARK.json`
/// states the same number as `run_seconds`.
pub const DEFAULT_SECONDS: f64 = 20.0;

/// Seed used when `--seed` is not given (the paper's year).
pub const DEFAULT_SEED: u64 = 2006;

/// Scratch directory of one invocation, removed when the run ends — also on
/// a panic, so a failed run leaves the working tree clean.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run one workload as configured and return everything it measured.
pub fn run_workload(cfg: &RunConfig) -> Result<RunOutput, String> {
    std::fs::create_dir_all(&cfg.out)
        .map_err(|e| format!("creating {}: {e}", cfg.out.display()))?;
    let scratch = Scratch(cfg.out.join(format!("scratch-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0)
        .map_err(|e| format!("creating {}: {e}", scratch.0.display()))?;
    let finished = match cfg.workload.as_str() {
        "adhoc_cleanse" => direct::run(cfg, direct::Direct::AdhocCleanse),
        "analytic_scan" => direct::run(cfg, direct::Direct::AnalyticScan),
        "service_mixed" => service::mixed::run(cfg),
        "ingest_durable" => service::ingest::run(cfg, &scratch.0),
        other => {
            return Err(format!(
                "unknown workload '{other}' (known: {})",
                metrics::WORKLOADS.join(", ")
            ))
        }
    };
    Ok(report::assemble(cfg, finished))
}
