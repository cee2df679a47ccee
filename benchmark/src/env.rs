//! What every workload is built from: a generated RFID database with the
//! paper's rule sets registered, seeded append batches, and a few process
//! and host probes.

use dc_core::DeferredCleansingSystem;
use dc_json::Json;
use dc_relational::batch::Batch;
use dc_relational::table::Catalog;
use dc_relational::value::Value;
use dc_rfidgen::{generate_into, Dataset, GenConfig};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Anomaly percentage of every generated database (the paper's db-10).
pub const ANOMALY_PCT: f64 = 10.0;

/// Cases on every pallet: the generator's mean (it draws 20–80). Fixing it
/// makes the database the same size under every seed — with a few dozen
/// pallets the draw alone moved the row count, and with it every latency,
/// by ±9 % between seeds. The seed still decides every read.
pub const CASES_PER_PALLET: usize = 50;

/// Application that has no cleansing rules registered.
pub const NO_RULES_APP: &str = "no-rules";

/// A generated database with the rule sets `rules-1` … `rules-5` defined.
pub struct BaseEnv {
    pub system: DeferredCleansingSystem,
    pub dataset: Dataset,
    /// Seconds spent in `dc_rfidgen::generate_into`.
    pub generate_s: f64,
}

/// Generate db-10 at `scale` from `seed` and register the benchmark rules.
pub fn build_base(scale: usize, seed: u64) -> BaseEnv {
    let catalog = Arc::new(Catalog::new());
    let cfg = GenConfig {
        scale,
        anomaly_pct: ANOMALY_PCT,
        seed,
        min_cases_per_pallet: CASES_PER_PALLET,
        max_cases_per_pallet: CASES_PER_PALLET,
        ..GenConfig::default()
    };
    let start = Instant::now();
    let dataset = generate_into(&catalog, cfg).expect("generation cannot fail");
    let generate_s = start.elapsed().as_secs_f64();
    dataset
        .materialize_missing_input(&catalog)
        .expect("missing-input materialization");
    let system = DeferredCleansingSystem::with_catalog(catalog);
    for n in 1..=5 {
        let app = format!("rules-{n}");
        for text in dataset.benchmark_rules(n) {
            system
                .define_rule(&app, &text)
                .unwrap_or_else(|e| panic!("defining rule for {app}: {e}"));
        }
    }
    BaseEnv {
        system,
        dataset,
        generate_s,
    }
}

/// An independent generator for `(seed, stream, index)`: every op draws its
/// parameters from its own generator, so op `i` is the same whatever ran
/// before it.
pub fn rng_for(seed: u64, stream: u64, index: u64) -> StdRng {
    let mut x = seed
        ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ index.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    x ^= x >> 29;
    StdRng::seed_from_u64(x.wrapping_mul(0xBF58_476D_1CE4_E5B9))
}

/// A uniform draw from `[0, 1)`.
pub fn unit_f64(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Zipf sampler over ranks `0..n` (rank 0 most popular), by inverting the
/// cumulative weights `1 / (rank + 1)^s`.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut total = 0.0;
        let cumulative = (0..n)
            .map(|r| {
                total += 1.0 / ((r + 1) as f64).powf(s);
                total
            })
            .collect();
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty Zipf");
        let u = unit_f64(rng) * total;
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

/// Source of suffix append batches: consecutive generated reads replayed
/// with `rtime` shifted past everything seen so far, so batch `k` extends a
/// handful of tag sequences and never rewrites history. Batch `k` is a pure
/// function of the base data, the seed and `k`.
pub struct SuffixBatches {
    data: Batch,
    rtime_idx: usize,
    horizon: i64,
    rows_per_batch: usize,
    offset: usize,
}

impl SuffixBatches {
    pub fn new(system: &DeferredCleansingSystem, rows_per_batch: usize, seed: u64) -> Self {
        let table = system.catalog().get("caser").expect("caser exists");
        let data = table.data().clone();
        let rtime_idx = data
            .schema()
            .index_of_name("rtime")
            .expect("reads table has rtime");
        let horizon = (0..data.num_rows())
            .filter_map(|i| data.column(rtime_idx).value(i).as_int())
            .max()
            .unwrap_or(0);
        let offset = rng_for(seed, 0xA99E, 0).gen_range(0..data.num_rows().max(1));
        SuffixBatches {
            data,
            rtime_idx,
            horizon,
            rows_per_batch,
            offset,
        }
    }

    pub fn batch(&self, k: usize) -> Batch {
        let n = self.data.num_rows();
        let rows: Vec<Vec<Value>> = (0..self.rows_per_batch)
            .map(|r| {
                let mut row = self
                    .data
                    .row((self.offset + k * self.rows_per_batch + r) % n);
                if let Value::Int(t) = row[self.rtime_idx] {
                    row[self.rtime_idx] = Value::Int(t + (k as i64 + 1) * (self.horizon + 1));
                }
                row
            })
            .collect();
        Batch::from_rows(self.data.schema().clone(), &rows).expect("suffix batch")
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total bytes of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// Where the numbers were taken: cores, CPU, kernel, compiler, commit.
pub fn host_fingerprint() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    Json::obj()
        .set(
            "nproc",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        )
        .set("cpu_model", cpu_model)
        .set("kernel", kernel)
        .set(
            "rustc",
            command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
        )
        .set(
            "git_commit",
            command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_generators_are_independent_and_repeatable() {
        let a: Vec<u64> = (0..4).map(|i| rng_for(7, 1, i).next_u64()).collect();
        let b: Vec<u64> = (0..4).map(|i| rng_for(7, 1, i).next_u64()).collect();
        assert_eq!(a, b);
        assert_ne!(rng_for(7, 1, 0).next_u64(), rng_for(8, 1, 0).next_u64());
        assert_ne!(rng_for(7, 1, 0).next_u64(), rng_for(7, 2, 0).next_u64());
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(256, 1.1);
        let mut rng = rng_for(1, 0, 0);
        let mut hits = [0usize; 256];
        for _ in 0..20_000 {
            hits[z.sample(&mut rng)] += 1;
        }
        assert!(hits[0] > hits[1] && hits[1] > hits[8] && hits[8] > hits[128]);
        // Rank 0 carries 1 / H(256, 1.1) of the mass, about 18 %.
        assert!((0.15..0.22).contains(&(hits[0] as f64 / 20_000.0)));
    }

    #[test]
    fn suffix_batches_extend_the_time_horizon() {
        let base = build_base(1, 3);
        let horizon = base.dataset.rtime_quantile(1.0);
        let batches = SuffixBatches::new(&base.system, 8, 3);
        let first = batches.batch(0);
        let second = batches.batch(1);
        assert_eq!(first.num_rows(), 8);
        let min_of = |b: &Batch| {
            (0..b.num_rows())
                .filter_map(|i| b.column(1).value(i).as_int())
                .min()
                .unwrap()
        };
        assert!(min_of(&first) > horizon);
        assert!(min_of(&second) > min_of(&first));
        assert_eq!(batches.batch(0).sorted_rows(), first.sorted_rows());
    }
}
