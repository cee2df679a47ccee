//! Shared run machinery: the closed-loop driver, per-op samples, and the
//! summary statistics every workload reports from them.

use crate::stats::{self, Histogram};
use dc_json::Json;
use std::path::PathBuf;
use std::time::Instant;

/// How long the timed section runs: wall-clock seconds (what the driver
/// passes) or an exact op count (tests — everything becomes deterministic).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Limit {
    Seconds(f64),
    Ops(u64),
}

impl std::fmt::Display for Limit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Limit::Seconds(s) => write!(f, "{s} s"),
            Limit::Ops(n) => write!(f, "{n} ops"),
        }
    }
}

/// One invocation: a single workload, traced or not.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub limit: Limit,
    pub trace: bool,
    /// Overrides the workload's frozen scale (tests only).
    pub scale: Option<usize>,
    /// Result files and scratch directories go here.
    pub out: PathBuf,
}

/// Times the whole set-up is repeated in an untraced run; `setup_s` is the
/// median, and the last repetition's environment is the one measured.
pub const SETUP_REPS: usize = 3;

/// Build the workload's environment [`SETUP_REPS`] times (once in a traced
/// run, which does not report `setup_s`), dropping each before the next is
/// built. Returns the last environment and the seconds every build took.
pub fn repeat_set_up<E>(trace: bool, mut build: impl FnMut() -> E) -> (E, Vec<f64>) {
    let mut seconds = Vec::new();
    let mut env = None;
    for _ in 0..if trace { 1 } else { SETUP_REPS } {
        drop(env.take());
        let start = Instant::now();
        env = Some(build());
        seconds.push(start.elapsed().as_secs_f64());
    }
    (env.expect("at least one set-up"), seconds)
}

/// Slices of the timed section the within-run spread is taken over.
pub const SPREAD_SLICES: usize = 5;

/// Whether op `i` of a traced run is executed stage by stage under spans.
/// Blocks of `block` ops alternate untraced / traced, so both halves see the
/// same drift (tables grow as appends land) and the same op mix, and their
/// medians are comparable. The block length must not share a period with
/// the workload's op pattern, or one half would get all ops of one kind.
pub fn is_traced(trace: bool, i: u64, block: u64) -> bool {
    trace && (i / block) % 2 == 1
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Query,
    Append,
}

/// One completed client operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub kind: Kind,
    /// Start, in nanoseconds since the timed section began.
    pub start_ns: u64,
    pub latency_ns: u64,
    pub traced: bool,
    /// False on an error, a refusal, an abort or a wrong answer.
    pub ok: bool,
    /// Rows the op appended (0 for queries).
    pub rows: u64,
}

/// Drive one closed-loop client: issue op `first_op`, wait for it, issue the
/// next, until `limit` is reached. `op` receives the op index and the start
/// offset and returns the finished sample.
pub fn closed_loop(
    epoch: Instant,
    limit: Limit,
    first_op: u64,
    mut op: impl FnMut(u64, u64) -> Sample,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    let mut i = first_op;
    loop {
        let now = epoch.elapsed();
        let done = match limit {
            Limit::Seconds(s) => now.as_secs_f64() >= s,
            Limit::Ops(n) => i - first_op >= n,
        };
        if done {
            return samples;
        }
        samples.push(op(i, now.as_nanos() as u64));
        i += 1;
    }
}

/// Client-side figures of one group of samples (all ops, or one kind).
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    pub count: usize,
    pub p50_ms: f64,
    /// p95, or — when fewer than 200 samples support it — the highest
    /// supported percentile (named in `tail_percentile`), or the maximum.
    pub tail_ms: f64,
    pub tail_percentile: f64,
    pub per_s: f64,
    /// Rows appended per second (0 for queries).
    pub rows_per_s: f64,
    pub histogram: Histogram,
}

impl Latencies {
    /// The tail only where it really is the 95th percentile.
    pub fn p95_ms(&self) -> Option<f64> {
        (self.tail_percentile == 95.0).then_some(self.tail_ms)
    }
}

const TAIL_CANDIDATES: [f64; 4] = [50.0, 75.0, 90.0, 95.0];

/// Summarize `samples` (any order) over a timed section of `wall_s` seconds.
pub fn latencies<'a>(samples: impl Iterator<Item = &'a Sample>, wall_s: f64) -> Latencies {
    let mut histogram = Histogram::default();
    let mut rows = 0;
    let ms: Vec<f64> = samples
        .map(|s| {
            histogram.record_us(s.latency_ns / 1_000);
            rows += s.rows;
            s.latency_ns as f64 / 1e6
        })
        .collect();
    let sorted = stats::sorted(&ms);
    let Some(&max) = sorted.last() else {
        return Latencies::default();
    };
    let (tail_percentile, tail_ms) =
        stats::highest_supported(&sorted, &TAIL_CANDIDATES).unwrap_or((100.0, max));
    Latencies {
        count: sorted.len(),
        p50_ms: stats::median(&sorted).unwrap_or(max),
        tail_ms,
        tail_percentile,
        per_s: sorted.len() as f64 / wall_s,
        rows_per_s: rows as f64 / wall_s,
        histogram,
    }
}

/// Consecutive, equally long stretches of the timed section that are dealt
/// into the [`SPREAD_SLICES`] slices.
const SPREAD_BLOCKS: usize = 4 * SPREAD_SLICES;

/// Slice that time block `block` belongs to: blocks are dealt forth and back
/// (0 1 2 3 4 4 3 2 1 0 0 1 …), so every slice holds four stretches of the
/// run whose mean position is the middle of the run.
fn slice_of(block: usize) -> usize {
    let (round, at) = (block / SPREAD_SLICES, block % SPREAD_SLICES);
    if round % 2 == 0 {
        at
    } else {
        SPREAD_SLICES - 1 - at
    }
}

/// Within-run spread of one group's figures.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Spreads {
    pub p50: Option<f64>,
    pub tail: Option<f64>,
    pub per_s: Option<f64>,
    pub rows_per_s: Option<f64>,
}

/// Within-run spread of the client figures of `samples`: the timed section
/// (`wall_ns` long) is cut into 20 consecutive stretches that are dealt forth
/// and back into [`SPREAD_SLICES`] slices, each figure is recomputed per
/// slice, and the spread is the inter-quartile range over the median of
/// those. A slice is made of whole stretches of time, so interference that
/// lasts a second or more lands in some slices and not in others and shows.
/// Five consecutive slices would show it too, but also the climb of latency
/// on the workloads whose tables grow (it put every cell of the two service
/// workloads at a spread of 30-45 %), which every run shares and which says
/// nothing about how far two runs differ; dealing forth and back gives every
/// slice the same share of early and late stretches. All `None` below two ops
/// per slice.
pub fn slice_spreads<'a>(samples: impl Iterator<Item = &'a Sample>, wall_ns: u64) -> Spreads {
    let mut slices: Vec<Vec<&Sample>> = vec![Vec::new(); SPREAD_SLICES];
    for s in samples {
        let block = (s.start_ns as u128 * SPREAD_BLOCKS as u128 / wall_ns.max(1) as u128) as usize;
        slices[slice_of(block.min(SPREAD_BLOCKS - 1))].push(s);
    }
    if slices.iter().any(|slice| slice.len() < 2) {
        return Spreads::default();
    }
    let slice_s = wall_ns as f64 / 1e9 / SPREAD_SLICES as f64;
    let per: Vec<Latencies> = slices
        .into_iter()
        .map(|slice| latencies(slice.into_iter(), slice_s))
        .collect();
    let spread =
        |f: fn(&Latencies) -> f64| stats::iqr_over_median(&per.iter().map(f).collect::<Vec<_>>());
    Spreads {
        p50: spread(|l| l.p50_ms),
        tail: spread(|l| l.tail_ms),
        per_s: spread(|l| l.per_s),
        rows_per_s: spread(|l| l.rows_per_s),
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `None`: the run had too few samples for this figure (a p95 of fewer
    /// than 200 operations).
    pub value: Option<f64>,
    /// Samples behind the value (0 where the notion does not apply).
    pub samples: usize,
    /// Within-run spread (IQR over median), when one was computed.
    pub spread: Option<f64>,
    /// For a tail latency, the percentile the value really is: 95 unless the
    /// run was too short to support it.
    pub percentile: Option<f64>,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric {
            name,
            unit,
            value: Some(value),
            samples: 0,
            spread: None,
            percentile: None,
        }
    }

    pub fn sampled(mut self, samples: usize, spread: Option<f64>) -> Self {
        self.samples = samples;
        self.spread = spread;
        self
    }

    fn to_json(&self) -> Json {
        Json::obj()
            .set("name", self.name)
            .set("unit", self.unit)
            .set("value", self.value.map(Json::Num))
            .set("samples", self.samples)
            .set("spread", self.spread.map(Json::Num))
            .set("percentile", self.percentile.map(Json::Num))
    }
}

/// Everything one invocation produced.
#[derive(Debug, Clone)]
pub struct RunOutput {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness comparisons made / failed (a failure is also in `failed`).
    pub checks: u64,
    pub check_failures: u64,
    /// What the contract line carries: every end-to-end metric of
    /// `BENCHMARK.json` (untraced) or every per-layer metric (traced).
    pub metrics: Vec<Metric>,
    /// Untraced runs only: the bounded figures of each operation kind the
    /// workload has ([`crate::metrics::PER_KIND`]), which `check` compares
    /// too. The driver's contract has no place for a metric that only some
    /// workloads report, so these stay out of the contract line.
    pub per_kind: Vec<Metric>,
    /// Free-form facts for the result file: sizes, policies, per-kind
    /// figures, histograms.
    pub detail: Json,
}

impl RunOutput {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The one-line JSON object the driver reads from the last stdout line.
    pub fn contract_line(&self) -> String {
        let mut metrics = Json::obj();
        for m in &self.metrics {
            let value = m.value.expect("a contract metric always has a value");
            metrics = metrics.set(
                m.name,
                Json::obj()
                    .set("value", Json::Num(value))
                    .set("unit", m.unit),
            );
        }
        Json::obj()
            .set("correct", self.correct())
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("metrics", metrics)
            .compact()
    }

    /// Full record for `result.json`.
    pub fn to_json(&self) -> Json {
        let list = |metrics: &[Metric]| Json::Arr(metrics.iter().map(Metric::to_json).collect());
        Json::obj()
            .set("workload", self.workload.as_str())
            .set("seed", self.seed)
            .set("trace", self.trace)
            .set("correct", self.correct())
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("checks", self.checks)
            .set("check_failures", self.check_failures)
            .set("metrics", list(&self.metrics))
            .set("per_kind", list(&self.per_kind))
            .set("detail", self.detail.clone())
    }

    /// Human-readable table: every metric by name with unit, sample count
    /// and spread.
    pub fn render(&self) -> String {
        let mut out = format!(
            "workload {} (seed {}, {}): {} ops attempted, {} failed, {} checks ({} wrong)\n",
            self.workload,
            self.seed,
            if self.trace { "traced" } else { "untraced" },
            self.attempted,
            self.failed,
            self.checks,
            self.check_failures,
        );
        for m in self.metrics.iter().chain(&self.per_kind) {
            let spread = m
                .spread
                .map_or_else(|| "-".to_string(), |s| format!("{:.1}%", s * 100.0));
            let samples = match m.samples {
                0 => "-".to_string(),
                n => n.to_string(),
            };
            let value = m
                .value
                .map_or_else(|| "too few".to_string(), |v| format!("{v:.4}"));
            let percentile = match m.percentile {
                Some(p) if p != 95.0 => format!(" (p{p})"),
                _ => String::new(),
            };
            out.push_str(&format!(
                "  {:<40} {:>14} {:<7} n={:<7} spread={}{}\n",
                m.name, value, m.unit, samples, spread, percentile
            ));
        }
        out
    }
}

pub fn histogram_json(h: &Histogram) -> Json {
    Json::Arr(
        h.buckets()
            .into_iter()
            .map(|(bound, count)| Json::obj().set("below_us", bound).set("count", count))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(start_ms: u64, latency_us: u64) -> Sample {
        Sample {
            kind: Kind::Query,
            start_ns: start_ms * 1_000_000,
            latency_ns: latency_us * 1_000,
            traced: false,
            ok: true,
            rows: 0,
        }
    }

    #[test]
    fn closed_loop_honours_an_op_limit() {
        let mut seen = Vec::new();
        let samples = closed_loop(Instant::now(), Limit::Ops(3), 10, |i, start| {
            seen.push(i);
            sample(start / 1_000_000, 5)
        });
        assert_eq!(seen, vec![10, 11, 12]);
        assert_eq!(samples.len(), 3);
    }

    #[test]
    fn traced_blocks_alternate() {
        assert!(!is_traced(true, 0, 16));
        assert!(!is_traced(true, 15, 16));
        assert!(is_traced(true, 16, 16));
        assert!(!is_traced(true, 32, 16));
        assert!(!is_traced(false, 16, 16));
        assert!(is_traced(true, 1, 1) && !is_traced(true, 2, 1));
    }

    #[test]
    fn tail_degrades_with_few_samples() {
        let few: Vec<Sample> = (0..30).map(|i| sample(i, 100 + i)).collect();
        let l = latencies(few.iter(), 1.0);
        assert_eq!(l.count, 30);
        assert_eq!((l.tail_percentile, l.p95_ms()), (50.0, None));
        let many: Vec<Sample> = (0..400).map(|i| sample(i, 100 + i)).collect();
        let l = latencies(many.iter(), 2.0);
        assert_eq!(l.tail_percentile, 95.0);
        assert!((l.tail_ms - 0.479).abs() < 1e-9 && l.p95_ms() == Some(l.tail_ms));
        assert!((l.per_s - 200.0).abs() < 1e-9);
    }

    #[test]
    fn blocks_are_dealt_forth_and_back() {
        let dealt: Vec<usize> = (0..SPREAD_BLOCKS).map(slice_of).collect();
        assert_eq!(&dealt[..10], [0, 1, 2, 3, 4, 4, 3, 2, 1, 0]);
        // Every slice's blocks are centred on the middle of the run.
        for slice in 0..SPREAD_SLICES {
            let positions: usize = (0..SPREAD_BLOCKS).filter(|&b| slice_of(b) == slice).sum();
            assert_eq!(positions, 4 * (SPREAD_BLOCKS - 1) / 2);
        }
    }

    #[test]
    fn spreads_ignore_a_climb_but_see_a_slow_stretch() {
        // 1000 ops, one per millisecond; latency climbs by a third through
        // the run. Every slice sees the same climb: the medians agree; the
        // tails sit in each slice's last stretch, a twentieth of the run
        // apart.
        let wall_ns = 1_000 * 1_000_000;
        let climbing: Vec<Sample> = (0..1000).map(|i| sample(i, 3000 + i)).collect();
        let s = slice_spreads(climbing.iter(), wall_ns);
        assert!(s.p50.unwrap() < 0.01 && s.tail.unwrap() < 0.05, "{s:?}");
        assert_eq!(s.per_s, Some(0.0));
        // A tenth of the run is three times slower: two of the five slices
        // hold it, and the spread shows it.
        let disturbed: Vec<Sample> = (0..1000)
            .map(|i| sample(i, if (300..400).contains(&i) { 300 } else { 100 }))
            .collect();
        assert!(slice_spreads(disturbed.iter(), wall_ns).tail.unwrap() > 0.5);
        let few: Vec<Sample> = (0..9).map(|i| sample(i, 100)).collect();
        assert_eq!(slice_spreads(few.iter(), 9_000_000), Spreads::default());
    }
}
