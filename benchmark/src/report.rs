//! Turning a run's samples and accumulators into the named metrics.

use crate::env::peak_rss_mb;
use crate::harness::{
    histogram_json, latencies, slice_spreads, Kind, Latencies, Metric, RunConfig, RunOutput, Sample,
};
use crate::layers::LayerAcc;
use crate::metrics::{END_TO_END, PER_KIND, PER_LAYER};
use crate::span::{self, Tracer};
use crate::stats;
use dc_json::Json;

/// What a workload hands over once its timed section and checks are done.
pub struct Finished {
    pub samples: Vec<Sample>,
    /// Length of the timed section in seconds.
    pub wall_s: f64,
    pub clients: usize,
    /// Seconds each set-up repetition took.
    pub setup_s: Vec<f64>,
    pub checks: u64,
    pub check_failures: u64,
    /// Seconds from `QueryService::recover` to the first reply, per attempt.
    pub recover_s: Vec<f64>,
    pub acc: LayerAcc,
    pub tracer: Option<Tracer>,
    /// Workload facts for the result file (sizes, policies).
    pub facts: Json,
}

fn kind_json(l: &Latencies) -> Json {
    Json::obj()
        .set("count", l.count)
        .set("p50_ms", Json::Num(l.p50_ms))
        .set("tail_ms", Json::Num(l.tail_ms))
        .set("tail_percentile", Json::Num(l.tail_percentile))
        .set("per_s", Json::Num(l.per_s))
        .set("histogram", histogram_json(&l.histogram))
}

/// Busy seconds of a group of closed-loop samples: with `clients` clients
/// each waiting for its own reply, the group occupied this much wall clock.
fn busy_s(samples: &[&Sample], clients: usize) -> f64 {
    let ns: u64 = samples.iter().map(|s| s.latency_ns).sum();
    (ns as f64 / 1e9 / clients.max(1) as f64).max(1e-9)
}

/// A per-kind p95: listed without a value when fewer than 200 operations
/// support it, so `check` can tell "too few samples" from "kind absent".
fn p95_metric(name: &'static str, l: &Latencies, spread: Option<f64>) -> Metric {
    let mut m = Metric::new(name, "ms", 0.0).sampled(l.count, spread);
    m.value = l.p95_ms();
    m.percentile = Some(95.0);
    m
}

pub fn assemble(cfg: &RunConfig, fin: Finished) -> RunOutput {
    let Finished {
        samples,
        wall_s,
        clients,
        setup_s,
        checks,
        check_failures,
        recover_s,
        acc,
        tracer,
        facts,
    } = fin;
    let op_failures = samples.iter().filter(|s| !s.ok).count() as u64;
    let attempted = samples.len() as u64 + checks;
    let failed = op_failures + check_failures;

    let untraced: Vec<&Sample> = samples.iter().filter(|s| !s.traced).collect();
    let of_kind = |kind: Kind| -> Vec<&Sample> {
        untraced
            .iter()
            .copied()
            .filter(|s| s.kind == kind)
            .collect()
    };
    // In a traced run the untraced blocks cover only part of the wall clock;
    // rates are taken over the time those blocks were busy instead.
    let span_s = if cfg.trace {
        busy_s(&untraced, clients)
    } else {
        wall_s
    };
    let queries = of_kind(Kind::Query);
    let appends = of_kind(Kind::Append);
    let all = latencies(untraced.iter().copied(), span_s);
    let query = latencies(queries.iter().copied(), span_s);
    let append = latencies(appends.iter().copied(), span_s);
    let recover_sorted = stats::sorted(&recover_s);
    let recover = stats::median(&recover_sorted);
    let failed_pct = 100.0 * failed as f64 / attempted.max(1) as f64;
    let rss = peak_rss_mb();

    let mut detail = Json::obj()
        .set("wall_s", Json::Num(wall_s))
        .set("clients", clients)
        .set(
            "setup_s_each",
            Json::Arr(setup_s.iter().map(|&s| Json::Num(s)).collect()),
        )
        .set(
            "recover_s_each",
            Json::Arr(recover_s.iter().map(|&s| Json::Num(s)).collect()),
        )
        .set("ops", kind_json(&all))
        .set("queries", kind_json(&query))
        .set("appends", kind_json(&append))
        .set("facts", facts);

    let mut metrics = Vec::new();
    let mut per_kind = Vec::new();
    if !cfg.trace {
        let wall_ns = (wall_s * 1e9) as u64;
        let spreads = slice_spreads(samples.iter(), wall_ns);
        let setup_sorted = stats::sorted(&setup_s);
        let mut tail = Metric::new("op_p95_ms", "ms", all.tail_ms).sampled(all.count, spreads.tail);
        tail.percentile = Some(all.tail_percentile);
        let values = [
            Metric::new("setup_s", "s", stats::median(&setup_sorted).unwrap_or(0.0))
                .sampled(setup_s.len(), stats::iqr_over_median(&setup_s)),
            Metric::new("op_p50_ms", "ms", all.p50_ms).sampled(all.count, spreads.p50),
            tail,
            Metric::new("ops_per_s", "1/s", all.per_s).sampled(all.count, spreads.per_s),
            Metric::new("peak_rss_mb", "MiB", rss).sampled(1, None),
        ];
        assert!(
            values
                .iter()
                .map(|m| (m.name, m.unit))
                .eq(END_TO_END.iter().copied()),
            "end-to-end metrics differ from metrics.rs"
        );
        metrics.extend(values);

        // Where a workload issues one kind of op only, `op_*` above are that
        // kind's figures already.
        if query.count > 0 && append.count > 0 {
            let s = slice_spreads(queries.iter().copied(), wall_ns);
            per_kind.extend([
                Metric::new("query_p50_ms", "ms", query.p50_ms).sampled(query.count, s.p50),
                p95_metric("query_p95_ms", &query, s.tail),
                Metric::new("queries_per_s", "1/s", query.per_s).sampled(query.count, s.per_s),
            ]);
            let s = slice_spreads(appends.iter().copied(), wall_ns);
            per_kind.extend([
                Metric::new("append_p50_ms", "ms", append.p50_ms).sampled(append.count, s.p50),
                p95_metric("append_p95_ms", &append, s.tail),
                Metric::new("append_rows_per_s", "rows/s", append.rows_per_s)
                    .sampled(append.count, s.rows_per_s),
            ]);
        }
        if let Some(recover) = recover {
            per_kind.push(
                Metric::new("recover_s", "s", recover)
                    .sampled(recover_s.len(), stats::iqr_over_median(&recover_s)),
            );
            per_kind.push(Metric::new(
                "disk_bytes_per_row",
                "B/row",
                acc.disk_bytes_per_row,
            ));
        }
        per_kind.push(Metric::new("failed_ops_pct", "%", failed_pct));
        for m in &per_kind {
            assert!(
                PER_KIND
                    .iter()
                    .any(|k| (k.name, k.unit) == (m.name, m.unit)),
                "{} is not a declared per-kind metric",
                m.name
            );
        }
    } else {
        let traced_of = |kind: Kind| -> Vec<f64> {
            samples
                .iter()
                .filter(|s| s.traced && s.kind == kind)
                .map(|s| s.latency_ns as f64 / 1e6)
                .collect()
        };
        let traced_q = stats::sorted(&traced_of(Kind::Query));
        let traced_a = stats::sorted(&traced_of(Kind::Append));
        let traced_query_ms = stats::median(&traced_q).unwrap_or(0.0);
        let traced_append_ms = stats::median(&traced_a).unwrap_or(0.0);
        // Overhead on the workload's dominant op kind.
        let (traced_ms, plain_ms) = if appends.len() > queries.len() {
            (traced_append_ms, append.p50_ms)
        } else {
            (traced_query_ms, query.p50_ms)
        };
        let overhead_pct = if plain_ms > 0.0 && traced_ms > 0.0 {
            100.0 * (traced_ms / plain_ms - 1.0)
        } else {
            0.0
        };
        let spans = tracer.as_ref().map_or(0, |t| t.spans().len());
        let mut values = acc.finish();
        values.extend([
            ("client.query_p50_ms", query.p50_ms),
            ("client.query_p95_ms", query.tail_ms),
            ("client.queries_per_s", query.per_s),
            ("client.append_p50_ms", append.p50_ms),
            ("client.append_p95_ms", append.tail_ms),
            ("client.append_rows_per_s", append.rows_per_s),
            ("client.recover_s", recover.unwrap_or(0.0)),
            ("client.failed_ops_pct", failed_pct),
            ("client.op_p50_ms", all.p50_ms),
            ("client.op_p95_ms", all.tail_ms),
            ("client.ops_per_s", all.per_s),
            ("client.peak_rss_mb", rss),
            ("trace.traced_query_ms", traced_query_ms),
            ("trace.traced_append_ms", traced_append_ms),
            ("trace_overhead_pct", overhead_pct),
            (
                "trace.ops_traced",
                samples.iter().filter(|s| s.traced).count() as f64,
            ),
            ("trace.spans", spans as f64),
        ]);
        // Emit in the declared order, so a name missing on either side is
        // caught here and not by the driver.
        for (name, unit) in PER_LAYER {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("per-layer metric {name} was not computed"))
                .1;
            metrics.push(Metric::new(name, unit, value));
        }
        assert_eq!(values.len(), PER_LAYER.len(), "undeclared per-layer metric");
        if let Some(t) = &tracer {
            if let Err(e) = span::self_times(t.spans()) {
                panic!("recorded spans are malformed: {e}");
            }
            let path = cfg.out.join(format!("trace-{}.json", cfg.workload));
            std::fs::write(&path, span::to_json(t.spans(), TRACE_FILE_SPANS).compact())
                .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
            detail = detail.set("trace_file", path.display().to_string());
        }
    }

    RunOutput {
        workload: cfg.workload.clone(),
        seed: cfg.seed,
        trace: cfg.trace,
        attempted,
        failed,
        checks,
        check_failures,
        metrics,
        per_kind,
        detail,
    }
}

/// Spans kept in a trace file; the rest are counted, not written.
const TRACE_FILE_SPANS: usize = 50_000;
