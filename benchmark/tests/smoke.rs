//! Smoke test of the whole benchmark at toy size: every workload, untraced
//! and traced, at scale 2 with about 1 % of a real run's ops. It pins the
//! contract with `BENCHMARK.json` (every declared name is emitted exactly
//! once, finite, with its declared unit, and nothing fails) and the
//! repeatability of the exact counts.

use dc_benchmark::harness::{Limit, RunConfig, RunOutput};
use dc_benchmark::metrics::{END_TO_END, EXACT_COUNTS, PER_KIND, PER_LAYER, WORKLOADS};
use dc_benchmark::{run_workload, DEFAULT_SECONDS};
use dc_json::Json;
use std::path::PathBuf;

const SCALE: usize = 2;

/// Ops per run: enough to reach, on `service_mixed`, an untraced and a traced
/// append and a q2 and, on `ingest_durable`, four interleaved queries.
fn ops_of(workload: &str) -> u64 {
    match workload {
        "adhoc_cleanse" => 10,
        "analytic_scan" => 7,
        "service_mixed" => 256,
        "ingest_durable" => 33,
        other => panic!("no op count for {other}"),
    }
}

fn run(workload: &str, seed: u64, trace: bool) -> RunOutput {
    let cfg = RunConfig {
        workload: workload.to_string(),
        seed,
        limit: Limit::Ops(ops_of(workload)),
        trace,
        scale: Some(SCALE),
        out: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("smoke-{workload}-{seed}-{trace}")),
    };
    run_workload(&cfg).unwrap_or_else(|e| panic!("{workload}: {e}"))
}

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    dc_json::parse(&text).expect("BENCHMARK.json parses")
}

fn declared(list: &Json) -> Vec<(String, String)> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

/// Every name of `table` exactly once, in order, finite, with its unit —
/// and the contract line says the same.
fn assert_emits(out: &RunOutput, table: &[(&str, &str)]) {
    let emitted: Vec<(String, String)> = out
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(emitted, owned(table), "{}: names and units", out.workload);
    for m in &out.metrics {
        assert!(
            m.value.is_some_and(f64::is_finite),
            "{}: {} is not finite",
            out.workload,
            m.name
        );
    }
    assert_eq!(out.failed, 0, "{}: failed operations", out.workload);
    assert!(
        out.attempted >= 1 && out.checks >= 1,
        "{}: nothing checked",
        out.workload
    );

    let line = dc_json::parse(&out.contract_line()).expect("contract line is JSON");
    let Json::Obj(members) = &line else {
        panic!("contract line is not an object")
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    let Some(Json::Obj(metrics)) = line.get("metrics") else {
        panic!("contract line has no metrics object")
    };
    assert_eq!(metrics.len(), table.len());
}

#[test]
fn benchmark_json_declares_what_the_code_emits() {
    let json = benchmark_json();
    let workloads: Vec<String> = json
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, WORKLOADS);
    assert_eq!(
        declared(json.get("end_to_end").expect("end_to_end")),
        owned(&END_TO_END)
    );
    assert_eq!(
        declared(json.get("per_layer").expect("per_layer")),
        owned(&PER_LAYER)
    );
    assert_eq!(
        json.get("run_seconds").and_then(Json::as_f64),
        Some(DEFAULT_SECONDS)
    );
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|(n, _)| *n)
        .collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(
        names.len(),
        END_TO_END.len() + PER_LAYER.len(),
        "a name is used twice"
    );
    for exact in EXACT_COUNTS {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == exact),
            "{exact} is not declared"
        );
    }
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    for workload in WORKLOADS {
        let out = run(workload, 7, false);
        assert_emits(&out, &END_TO_END);
        for m in &out.metrics {
            assert!(
                m.value > Some(0.0),
                "{workload}: {} must never be 0",
                m.name
            );
        }
        assert_per_kind(&out);
    }
    // The durable directory's size is an exact count: the same after the
    // same ops.
    let disk = |out: &RunOutput| kind_value(out, "disk_bytes_per_row").expect("a size");
    assert_eq!(
        disk(&run("ingest_durable", 7, false)),
        disk(&run("ingest_durable", 7, false))
    );
}

fn kind_value(out: &RunOutput, name: &str) -> Option<f64> {
    out.per_kind.iter().find(|m| m.name == name)?.value
}

/// The per-kind figures are the declared ones, each at most once, and cover
/// exactly the operation kinds of a workload that mixes kinds.
fn assert_per_kind(out: &RunOutput) {
    let names: Vec<&str> = out.per_kind.iter().map(|m| m.name).collect();
    for (i, m) in out.per_kind.iter().enumerate() {
        let declared = PER_KIND.iter().find(|k| k.name == m.name);
        assert_eq!(
            declared.map(|k| k.unit),
            Some(m.unit),
            "{}: {}",
            out.workload,
            m.name
        );
        assert!(!names[..i].contains(&m.name), "{} twice", m.name);
        assert!(m.value.is_none_or(f64::is_finite), "{} not finite", m.name);
    }
    assert_eq!(kind_value(out, "failed_ops_pct"), Some(0.0));
    let has = |name: &str| kind_value(out, name).is_some_and(|v| v > 0.0);
    let service = matches!(out.workload.as_str(), "service_mixed" | "ingest_durable");
    let durable = out.workload == "ingest_durable";
    // One kind of op only: `op_*` are its figures, and none are repeated.
    assert_eq!(has("query_p50_ms") && has("queries_per_s"), service);
    assert_eq!(has("append_p50_ms") && has("append_rows_per_s"), service);
    assert_eq!(has("recover_s") && has("disk_bytes_per_row"), durable);
    // A p95 is listed with its kind, and has a value from 200 ops on.
    assert_eq!(names.contains(&"append_p95_ms"), service);
    for m in out.per_kind.iter().filter(|m| m.name.ends_with("_p95_ms")) {
        assert_eq!(m.value.is_some(), m.samples >= 200, "{}", m.name);
    }
}

#[test]
fn traced_runs_emit_every_layer_metric_and_repeat_their_counts() {
    let value = |out: &RunOutput, name: &str| out.metric(name).and_then(|m| m.value).expect(name);
    for workload in WORKLOADS {
        let first = run(workload, 7, true);
        assert_emits(&first, &PER_LAYER);
        assert_eq!(value(&first, "client.failed_ops_pct"), 0.0);
        assert!(
            value(&first, "trace.ops_traced") > 0.0,
            "{workload}: nothing traced"
        );
        assert!(
            value(&first, "trace.stage_coverage_pct") >= 90.0,
            "{workload}: stage spans cover {} % of the op spans",
            value(&first, "trace.stage_coverage_pct")
        );
        assert_layer_separation(&first);
        // Two clients interleave differently from run to run; the other
        // workloads replay one deterministic op stream.
        if workload == "service_mixed" {
            continue;
        }
        let again = run(workload, 7, true);
        for name in EXACT_COUNTS {
            assert_eq!(
                value(&first, name),
                value(&again, name),
                "{workload}: {name} differs between two runs of one seed"
            );
        }
    }
    // Another seed generates other data and other parameters.
    assert_ne!(
        value(&run("adhoc_cleanse", 7, true), "relational.rows_scanned"),
        value(&run("adhoc_cleanse", 8, true), "relational.rows_scanned"),
    );
}

/// Each workload leaves the layers it is meant to bypass at exactly zero.
fn assert_layer_separation(out: &RunOutput) {
    let value = |name: &str| out.metric(name).and_then(|m| m.value).expect(name);
    match out.workload.as_str() {
        // The direct workloads never touch the service, the log or the stream.
        "adhoc_cleanse" | "analytic_scan" => {
            for (name, _) in PER_LAYER {
                let layer = name.split('.').next().unwrap_or("");
                if ["service", "log", "stream", "core"].contains(&layer) {
                    assert_eq!(value(name), 0.0, "{}: {name}", out.workload);
                }
            }
            if out.workload == "analytic_scan" {
                assert_eq!(value("relational.window_self_ms"), 0.0);
                assert_eq!(value("relational.window_accumulator_ops"), 0.0);
            } else {
                assert!(value("relational.window_accumulator_ops") > 0.0);
            }
        }
        "service_mixed" => {
            for name in [
                "log.io_ticks",
                "log.fsync_us",
                "stream.delta_rows",
                "client.recover_s",
            ] {
                assert_eq!(value(name), 0.0, "service_mixed: {name}");
            }
            assert!(value("service.exec_us_p50") > 0.0 && value("service.publish_us") > 0.0);
        }
        "ingest_durable" => {
            for name in [
                "log.io_ticks",
                "log.fsync_us",
                "stream.delta_rows",
                "core.segment_encode_us",
                "client.recover_s",
            ] {
                assert!(value(name) > 0.0, "ingest_durable: {name} is 0");
            }
        }
        other => panic!("unknown workload {other}"),
    }
}
