//! `dc-benchmark` command line.
//!
//! ```text
//! dc-benchmark run [--workload W] [--seed S] [--seconds T] [--trace [0|1]] [--out DIR]
//! dc-benchmark check A.json B.json [--bounds BENCHMARK.json]
//! ```
//!
//! `run --workload W` measures one workload in this process and prints, as
//! the last line of standard output, the JSON object the driver reads.
//! `run` without `--workload` runs all four, each in a fresh child process
//! (so set-up time and peak memory are per workload), and writes
//! `<out>/result.json` (`result-trace.json` with `--trace`).

use dc_benchmark::check::{bounds_of, compare};
use dc_benchmark::env::host_fingerprint;
use dc_benchmark::harness::{Limit, RunConfig};
use dc_benchmark::metrics::WORKLOADS;
use dc_benchmark::service::ingest::FSYNC_POLICY;
use dc_benchmark::{run_workload, DEFAULT_SECONDS, DEFAULT_SEED};
use dc_json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const DEFAULT_OUT: &str = "target/dc-benchmark";

fn usage() -> String {
    "usage: dc-benchmark run [--workload W] [--seed S] [--seconds T] [--trace [0|1]] [--out DIR]\n       \
     dc-benchmark check A.json B.json [--bounds BENCHMARK.json]"
        .to_string()
}

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: PathBuf::from(DEFAULT_OUT),
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        fn number<T: std::str::FromStr>(flag: &str, text: String) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{flag}: '{text}' is not a valid number"))
        }
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value("a workload name")?),
            "--seed" => parsed.seed = number(flag, value("a number")?)?,
            "--seconds" => {
                let s: f64 = number(flag, value("a number")?)?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {s}"));
                }
                parsed.seconds = s;
            }
            "--out" => parsed.out = PathBuf::from(value("a directory")?),
            "--trace" => {
                // Bare `--trace` means on; the driver passes 0 or 1.
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument '{other}'\n{}", usage())),
        }
    }
    Ok(parsed)
}

fn run_one(args: &RunArgs, workload: &str) -> Result<ExitCode, String> {
    let cfg = RunConfig {
        workload: workload.to_string(),
        seed: args.seed,
        limit: Limit::Seconds(args.seconds),
        trace: args.trace,
        scale: None,
        out: args.out.clone(),
    };
    let output = run_workload(&cfg)?;
    let path = detail_path(&args.out, workload, args.trace);
    std::fs::write(&path, output.to_json().pretty())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    print!("{}", output.render());
    println!("{}", output.contract_line());
    Ok(ExitCode::SUCCESS)
}

fn detail_path(out: &Path, workload: &str, trace: bool) -> PathBuf {
    let suffix = if trace { "-trace" } else { "" };
    out.join(format!("run-{workload}{suffix}.json"))
}

/// Run every workload in a child process each and gather `result.json`.
fn run_all(args: &RunArgs) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("creating {}: {e}", args.out.display()))?;
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for workload in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.arg("run")
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&args.out);
        // `output` waits for the child; its stderr passes through.
        let child = cmd
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("starting the {workload} run: {e}"))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        // Everything but the contract line is the human-readable table.
        let table: Vec<&str> = stdout.lines().collect();
        for line in &table[..table.len().saturating_sub(1)] {
            println!("{line}");
        }
        if !child.status.success() {
            return Err(format!("the {workload} run exited with {}", child.status));
        }
        let path = detail_path(&args.out, workload, args.trace);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let detail = dc_json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        all_correct &= detail.get("correct") == Some(&Json::Bool(true));
        workloads.push(detail);
    }
    let header = host_fingerprint()
        .set("seed", args.seed)
        .set("seconds_per_workload", Json::Num(args.seconds))
        .set("fsync_policy", FSYNC_POLICY);
    let result = Json::obj()
        .set("header", header)
        .set("trace", args.trace)
        .set("workloads", Json::Arr(workloads));
    let name = if args.trace {
        "result-trace.json"
    } else {
        "result.json"
    };
    let path = args.out.join(name);
    std::fs::write(&path, result.pretty())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    dc_json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn check(args: &[String]) -> Result<ExitCode, String> {
    let mut files = Vec::new();
    let mut bounds_path = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--bounds" {
            bounds_path = it.next().cloned().ok_or("--bounds needs a file")?;
        } else {
            files.push(arg.clone());
        }
    }
    let [a, b] = files.as_slice() else {
        return Err(usage());
    };
    let bounds = bounds_of(&load(&bounds_path)?)?;
    let comparison = compare(&load(a)?, &load(b)?, &bounds)?;
    print!("{}", comparison.render());
    Ok(if comparison.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => {
            parse_run_args(rest).and_then(|a| match a.workload.as_deref() {
                Some(workload) => run_one(&a, workload),
                None => run_all(&a),
            })
        }
        Some((cmd, rest)) if cmd == "check" => check(rest),
        _ => Err(usage()),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("dc-benchmark: {message}");
        ExitCode::from(2)
    })
}
