//! `dc-benchmark check a.json b.json`: compare two result files metric by
//! metric against the regression bounds fixed in `BENCHMARK.json`.
//!
//! Compared are the end-to-end metrics `BENCHMARK.json` bounds, which every
//! workload reports, and the per-kind figures ([`PER_KIND`]: query and append
//! latency and rate, `recover_s`, `disk_bytes_per_row`, `failed_ops_pct`)
//! wherever the workload has the kind. Each cell gets one verdict, `a` being
//! the baseline and `b` the candidate:
//!
//! * `unresolved` — the within-run spread of either side is wider than the
//!   bound, so a difference of that size cannot be told from noise, or one
//!   side had too few operations for the percentile;
//! * `worse` / `better` — `b` moved past the bound in that direction;
//! * `same` — anything else.
//!
//! The comparison fails on any `worse` cell, which includes a higher
//! `failed_ops_pct`. A figure that is missing, not a finite number, or a
//! different percentile on the two sides is an error, never a pass.

use crate::metrics::PER_KIND;
use dc_json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Bound and direction of one end-to-end metric, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// One compared cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// Relative change of `b` against `a`; positive is worse.
    pub worsening: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Verdict for one cell. `spread` is the wider of the two within-run spreads
/// (`None` when neither side reported one).
pub fn judge(a: f64, b: f64, spread: Option<f64>, bound: &Bound) -> (f64, Verdict) {
    // From a baseline of 0 (failed operations, say) any move is unbounded.
    let change = if a == b {
        0.0
    } else if a == 0.0 {
        f64::INFINITY.copysign(b)
    } else {
        (b - a) / a.abs()
    };
    let worsening = if bound.lower_is_better {
        change
    } else {
        -change
    };
    let verdict = if spread.is_some_and(|s| s > bound.bound) {
        Verdict::Unresolved
    } else if worsening > bound.bound {
        Verdict::Worse
    } else if worsening < -bound.bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (worsening, verdict)
}

/// The `end_to_end` bounds of a parsed `BENCHMARK.json`.
pub fn bounds_of(benchmark: &Json) -> Result<Vec<Bound>, String> {
    let list = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .ok_or("metric without a direction")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without a bound")?;
            Ok(Bound {
                name: name.to_string(),
                lower_is_better: better == "lower",
                bound,
            })
        })
        .collect()
}

fn workloads_of(result: &Json) -> Result<&[Json], String> {
    result
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or_else(|| "result file has no workloads list".to_string())
}

/// The entry of metric `name` in a workload record's `list` (`metrics` or
/// `per_kind`).
fn metric_of<'a>(workload: &'a Json, list: &str, name: &str) -> Option<&'a Json> {
    workload
        .get(list)?
        .as_arr()?
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some(name))
}

/// Outcome of comparing two result files.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    pub rows: Vec<Row>,
}

impl Comparison {
    pub fn passed(&self) -> bool {
        self.rows.iter().all(|r| r.verdict != Verdict::Worse)
    }

    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<16} {:<20} {:>14} {:>14} {:>9} {:>7}  verdict\n",
            "workload", "metric", "a", "b", "change", "bound"
        );
        let number = |v: f64| {
            if v.is_nan() {
                "too few".to_string()
            } else {
                format!("{v:.4}")
            }
        };
        for r in &self.rows {
            out.push_str(&format!(
                "{:<16} {:<20} {:>14} {:>14} {:>+8.1}% {:>6.0}%  {}\n",
                r.workload,
                r.metric,
                number(r.a),
                number(r.b),
                r.worsening * 100.0,
                r.bound * 100.0,
                r.verdict.label()
            ));
        }
        let count = |v: Verdict| self.rows.iter().filter(|r| r.verdict == v).count();
        out.push_str(&format!(
            "{} same, {} better, {} worse, {} unresolved — {} (change: positive is worse)\n",
            count(Verdict::Same),
            count(Verdict::Better),
            count(Verdict::Worse),
            count(Verdict::Unresolved),
            if self.passed() { "PASS" } else { "FAIL" }
        ));
        out
    }
}

/// One side of a cell: the value (`None`: too few operations for it) and the
/// within-run spread.
struct Side {
    value: Option<f64>,
    spread: Option<f64>,
    percentile: Option<f64>,
}

fn side_of(entry: &Json, what: &str) -> Result<Side, String> {
    let value = match entry.get("value") {
        Some(Json::Null) => None,
        Some(v) => Some(
            v.as_f64()
                .filter(|x| x.is_finite())
                .ok_or_else(|| format!("{what}: the value is not a finite number"))?,
        ),
        None => return Err(format!("{what}: the entry has no value")),
    };
    Ok(Side {
        value,
        spread: entry.get("spread").and_then(Json::as_f64),
        percentile: entry.get("percentile").and_then(Json::as_f64),
    })
}

/// Compare one metric of one workload; `None` when neither run has it.
fn compare_cell(
    workload: &str,
    (wa, wb): (&Json, &Json),
    list: &str,
    bound: &Bound,
) -> Result<Option<Row>, String> {
    let what = |side: &str| format!("{workload}: {} in the {side} file", bound.name);
    let (ea, eb) = match (
        metric_of(wa, list, &bound.name),
        metric_of(wb, list, &bound.name),
    ) {
        (None, None) => return Ok(None),
        (Some(ea), Some(eb)) => (ea, eb),
        (None, _) => return Err(format!("{} is missing", what("first"))),
        (_, None) => return Err(format!("{} is missing", what("second"))),
    };
    let (a, b) = (side_of(ea, &what("first"))?, side_of(eb, &what("second"))?);
    if a.percentile != b.percentile {
        return Err(format!(
            "{workload}: {} is percentile {:?} in the first file and {:?} in the second \
             (a run too short for a p95 reports a lower one)",
            bound.name, a.percentile, b.percentile
        ));
    }
    let row = |a: f64, b: f64, worsening: f64, verdict: Verdict| Row {
        workload: workload.to_string(),
        metric: bound.name.clone(),
        a,
        b,
        worsening,
        bound: bound.bound,
        verdict,
    };
    Ok(match (a.value, b.value) {
        (None, None) => None,
        (Some(x), Some(y)) => {
            let widest = match (a.spread, b.spread) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            };
            let (worsening, verdict) = judge(x, y, widest, bound);
            Some(row(x, y, worsening, verdict))
        }
        // One side had too few operations for the percentile.
        (x, y) => Some(row(
            x.unwrap_or(f64::NAN),
            y.unwrap_or(f64::NAN),
            0.0,
            Verdict::Unresolved,
        )),
    })
}

/// Compare result `b` against baseline `a`; `bounds` are the end-to-end
/// bounds of `BENCHMARK.json`. A workload or end-to-end metric present in `a`
/// but missing from `b` is an error, not a pass; a per-kind figure must be
/// present in both or in neither.
pub fn compare(a: &Json, b: &Json, bounds: &[Bound]) -> Result<Comparison, String> {
    let per_kind: Vec<Bound> = PER_KIND
        .iter()
        .map(|k| Bound {
            name: k.name.to_string(),
            lower_is_better: k.lower_is_better,
            bound: k.bound,
        })
        .collect();
    let mut rows = Vec::new();
    let b_workloads = workloads_of(b)?;
    for wa in workloads_of(a)? {
        let name = wa
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("workload without a name")?;
        let wb = b_workloads
            .iter()
            .find(|w| w.get("workload").and_then(Json::as_str) == Some(name))
            .ok_or_else(|| format!("workload {name} is missing from the second file"))?;
        for bound in bounds {
            let row = compare_cell(name, (wa, wb), "metrics", bound)?
                .ok_or_else(|| format!("{name}: {} is missing from both files", bound.name))?;
            rows.push(row);
        }
        for bound in &per_kind {
            rows.extend(compare_cell(name, (wa, wb), "per_kind", bound)?);
        }
    }
    Ok(Comparison { rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(lower: bool) -> Bound {
        Bound {
            name: "m".into(),
            lower_is_better: lower,
            bound: 0.10,
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        // Latency (lower is better): +12 % is worse, −12 % better, +8 % same.
        assert_eq!(
            judge(100.0, 112.0, Some(0.02), &bound(true)).1,
            Verdict::Worse
        );
        assert_eq!(
            judge(100.0, 88.0, Some(0.02), &bound(true)).1,
            Verdict::Better
        );
        assert_eq!(judge(100.0, 108.0, None, &bound(true)).1, Verdict::Same);
        // Throughput (higher is better): the signs flip.
        assert_eq!(judge(100.0, 88.0, None, &bound(false)).1, Verdict::Worse);
        assert_eq!(judge(100.0, 112.0, None, &bound(false)).1, Verdict::Better);
        // A spread wider than the bound hides any difference.
        assert_eq!(
            judge(100.0, 150.0, Some(0.11), &bound(true)).1,
            Verdict::Unresolved
        );
    }

    fn entry(name: &str, value: Option<f64>, spread: f64) -> Json {
        Json::obj()
            .set("name", name)
            .set("value", value.map(Json::Num))
            .set("spread", Json::Num(spread))
    }

    /// A result file with one workload: end-to-end metric `m` and the given
    /// per-kind entries.
    fn result(value: f64, spread: f64, per_kind: Vec<Json>) -> Json {
        Json::obj().set(
            "workloads",
            Json::Arr(vec![Json::obj()
                .set("workload", "w")
                .set("metrics", Json::Arr(vec![entry("m", Some(value), spread)]))
                .set("per_kind", Json::Arr(per_kind))]),
        )
    }

    fn failed_pct(pct: f64) -> Vec<Json> {
        vec![entry("failed_ops_pct", Some(pct), 0.0)]
    }

    #[test]
    fn comparison_fails_on_worse_and_on_more_failures() {
        let bounds = [bound(true)];
        let ok = compare(
            &result(10.0, 0.01, vec![]),
            &result(10.5, 0.01, vec![]),
            &bounds,
        );
        assert!(ok.unwrap().passed());
        let slow = compare(
            &result(10.0, 0.01, vec![]),
            &result(12.0, 0.01, vec![]),
            &bounds,
        );
        let slow = slow.unwrap();
        assert!(!slow.passed());
        assert!(slow.render().contains("worse"));
        // Failed operations may not rise, not even from zero.
        let clean = result(10.0, 0.01, failed_pct(0.0));
        assert!(compare(&clean, &clean, &bounds).unwrap().passed());
        let failing = compare(&clean, &result(10.0, 0.01, failed_pct(0.2)), &bounds).unwrap();
        assert!(!failing.passed());
        assert!(compare(&result(1.0, 0.0, vec![]), &Json::obj(), &bounds).is_err());
    }

    #[test]
    fn per_kind_figures_compare_where_both_runs_have_them() {
        let bounds = [bound(true)];
        let with =
            |name: &str, value: Option<f64>| result(1.0, 0.0, vec![entry(name, value, 0.01)]);
        let rows = |a: &Json, b: &Json| compare(a, b, &bounds).map(|c| c.rows);
        // Neither run recovers: no row. Both do: one row, judged by the
        // bound in `PER_KIND`.
        let plain = result(1.0, 0.0, vec![]);
        assert_eq!(rows(&plain, &plain).unwrap().len(), 1);
        let slow = rows(&with("recover_s", Some(1.0)), &with("recover_s", Some(1.3))).unwrap();
        assert_eq!((slow.len(), slow[1].verdict), (2, Verdict::Worse));
        // Only one run has the kind: an error. One run had too few
        // operations for the percentile: unresolved. Both: no row.
        assert!(rows(&with("recover_s", Some(1.0)), &result(1.0, 0.0, vec![])).is_err());
        let short = rows(
            &with("query_p95_ms", Some(2.0)),
            &with("query_p95_ms", None),
        )
        .unwrap();
        assert_eq!(short[1].verdict, Verdict::Unresolved);
        let neither = rows(&with("query_p95_ms", None), &with("query_p95_ms", None)).unwrap();
        assert_eq!(neither.len(), 1);
    }

    #[test]
    fn broken_figures_are_errors_not_passes() {
        let bounds = [bound(true)];
        let good = result(10.0, 0.01, vec![]);
        // A missing end-to-end value does not read as 0.
        let valueless = Json::obj().set(
            "workloads",
            Json::Arr(vec![Json::obj()
                .set("workload", "w")
                .set("metrics", Json::Arr(vec![Json::obj().set("name", "m")]))]),
        );
        assert!(compare(&good, &valueless, &bounds).is_err());
        assert!(compare(&good, &result(f64::INFINITY, 0.0, vec![]), &bounds).is_err());
        // A p95 against the p75 of a run that was too short.
        let tail = |p: f64| {
            Json::obj().set(
                "workloads",
                Json::Arr(vec![Json::obj().set("workload", "w").set(
                    "metrics",
                    Json::Arr(vec![
                        entry("m", Some(5.0), 0.0).set("percentile", Json::Num(p))
                    ]),
                )]),
            )
        };
        assert!(compare(&tail(95.0), &tail(95.0), &bounds).unwrap().passed());
        assert!(compare(&tail(95.0), &tail(75.0), &bounds).is_err());
    }

    #[test]
    fn bounds_parse_from_the_benchmark_file() {
        let json = dc_json::parse(
            r#"{"end_to_end": [{"name": "x", "unit": "ms", "better": "lower", "bound": 0.1},
                               {"name": "y", "unit": "1/s", "better": "higher", "bound": 0.15}]}"#,
        )
        .unwrap();
        let bounds = bounds_of(&json).unwrap();
        assert_eq!(bounds.len(), 2);
        assert!(bounds[0].lower_is_better && !bounds[1].lower_is_better);
        assert_eq!(bounds[1].bound, 0.15);
    }
}
