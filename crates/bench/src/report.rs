//! ASCII rendering of experiment results for the `repro` binary and
//! EXPERIMENTS.md.

use crate::experiments::{ExperimentRow, Table1Row};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Render Table 1.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} | {:<58} | q2 context condition",
        "rule", "q1 context condition"
    );
    let _ = writeln!(out, "{}", "-".repeat(140));
    for r in rows {
        let fmt = |c: &Option<String>| c.clone().unwrap_or_else(|| "{} (infeasible)".into());
        let _ = writeln!(
            out,
            "{:<12} | {:<58} | {}",
            r.rule,
            fmt(&r.q1_condition),
            fmt(&r.q2_condition)
        );
    }
    out
}

/// Render a figure's measurements as a matrix: x-axis points as rows,
/// variants as columns (elapsed ms), plus a work-counter appendix.
pub fn render_figure(title: &str, rows: &[ExperimentRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    // x -> variant -> measurement
    let mut matrix: BTreeMap<String, BTreeMap<&str, &ExperimentRow>> = BTreeMap::new();
    let mut x_order: Vec<String> = Vec::new();
    for r in rows {
        if !x_order.contains(&r.x) {
            x_order.push(r.x.clone());
        }
        matrix.entry(r.x.clone()).or_default().insert(r.variant, r);
    }
    let variants = ["q", "q_e", "q_j", "q_n"];
    let _ = write!(out, "{:<10}", "x");
    for v in variants {
        let _ = write!(out, " | {v:>10}");
    }
    let _ = writeln!(out, " | winner(auto-cost)");
    let _ = writeln!(out, "{}", "-".repeat(70));
    for x in &x_order {
        let _ = write!(out, "{x:<10}");
        let per = &matrix[x];
        let mut best: Option<(&str, f64)> = None;
        for v in variants {
            match per.get(v).and_then(|r| r.measurement.as_ref()) {
                Some(m) => {
                    let _ = write!(out, " | {:>8.1}ms", m.millis);
                    if v != "q" && v != "q_n" && best.is_none_or(|(_, b)| m.millis < b) {
                        best = Some((v, m.millis));
                    }
                }
                None => {
                    let _ = write!(out, " | {:>10}", "n/a");
                }
            }
        }
        let _ = writeln!(out, " | {}", best.map(|(v, _)| v).unwrap_or("-"));
    }
    // Work counters.
    let _ = writeln!(out, "\n-- work counters (rows sorted / scanned / sorts) --");
    for x in &x_order {
        let per = &matrix[x];
        let _ = write!(out, "{x:<10}");
        for v in variants {
            match per.get(v).and_then(|r| r.measurement.as_ref()) {
                Some(m) => {
                    let _ = write!(
                        out,
                        " | {v}: {}/{}/{}",
                        m.stats.rows_sorted, m.stats.rows_scanned, m.stats.sorts_performed
                    );
                }
                None => {
                    let _ = write!(out, " | {v}: n/a");
                }
            }
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Measurement;
    use dc_relational::exec::ExecStats;

    fn row(x: &str, variant: &'static str, ms: f64) -> ExperimentRow {
        ExperimentRow {
            x: x.into(),
            query: "q1",
            variant,
            measurement: Some(Measurement::new(
                variant,
                ms,
                1,
                ExecStats {
                    rows_scanned: 10,
                    rows_sorted: 5,
                    sorts_performed: 1,
                    sort_comparisons: 4,
                    window_accumulator_ops: 2,
                    partitions_executed: 3,
                    ..ExecStats::default()
                },
                100_000,
                1,
                "x".into(),
            )),
        }
    }

    #[test]
    fn figure_rendering() {
        let rows = vec![
            row("1%", "q", 1.0),
            row("1%", "q_e", 2.0),
            row("1%", "q_j", 3.0),
            row("1%", "q_n", 9.0),
        ];
        let s = render_figure("Fig", &rows);
        assert!(s.contains("1%"));
        assert!(s.contains("9.0ms"));
        assert!(s.contains("| q_e"));
    }

    #[test]
    fn table1_rendering() {
        let rows = vec![Table1Row {
            rule: "cycle".into(),
            q1_condition: None,
            q2_condition: Some("(c.rtime >= 5)".into()),
        }];
        let s = render_table1(&rows);
        assert!(s.contains("infeasible"));
        assert!(s.contains("c.rtime"));
    }
}
