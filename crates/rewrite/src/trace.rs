//! Rewrite decision traces — why a candidate was chosen.
//!
//! §5.2/§5.3 choose "the statement with the cheapest cost estimate" among
//! the naive, expanded, and join-back variants. A [`DecisionTrace`] records
//! that decision for one query: the strategy asked for, every compiled
//! candidate with its cost estimate, the winner, the derived context and
//! expanded conditions, and any soundness notes — so Figures 7–9 runs can be
//! audited against the paper's claims instead of trusting the engine
//! blindly.

use crate::engine::{Candidate, Rewritten, Strategy};
use crate::memo::MemoHit;
use dc_json::Json;
use std::fmt::Write as _;

/// The record of one rewrite decision.
#[derive(Debug, Clone)]
pub struct DecisionTrace {
    /// Strategy requested (`Auto` considers all candidate families).
    pub strategy: String,
    /// Label of the winning candidate.
    pub chosen: String,
    /// Every compiled candidate, cheapest first.
    pub candidates: Vec<Candidate>,
    /// The expanded condition `ec = s ∨ cc`, rendered, when feasible.
    pub expanded_condition: Option<String>,
    /// The overall context condition `cc`, rendered, when feasible.
    pub context_condition: Option<String>,
    /// Soundness fallbacks and other diagnostics.
    pub notes: Vec<String>,
    /// Set when the rewrite was reused from the shape memo.
    pub memo_hit: Option<MemoHit>,
}

impl DecisionTrace {
    /// Multi-line text rendering (the `EXPLAIN` header block).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "rewrite strategy: {}", self.strategy);
        if let Some(hit) = &self.memo_hit {
            let _ = writeln!(
                out,
                "rewrite: memo hit (same rules, strategy, plan shape and {} table versions; \
                 {} cluster-key literal(s) bound)",
                hit.tables, hit.bound
            );
        }
        let _ = writeln!(out, "chosen: {}", self.chosen);
        for c in &self.candidates {
            let _ = writeln!(
                out,
                "candidate: {} (cost {:.0}, est_rows {:.0})",
                c.label, c.cost, c.est_rows
            );
        }
        if let Some(cc) = &self.context_condition {
            let _ = writeln!(out, "context condition: {cc}");
        }
        if let Some(ec) = &self.expanded_condition {
            let _ = writeln!(out, "expanded condition: {ec}");
        }
        for n in &self.notes {
            let _ = writeln!(out, "note: {n}");
        }
        out
    }

    pub fn to_json(&self) -> Json {
        let candidates = self
            .candidates
            .iter()
            .map(|c| {
                Json::obj()
                    .set("label", c.label.as_str())
                    .set("cost", Json::Num(c.cost))
                    .set("est_rows", Json::Num(c.est_rows))
            })
            .collect();
        let json = Json::obj()
            .set("strategy", self.strategy.as_str())
            .set("chosen", self.chosen.as_str())
            .set("candidates", Json::Arr(candidates))
            .set(
                "context_condition",
                self.context_condition
                    .as_deref()
                    .map_or(Json::Null, Json::from),
            )
            .set(
                "expanded_condition",
                self.expanded_condition
                    .as_deref()
                    .map_or(Json::Null, Json::from),
            )
            .set(
                "notes",
                Json::Arr(self.notes.iter().map(|n| Json::from(n.as_str())).collect()),
            );
        match &self.memo_hit {
            Some(hit) => json.set(
                "memo_hit",
                Json::obj()
                    .set("tables", Json::from(hit.tables))
                    .set("bound", Json::from(hit.bound)),
            ),
            None => json,
        }
    }
}

impl Rewritten {
    /// The decision trace of this rewrite, tagged with the strategy that
    /// produced it.
    pub fn decision_trace(&self, strategy: Strategy) -> DecisionTrace {
        DecisionTrace {
            strategy: format!("{strategy:?}"),
            chosen: self.chosen.clone(),
            candidates: self.candidates.clone(),
            expanded_condition: self.expanded_condition.as_ref().map(|e| e.to_string()),
            context_condition: self.context_condition.as_ref().map(|e| e.to_string()),
            notes: self.notes.clone(),
            memo_hit: self.memo_hit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> DecisionTrace {
        DecisionTrace {
            strategy: "Auto".into(),
            chosen: "expanded(0 joins below cleansing)".into(),
            candidates: vec![
                Candidate {
                    label: "expanded(0 joins below cleansing)".into(),
                    cost: 120.0,
                    est_rows: 40.0,
                },
                Candidate {
                    label: "join-back(0 semi-joins)".into(),
                    cost: 300.0,
                    est_rows: 40.0,
                },
            ],
            expanded_condition: Some("rtime < 100 OR rtime < 400".into()),
            context_condition: Some("rtime < 400".into()),
            notes: vec!["example note".into()],
            memo_hit: None,
        }
    }

    #[test]
    fn text_rendering() {
        let t = trace().render_text();
        assert!(t.contains("chosen: expanded(0 joins below cleansing)"));
        assert!(t.contains("candidate: join-back(0 semi-joins) (cost 300"));
        assert!(t.contains("expanded condition: rtime < 100 OR rtime < 400"));
        assert!(t.contains("note: example note"));
    }

    #[test]
    fn json_rendering() {
        let j = trace().to_json();
        assert_eq!(j.get("strategy").and_then(Json::as_str), Some("Auto"));
        let cands = j.get("candidates").and_then(Json::as_arr).unwrap();
        assert_eq!(cands.len(), 2);
        assert_eq!(cands[0].get("cost").and_then(Json::as_f64), Some(120.0));
        assert!(j.get("context_condition").and_then(Json::as_str).is_some());
    }
}
