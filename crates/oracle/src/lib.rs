//! Reference implementations the engine is tested against.
//!
//! Everything here computes the same answers as `dc-relational`'s execution
//! layer the slow, obvious way — one scalar [`Value`] at a time, keyed by
//! `Vec<Value>`, every window frame recomputed from scratch — over the
//! engine's public data types ([`Batch`], [`Expr`], [`WindowExpr`],
//! [`LogicalPlan`]). It shares the containers with the
//! engine and nothing else: no typed kernel, no normalized-key hashing, no
//! chunk stream, no sliding accumulator.
//!
//! * [`evaluate`] / [`filter_rows`] — scalar expressions, SQL three-valued
//!   logic;
//! * [`join()`], [`aggregate`], [`distinct`] — the hash operators on
//!   `HashMap<Vec<Value>, _>`;
//! * [`NaiveWindow`] — window aggregates, O(n · frame width);
//! * [`execute`] — a materialized interpreter for every [`LogicalPlan`]
//!   variant, built from the pieces above.
//!
//! Row *order* is part of the contract (the engine's results are compared
//! row for row): scans return table order, joins left order with matches in
//! right order, groups and distinct rows first-seen order, sorts are stable.
//!
//! This crate is a dev-dependency of the root package's test suites and a
//! dependency of `dc-bench`'s ablations. Nothing a query runs through may
//! depend on it; CI checks the dependency graph.
//!
//! [`Batch`]: dc_relational::batch::Batch
//! [`Expr`]: dc_relational::expr::Expr
//! [`WindowExpr`]: dc_relational::window::WindowExpr
//! [`LogicalPlan`]: dc_relational::plan::LogicalPlan

pub mod agg;
pub mod expr;
pub mod join;
pub mod plan;
pub mod window;

pub use agg::{aggregate, distinct};
pub use expr::{evaluate, filter_rows};
pub use join::join;
pub use plan::execute;
pub use window::NaiveWindow;

use dc_relational::batch::Batch;
use dc_relational::value::Value;

/// A batch's logical rows as scalar tuples — the form results are compared in.
pub fn rows_of(batch: &Batch) -> Vec<Vec<Value>> {
    (0..batch.num_rows()).map(|i| batch.row(i)).collect()
}
