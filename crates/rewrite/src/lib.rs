//! # dc-rewrite — deferred-cleansing query rewrites
//!
//! The paper's central contribution: answering a query Q over *cleansed*
//! data, Q[C₁…Cₙ], without cleansing the whole reads table.
//!
//! * [`shape`] decomposes the user plan around the reads table — the local
//!   condition *s*, the dimension joins, and the consumer.
//! * [`analysis`] performs the correlation/transitivity analysis of §5.2
//!   (Figure 4): correlation conditions per context reference (explicit
//!   conjuncts + implied cluster/sequence-key conjuncts, restricted to the
//!   position-preserving subset for position-based references), and derives
//!   *context conditions* by propagating the query's bounds through them.
//! * [`engine`] generates the candidate rewrites — naive, expanded (with
//!   0..m joins pushed below cleansing), and join-back (with 0..n
//!   semi-joins) — compiles each, and picks the cheapest cost estimate.
//! * [`memo`] pays for that once per query shape: a rewrite is reused for
//!   every plan that differs only in its cluster-key literals.
//!
//! The correctness contract, verified extensively by the integration tests:
//! for any query and rule chain, every candidate produces exactly the same
//! result multiset as the naive gold standard `Q(Φ_{Cₙ}(…Φ_{C₁}(R)))`.

pub mod analysis;
pub mod cache;
pub mod engine;
pub mod memo;
pub mod shape;
pub mod trace;

pub use analysis::{bind_to_target, context_condition, correlation_condition, join_key_propagates};
pub use cache::{CacheStats, CleanseCache, JoinBackCacheSpec};
pub use engine::{Candidate, Executed, RewriteEngine, Rewritten, Strategy};
pub use memo::{rules_modify_ckey, MemoHit, ShapeMemo};
pub use shape::{analyze, DimJoin, QueryShape};
pub use trace::DecisionTrace;
