//! Physical query plans.
//!
//! [`crate::plan::LogicalPlan`] is the optimizer's currency: a declarative
//! tree that says *what* to compute. This module is the execution layer: a
//! tree of operator structs behind the [`PhysicalOperator`] trait that says
//! *how* — every optimizer decision is baked in explicitly by the
//! [`lower::lower`] pass rather than re-derived at runtime:
//!
//! * index-bound candidates for scans ([`scan::PhysicalScan`] carries the
//!   derived per-column range/IN bounds),
//! * redundant-sort elimination (a window whose input is already ordered
//!   lowers *without* a [`sort::PhysicalSort`] in front; one is inserted
//!   otherwise — the physical window operator itself never sorts),
//! * partition-parallel window evaluation ([`window::PhysicalWindow`]
//!   splits the cleansing path's `PARTITION BY` (cluster-key) partitions
//!   into consecutive runs across a scoped thread pool when
//!   [`ExecOptions::parallelism`] > 1, with byte-identical results and
//!   identical merged [`ExecStats`] at any parallelism).
//!
//! Operators execute against an [`ExecContext`], which carries the catalog,
//! the execution options, the deterministic work counters, and a separate
//! wall-clock channel for window evaluation (timings may differ across
//! parallelism; counters must not).

pub mod aggregate;
pub mod distinct;
pub mod filter;
pub mod hash_join;
pub mod limit;
pub mod lower;
pub mod metrics;
pub mod project;
pub mod scan;
pub mod semi_join;
pub mod sort;
pub mod subquery_alias;
pub mod union;
pub mod window;

pub use lower::lower;
pub use metrics::{DeterministicMetrics, FrameId, MetricsCollector, OperatorMetrics};

use crate::batch::Batch;
use crate::error::{AbortReason, Error, Result};
use crate::exec::ExecStats;
use crate::table::Catalog;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-query robustness controls, checked cooperatively at operator batch
/// boundaries (and per window partition on the Φ_C hot path).
///
/// A tripped budget aborts the query with a typed
/// [`Error::Aborted`] — the plan unwinds without producing any partial
/// rows, and shared state (catalog snapshots, the cleansed-sequence cache)
/// is left exactly as consistent as before the run: an immediate re-run
/// succeeds and matches an unbudgeted execution.
///
/// The default budget is unlimited; cloning shares the cancellation token.
#[derive(Debug, Clone, Default)]
pub struct QueryBudget {
    /// Abort once this wall-clock instant passes.
    pub deadline: Option<Instant>,
    /// Abort once more than this many rows have flowed out of operators
    /// (cumulative over the whole plan — a work bound, not a LIMIT).
    pub row_limit: Option<u64>,
    /// Cooperative cancellation token; setting it to `true` aborts the
    /// query at its next checkpoint.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl QueryBudget {
    /// No limits at all (the default).
    pub fn unlimited() -> Self {
        QueryBudget::default()
    }

    /// Abort when `timeout` from now has elapsed.
    pub fn with_deadline(mut self, timeout: Duration) -> Self {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Abort at the given absolute instant.
    pub fn with_deadline_at(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Abort once the plan has moved more than `rows` rows.
    pub fn with_row_limit(mut self, rows: u64) -> Self {
        self.row_limit = Some(rows);
        self
    }

    /// Attach a shared cancellation token.
    pub fn with_cancel(mut self, token: Arc<AtomicBool>) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Is any limit configured?
    pub fn is_limited(&self) -> bool {
        self.deadline.is_some() || self.row_limit.is_some() || self.cancel.is_some()
    }

    /// Checkpoint: cancellation first (an explicit caller decision), then
    /// the deadline. Called at every operator boundary and per window
    /// partition; must stay cheap when unlimited.
    pub fn check(&self) -> Result<()> {
        if let Some(token) = &self.cancel {
            if token.load(Ordering::Relaxed) {
                return Err(Error::Aborted(AbortReason::Cancelled));
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() > deadline {
                return Err(Error::Aborted(AbortReason::DeadlineExceeded));
            }
        }
        Ok(())
    }

    /// Row-budget checkpoint against the cumulative rows the plan has
    /// emitted so far.
    pub fn check_rows(&self, rows_emitted: u64) -> Result<()> {
        match self.row_limit {
            Some(limit) if rows_emitted > limit => {
                Err(Error::Aborted(AbortReason::RowLimitExceeded))
            }
            _ => Ok(()),
        }
    }
}

/// Execution knobs threaded from the system facade down to the operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Number of worker threads for partition-parallel operators (the Φ_C
    /// cleansing window path). `1` means serial. Parallelism never changes
    /// results or work counters — only wall-clock.
    pub parallelism: usize,
    /// Morsel size for the streaming [`ChunkStream`] pipeline: streaming
    /// operators pull batches of at most this many rows. `0` disables
    /// streaming entirely — every operator materializes through
    /// [`PhysicalOperator::execute`], which is the equivalence oracle the
    /// vectorized path is tested against. Chunk size never changes results
    /// or deterministic counters other than `batches_processed` /
    /// `selection_avoided_copies` (which count chunks, not rows).
    pub chunk_rows: usize,
    /// Run hash-keyed operators (join, aggregation, DISTINCT) on the
    /// retained row-wise `Vec<Value>` path instead of the vectorized hash
    /// kernels. The equivalence oracle for the property suite — results are
    /// identical; the hash-kernel counters simply stay 0.
    pub rowwise_hash: bool,
}

/// Default morsel size for the streaming pipeline (rows per chunk).
pub const DEFAULT_CHUNK_ROWS: usize = 1024;

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            parallelism: 1,
            chunk_rows: DEFAULT_CHUNK_ROWS,
            rowwise_hash: false,
        }
    }
}

impl ExecOptions {
    pub fn with_parallelism(parallelism: usize) -> Self {
        ExecOptions {
            parallelism: parallelism.max(1),
            ..ExecOptions::default()
        }
    }

    /// Override the streaming morsel size (`0` = fully materialized).
    pub fn with_chunk_rows(mut self, chunk_rows: usize) -> Self {
        self.chunk_rows = chunk_rows;
        self
    }

    /// Select the row-wise `Vec<Value>` hash path (the equivalence oracle).
    pub fn with_rowwise_hash(mut self, rowwise: bool) -> Self {
        self.rowwise_hash = rowwise;
        self
    }
}

/// Per-execution state handed to every operator.
pub struct ExecContext<'a> {
    pub catalog: &'a Catalog,
    pub options: ExecOptions,
    /// Deterministic work counters — identical at any parallelism.
    pub stats: ExecStats,
    /// Wall-clock nanoseconds spent evaluating window aggregates (the Φ_C
    /// hot path). Deliberately *not* part of [`ExecStats`]: timings change
    /// with parallelism, counters must not.
    pub window_eval_nanos: u64,
    /// Per-operator metrics tree under construction (see
    /// [`metrics::MetricsCollector`]); driven by the instrumented
    /// [`PhysicalOperator::execute`] wrapper around every operator.
    pub metrics: MetricsCollector,
    /// Per-query robustness budget, checked by the instrumented
    /// [`PhysicalOperator::execute`] wrapper at every operator boundary.
    pub budget: QueryBudget,
    /// Cumulative rows emitted by operators this execution — the quantity
    /// [`QueryBudget::row_limit`] bounds.
    pub rows_emitted: u64,
}

impl<'a> ExecContext<'a> {
    pub fn new(catalog: &'a Catalog, options: ExecOptions) -> Self {
        Self::with_budget(catalog, options, QueryBudget::unlimited())
    }

    /// A context whose execution is bounded by `budget`.
    pub fn with_budget(catalog: &'a Catalog, options: ExecOptions, budget: QueryBudget) -> Self {
        ExecContext {
            catalog,
            options,
            stats: ExecStats::default(),
            window_eval_nanos: 0,
            metrics: MetricsCollector::new(),
            budget,
            rows_emitted: 0,
        }
    }
}

/// A fully-lowered physical operator: executes to a materialized batch.
///
/// Contract:
/// * `execute_op` materializes this operator's full output, recursively
///   executing children (via their instrumented [`execute`]); all work is
///   accounted in `ctx.stats` using the same counter semantics at any
///   `ctx.options.parallelism`, and node-local work (comparisons,
///   partitions) additionally into `ctx.metrics` against the current frame.
/// * Operators perform no plan-level decisions at runtime — what to do
///   (index bounds, sort placement, projections) was fixed by `lower()`;
///   only data-dependent choices (e.g. *which* candidate index bound is
///   most selective on the actual table) remain.
/// * `children` exposes the operator tree for display/inspection and must
///   match the inputs `execute_op` consumes.
///
/// [`execute`]: PhysicalOperator::execute
pub trait PhysicalOperator: std::fmt::Debug {
    /// Operator name for plan rendering, e.g. `"WindowExec"`.
    fn name(&self) -> &'static str;

    /// One-line description including operator-specific detail.
    fn label(&self) -> String {
        self.name().to_string()
    }

    /// Child operators, in execution order.
    fn children(&self) -> Vec<&dyn PhysicalOperator>;

    /// Operator body: execute to a fully materialized batch. Implementations
    /// recurse through the children's `execute`, never `execute_op`.
    fn execute_op(&self, ctx: &mut ExecContext<'_>) -> Result<Batch>;

    /// Instrumented entry point: checks the query budget (cancellation and
    /// deadline) before running, opens a [`metrics::MetricsCollector`]
    /// frame, runs [`execute_op`](PhysicalOperator::execute_op), closes
    /// the frame with the produced row count and the operator's inclusive
    /// wall-clock, and finally charges the produced rows against the row
    /// budget. A tripped budget unwinds with [`Error::Aborted`]; parent
    /// frames are closed on the way out, so metrics stay balanced and no
    /// partial batch escapes. Callers (the executor and parent operators)
    /// always go through this; operators implement `execute_op`.
    fn execute(&self, ctx: &mut ExecContext<'_>) -> Result<Batch> {
        ctx.budget.check()?;
        ctx.metrics.enter(self.name(), self.label());
        let start = Instant::now();
        let result = self.execute_op(ctx);
        let nanos = start.elapsed().as_nanos() as u64;
        let rows_out = result.as_ref().map(|b| b.num_rows() as u64).unwrap_or(0);
        ctx.metrics.exit(rows_out, nanos);
        ctx.rows_emitted += rows_out;
        if result.is_ok() {
            ctx.budget.check_rows(ctx.rows_emitted)?;
        }
        result
    }

    /// Streaming entry point: open a pull-based [`ChunkStream`] over this
    /// operator's output. The default falls back to the materialized
    /// [`execute`](PhysicalOperator::execute) (budget charging and metrics
    /// included) and serves the result back in `ctx.options.chunk_rows`
    /// slices; streaming operators (scan, filter, project, limit, alias)
    /// override it to pull morsels end-to-end without materializing.
    ///
    /// Contract for native implementations:
    /// * `open_chunks` checks the budget, enters this operator's metrics
    ///   frame (before opening children, so frames nest outer→inner), and
    ///   does any one-time setup.
    /// * `next_chunk` checks the budget, pulls/produces at most
    ///   `chunk_rows` logical rows, records per-chunk work against the
    ///   operator's [`metrics::FrameId`], and charges emitted rows against
    ///   the row budget.
    /// * `close` closes children first, then exits this operator's frame
    ///   with its accumulated rows and inclusive wall-clock — frames pop
    ///   LIFO, so the metrics tree is identical in shape to the
    ///   materialized path's.
    fn open_chunks<'a>(&'a self, ctx: &mut ExecContext<'_>) -> Result<Box<dyn ChunkStream + 'a>> {
        let batch = self.execute(ctx)?;
        Ok(Box::new(MaterializedStream::new(
            batch,
            ctx.options.chunk_rows,
        )))
    }
}

/// A pull-based stream of row chunks ("morsels") from a physical operator.
///
/// Chunks carry at most [`ExecOptions::chunk_rows`] logical rows and may
/// carry a selection vector (see [`Batch::selection`]) — consumers must go
/// through the logical-row APIs (`num_rows`, `row`, `take`, `flatten`) or
/// honor the selection explicitly. `next_chunk` returning `Ok(None)` means
/// the stream is exhausted; `close` must be called exactly once (including
/// after an error) so metrics frames stay balanced.
pub trait ChunkStream {
    /// Output schema, available before the first chunk.
    fn schema(&self) -> crate::schema::SchemaRef;

    /// Pull the next chunk, or `None` when exhausted.
    fn next_chunk(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>>;

    /// Release the stream: close children, then exit this operator's
    /// metrics frame. Idempotence is not required — call exactly once.
    fn close(&mut self, ctx: &mut ExecContext<'_>);
}

/// Fallback stream over an already-materialized batch: serves zero-copy
/// [`Batch::slice`] windows of `chunk_rows` rows. Does not re-charge the
/// row budget (the materializing `execute` already did) and owns no
/// metrics frame (ditto).
pub struct MaterializedStream {
    batch: Batch,
    chunk_rows: usize,
    pos: usize,
}

impl MaterializedStream {
    pub fn new(batch: Batch, chunk_rows: usize) -> Self {
        MaterializedStream {
            batch,
            chunk_rows,
            pos: 0,
        }
    }
}

impl ChunkStream for MaterializedStream {
    fn schema(&self) -> crate::schema::SchemaRef {
        self.batch.schema().clone()
    }

    fn next_chunk(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        ctx.budget.check()?;
        let total = self.batch.num_rows();
        if self.pos >= total {
            return Ok(None);
        }
        let len = if self.chunk_rows == 0 {
            total - self.pos
        } else {
            self.chunk_rows.min(total - self.pos)
        };
        let chunk = self.batch.slice(self.pos, len);
        self.pos += len;
        Ok(Some(chunk))
    }

    fn close(&mut self, _ctx: &mut ExecContext<'_>) {}
}

/// Drain an operator's full output, streaming when the pipeline is enabled.
///
/// This is how pipeline-breakers (sort, joins, aggregate, distinct, union,
/// window) and the executor root consume their inputs: with
/// `chunk_rows == 0` it is exactly the materialized `execute` (the
/// equivalence oracle); otherwise it pulls the child's chunk stream dry and
/// compacts the parts into one flat batch.
pub fn collect_input(op: &dyn PhysicalOperator, ctx: &mut ExecContext<'_>) -> Result<Batch> {
    if ctx.options.chunk_rows == 0 {
        return op.execute(ctx);
    }
    let mut stream = op.open_chunks(ctx)?;
    let schema = stream.schema();
    let mut parts: Vec<Batch> = Vec::new();
    loop {
        match stream.next_chunk(ctx) {
            Ok(Some(chunk)) => parts.push(chunk),
            Ok(None) => break,
            Err(e) => {
                // Close before unwinding so metrics frames stay balanced.
                stream.close(ctx);
                return Err(e);
            }
        }
    }
    stream.close(ctx);
    match parts.len() {
        0 => Ok(Batch::empty(schema)),
        1 => Ok(parts.pop().expect("one part").flatten()),
        _ => Batch::concat(&parts),
    }
}

/// Multi-line EXPLAIN-style rendering of a physical operator tree.
pub fn display_physical(op: &dyn PhysicalOperator) -> String {
    fn walk(op: &dyn PhysicalOperator, depth: usize, out: &mut String) {
        let _ = writeln!(out, "{}{}", "  ".repeat(depth), op.label());
        for c in op.children() {
            walk(c, depth + 1, out);
        }
    }
    let mut out = String::new();
    walk(op, 0, &mut out);
    out
}
