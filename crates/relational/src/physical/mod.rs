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
//! * required columns (a [`scan::PhysicalScan`] emits, and a
//!   [`hash_join::PhysicalHashJoin`] gathers, only the columns read above
//!   them; root, `Union` inputs, `Distinct` and `SubqueryAlias` pin their
//!   child's full schema),
//! * partition-parallel window evaluation ([`window::PhysicalWindow`]
//!   splits the cleansing path's `PARTITION BY` (cluster-key) partitions
//!   into consecutive runs across a scoped thread pool when
//!   [`ExecOptions::parallelism`] > 1, with byte-identical results and
//!   identical merged [`ExecStats`](crate::exec::ExecStats) at any parallelism).
//!
//! Operators execute against an [`ExecContext`], which carries the catalog,
//! the execution options, the metrics tree under construction (every
//! deterministic work counter lives in it), and a separate wall-clock
//! channel for window evaluation (timings may differ across parallelism;
//! counters must not).
//!
//! # Operator contract
//!
//! There is one way to run an operator: [`open_stream`] it and pull
//! [`OpStream::next_chunk`] until it returns `None`; dropping the stream
//! releases it. [`open_stream`] and [`OpStream`] are the only code that
//! checks the [`QueryBudget`], owns the operator's metrics frame, measures
//! its inclusive wall-clock, charges emitted rows to the row budget and
//! counts chunks — an operator's [`PhysicalOperator::open`] and its
//! [`ChunkStream::next_chunk`] contain only the operator's own work and
//! record it, each event once, through [`MetricsCollector::frame`], which
//! is that operator's node because the wrapper made it current. Operators
//! come in two kinds:
//!
//! * **streaming** (scan, filter, project, limit, alias): `open` opens the
//!   child and returns a stream that transforms one pulled chunk at a time;
//! * **pipeline breakers** (sort, window, joins, aggregate, distinct,
//!   union): `open` drains its inputs with [`collect_input`], computes the
//!   whole output and returns it as [`materialized`], which serves zero-copy
//!   slices. A breaker's rows are charged to the row budget when it is
//!   opened — the work is done by then — and it counts no chunks.
//!
//! [`ExecOptions::chunk_rows`] only sets how many rows a chunk may carry;
//! `0` means one unbounded chunk through the same streams.

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
pub use metrics::{FrameId, MetricsCollector, OperatorMetrics};

use crate::batch::Batch;
use crate::error::{AbortReason, Error, Result};
use crate::schema::SchemaRef;
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
    /// Morsel size of the [`ChunkStream`] pipeline: every stream hands out
    /// batches of at most this many rows; `0` means one unbounded chunk.
    /// Chunk size never changes results or deterministic counters other
    /// than `batches_processed` / `selection_avoided_copies` (which count
    /// chunks, not rows).
    pub chunk_rows: usize,
}

/// Default morsel size for the streaming pipeline (rows per chunk).
pub const DEFAULT_CHUNK_ROWS: usize = 1024;

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            parallelism: 1,
            chunk_rows: DEFAULT_CHUNK_ROWS,
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

    /// Override the morsel size (`0` = one unbounded chunk).
    pub fn with_chunk_rows(mut self, chunk_rows: usize) -> Self {
        self.chunk_rows = chunk_rows;
        self
    }
}

/// Per-execution state handed to every operator.
pub struct ExecContext<'a> {
    pub catalog: &'a Catalog,
    pub options: ExecOptions,
    /// Wall-clock nanoseconds spent evaluating window aggregates (the Φ_C
    /// hot path). Deliberately *not* a counter of the metrics tree: timings
    /// change with parallelism, counters must not.
    pub window_eval_nanos: u64,
    /// Per-operator metrics tree under construction (see
    /// [`metrics::MetricsCollector`]); frames are driven by [`OpStream`],
    /// and every deterministic work counter is recorded into one of them.
    pub metrics: MetricsCollector,
    /// Per-query robustness budget, checked by [`OpStream`] at every
    /// operator boundary.
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
            window_eval_nanos: 0,
            metrics: MetricsCollector::new(),
            budget,
            rows_emitted: 0,
        }
    }
}

/// A fully-lowered physical operator.
///
/// * [`open`](PhysicalOperator::open) is the operator body and its only
///   execution method; it is called by [`open_stream`] and by nothing else
///   (see the module-level *Operator contract*). It records its work once,
///   into its own node through `ctx.metrics.frame()` (its elementary work
///   unit in `comparisons`, everything else in the node's
///   [`ExecStats`](crate::exec::ExecStats)), with the same counter
///   semantics at any `ctx.options.parallelism`; the query's counters are
///   the fold of the finished tree.
/// * Operators perform no plan-level decisions at runtime — what to do
///   (index bounds, sort placement, projections) was fixed by `lower()`;
///   only data-dependent choices (e.g. *which* candidate index bound is
///   most selective on the actual table) remain.
/// * `children` exposes the operator tree for display/inspection and must
///   match the inputs `open` consumes.
pub trait PhysicalOperator: std::fmt::Debug {
    /// Operator name for plan rendering, e.g. `"WindowExec"`.
    fn name(&self) -> &'static str;

    /// One-line description including operator-specific detail.
    fn label(&self) -> String {
        self.name().to_string()
    }

    /// Child operators, in execution order.
    fn children(&self) -> Vec<&dyn PhysicalOperator>;

    /// Operator body: open the children (through [`open_stream`] or
    /// [`collect_input`]), do any one-time work, and return the stream of
    /// this operator's output.
    fn open<'a>(&'a self, ctx: &mut ExecContext<'_>) -> Result<Box<dyn ChunkStream + 'a>>;
}

/// The body of a pull-based stream of row chunks ("morsels") from a
/// physical operator, wrapped in an [`OpStream`] by [`open_stream`].
///
/// Chunks carry at most [`ExecOptions::chunk_rows`] logical rows and may
/// carry a selection vector (see [`Batch::selection`]) — consumers must go
/// through the logical-row APIs (`num_rows`, `row`, `take`, `flatten`) or
/// honor the selection explicitly.
pub trait ChunkStream {
    /// Output schema, available before the first chunk.
    fn schema(&self) -> SchemaRef;

    /// Produce the next chunk, or `None` when exhausted.
    fn next_chunk(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>>;

    /// `Some(rows)` when the whole output was computed before the stream was
    /// returned — what makes an operator a pipeline breaker. Only
    /// [`materialized`] answers `Some`.
    fn precomputed_rows(&self) -> Option<u64> {
        None
    }
}

/// The next zero-copy slice of `batch` from `*pos`: at most `chunk_rows`
/// rows, or all remaining rows when `chunk_rows` is 0.
pub(crate) fn next_slice(batch: &Batch, pos: &mut usize, chunk_rows: usize) -> Option<Batch> {
    let left = batch.num_rows() - *pos;
    if left == 0 {
        return None;
    }
    let len = if chunk_rows == 0 {
        left
    } else {
        chunk_rows.min(left)
    };
    let chunk = batch.slice(*pos, len);
    *pos += len;
    Some(chunk)
}

/// A pipeline breaker's output stream: the batch it computed while opening,
/// served as zero-copy [`Batch::slice`] windows.
pub fn materialized<'a>(batch: Batch) -> Box<dyn ChunkStream + 'a> {
    struct Materialized {
        batch: Batch,
        pos: usize,
    }

    impl ChunkStream for Materialized {
        fn schema(&self) -> SchemaRef {
            self.batch.schema().clone()
        }

        fn next_chunk(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
            Ok(next_slice(
                &self.batch,
                &mut self.pos,
                ctx.options.chunk_rows,
            ))
        }

        fn precomputed_rows(&self) -> Option<u64> {
            Some(self.batch.num_rows() as u64)
        }
    }

    Box::new(Materialized { batch, pos: 0 })
}

/// An opened operator: its [`ChunkStream`] body plus all the bookkeeping
/// every operator shares. Created by [`open_stream`]; dropping it releases
/// the operator.
pub struct OpStream<'a> {
    body: Box<dyn ChunkStream + 'a>,
    frame: FrameId,
    /// Rows are charged and chunks counted as they are pulled; false for a
    /// pipeline breaker, which was charged in full when opened.
    streaming: bool,
}

/// Open `op` for execution: check the budget (cancellation and deadline),
/// enter the operator's metrics frame, run its [`PhysicalOperator::open`]
/// and time it. A pipeline breaker's rows are charged to the row budget
/// here. A tripped budget unwinds with [`Error::Aborted`]; no partial batch
/// escapes.
pub fn open_stream<'a>(
    op: &'a dyn PhysicalOperator,
    ctx: &mut ExecContext<'_>,
) -> Result<OpStream<'a>> {
    ctx.budget.check()?;
    let frame = ctx.metrics.enter(op.name(), op.label());
    let start = Instant::now();
    let opened = op.open(ctx);
    let precomputed = opened.as_ref().ok().and_then(|s| s.precomputed_rows());
    ctx.metrics
        .exit(precomputed.unwrap_or(0), start.elapsed().as_nanos() as u64);
    let body = opened?;
    if let Some(rows) = precomputed {
        ctx.rows_emitted += rows;
        ctx.budget.check_rows(ctx.rows_emitted)?;
    }
    Ok(OpStream {
        body,
        frame,
        streaming: precomputed.is_none(),
    })
}

impl OpStream<'_> {
    /// Output schema, available before the first chunk.
    pub fn schema(&self) -> SchemaRef {
        self.body.schema()
    }

    /// Pull the next chunk, or `None` when exhausted: check the budget, make
    /// the operator's frame current, run its body and time it, then count
    /// the chunk and charge its rows to the row budget.
    pub fn next_chunk(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        ctx.budget.check()?;
        ctx.metrics.resume(self.frame);
        let start = Instant::now();
        let pulled = self.body.next_chunk(ctx);
        let emitted = match &pulled {
            Ok(Some(chunk)) if self.streaming => Some(chunk.num_rows() as u64),
            _ => None,
        };
        if let Some(rows) = emitted {
            ctx.metrics.frame().stats.batches_processed += 1;
            ctx.rows_emitted += rows;
        }
        ctx.metrics
            .exit(emitted.unwrap_or(0), start.elapsed().as_nanos() as u64);
        let chunk = pulled?;
        if emitted.is_some() {
            ctx.budget.check_rows(ctx.rows_emitted)?;
        }
        Ok(chunk)
    }
}

/// Drain an operator's full output into one flat batch.
///
/// This is how pipeline breakers and the executor root consume their
/// inputs.
pub fn collect_input(op: &dyn PhysicalOperator, ctx: &mut ExecContext<'_>) -> Result<Batch> {
    let mut stream = open_stream(op, ctx)?;
    let mut parts: Vec<Batch> = Vec::new();
    while let Some(chunk) = stream.next_chunk(ctx)? {
        parts.push(chunk);
    }
    match parts.len() {
        0 => Ok(Batch::empty(stream.schema())),
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
