//! SQL/OLAP window functions.
//!
//! This module is the engine's implementation of the SQL99 OLAP amendment
//! subset the paper relies on: scalar aggregates over `PARTITION BY ...
//! ORDER BY ...` windows with `ROWS` or `RANGE` frames, e.g.
//!
//! ```sql
//! max(biz_loc) OVER (PARTITION BY epc ORDER BY rtime ASC
//!                    ROWS BETWEEN 1 PRECEDING AND 1 PRECEDING)
//! ```
//!
//! The input batch must already be sorted by (partition keys, order keys);
//! the [`crate::plan::LogicalPlan::Window`] node inserts a sort when needed
//! and the optimizer removes it when the ordering is already available —
//! the "order sharing" effect central to the paper's §6.2 analysis.
//!
//! Evaluation is columnar end to end: partition boundaries, frame walks and
//! aggregates read the native payload slices of the key, order and argument
//! columns and append to typed output columns ([`WindowEval`]); no scalar
//! [`Value`](crate::value::Value) is materialized per row.

use crate::batch::Batch;
use crate::column::{with_native, Column, ColumnBuilder, Native};
use crate::error::{Error, Result};
use crate::expr::Expr;
use crate::physical::QueryBudget;
use crate::value::DataType;
use std::collections::VecDeque;
use std::fmt;

/// Frame bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameBound {
    UnboundedPreceding,
    /// `n PRECEDING` (rows or range units).
    Preceding(i64),
    CurrentRow,
    /// `n FOLLOWING` (rows or range units).
    Following(i64),
    UnboundedFollowing,
}

impl fmt::Display for FrameBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameBound::UnboundedPreceding => f.write_str("UNBOUNDED PRECEDING"),
            FrameBound::Preceding(n) => write!(f, "{n} PRECEDING"),
            FrameBound::CurrentRow => f.write_str("CURRENT ROW"),
            FrameBound::Following(n) => write!(f, "{n} FOLLOWING"),
            FrameBound::UnboundedFollowing => f.write_str("UNBOUNDED FOLLOWING"),
        }
    }
}

/// Frame units: physical rows or logical range over the order key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameUnits {
    Rows,
    Range,
}

/// A window frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    pub units: FrameUnits,
    pub start: FrameBound,
    pub end: FrameBound,
}

impl Frame {
    pub fn rows(start: FrameBound, end: FrameBound) -> Self {
        Frame {
            units: FrameUnits::Rows,
            start,
            end,
        }
    }

    pub fn range(start: FrameBound, end: FrameBound) -> Self {
        Frame {
            units: FrameUnits::Range,
            start,
            end,
        }
    }
}

impl fmt::Display for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} BETWEEN {} AND {}",
            match self.units {
                FrameUnits::Rows => "ROWS",
                FrameUnits::Range => "RANGE",
            },
            self.start,
            self.end
        )
    }
}

/// Aggregate function kinds usable over a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowFuncKind {
    Max,
    Min,
    Sum,
    /// `count(expr)` — counts non-null frame rows; with no argument, `count(*)`.
    Count,
    Avg,
}

impl fmt::Display for WindowFuncKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            WindowFuncKind::Max => "max",
            WindowFuncKind::Min => "min",
            WindowFuncKind::Sum => "sum",
            WindowFuncKind::Count => "count",
            WindowFuncKind::Avg => "avg",
        };
        f.write_str(s)
    }
}

/// One window aggregate: `func(arg) OVER (<shared partition/order> frame)`.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowExpr {
    pub func: WindowFuncKind,
    /// `None` means `count(*)`.
    pub arg: Option<Expr>,
    pub frame: Frame,
    /// Output column name.
    pub alias: String,
}

impl fmt::Display for WindowExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.arg {
            Some(a) => write!(
                f,
                "{}({a}) OVER ({}) AS {}",
                self.func, self.frame, self.alias
            ),
            None => write!(
                f,
                "{}(*) OVER ({}) AS {}",
                self.func, self.frame, self.alias
            ),
        }
    }
}

impl WindowExpr {
    /// Result type of this window aggregate.
    pub fn data_type(&self, schema: &crate::schema::Schema) -> Result<DataType> {
        match self.func {
            WindowFuncKind::Count => Ok(DataType::Int),
            WindowFuncKind::Avg => Ok(DataType::Double),
            WindowFuncKind::Sum => {
                let arg = self
                    .arg
                    .as_ref()
                    .ok_or_else(|| Error::Plan("sum() requires an argument".into()))?;
                Ok(arg.data_type(schema)?)
            }
            WindowFuncKind::Max | WindowFuncKind::Min => {
                let arg = self
                    .arg
                    .as_ref()
                    .ok_or_else(|| Error::Plan(format!("{}() requires an argument", self.func)))?;
                Ok(arg.data_type(schema)?)
            }
        }
    }
}

/// Find partition boundaries: ranges of rows with equal partition-key values
/// (NULLs compare equal for partitioning, per SQL; doubles compare by bit
/// pattern, as `Value::eq`). Adjacent cells are compared on the typed
/// payloads — no scalar is materialized.
pub fn partition_ranges(cols: &[Column], n: usize) -> Vec<(usize, usize)> {
    if n == 0 {
        return vec![];
    }
    // starts[i]: row i differs from row i - 1 in some key column.
    let mut starts = vec![false; n];
    for c in cols {
        with_native!(c.data_type(), T => mark_boundaries::<T>(c, &mut starts));
    }
    let mut ranges = Vec::new();
    let mut start = 0;
    for (i, _) in starts.iter().enumerate().skip(1).filter(|(_, &s)| s) {
        ranges.push((start, i));
        start = i;
    }
    ranges.push((start, n));
    ranges
}

fn mark_boundaries<T: Native>(col: &Column, starts: &mut [bool]) {
    let vals = col
        .values::<T>()
        .expect("element type picked from the column");
    let nullable = col.has_nulls();
    for (i, start) in starts.iter_mut().enumerate().skip(1) {
        *start |= if nullable && (col.is_null(i - 1) || col.is_null(i)) {
            col.is_null(i - 1) != col.is_null(i)
        } else {
            !vals[i].same(&vals[i - 1])
        };
    }
}

/// Number of leading NULL order keys in partition `[p_lo, p_hi)`. The input
/// is sorted with NULLs first, so the NULLs form a prefix and a binary
/// search finds its length.
fn null_prefix_len(key: &Column, p_lo: usize, p_hi: usize) -> usize {
    let mut lo = p_lo;
    let mut hi = p_hi;
    while lo < hi {
        let mid = (lo + hi) / 2;
        if key.is_null(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo - p_lo
}

/// Prepared state for evaluating a set of window aggregates over one batch
/// **already sorted** by (partition keys, order keys).
///
/// All expression evaluation against the batch happens in [`prepare`]
/// (partition keys, order key, aggregate arguments), so per-partition
/// evaluation afterwards is a pure read-only computation — this is what lets
/// the physical window operator farm partitions out to worker threads.
///
/// [`prepare`]: WindowEval::prepare
pub struct WindowEval<'a> {
    exprs: &'a [WindowExpr],
    order_col: Option<Column>,
    /// A Double order key truncated to the `i64` RANGE frames compare (an
    /// Int key is read in place); only built when some frame is RANGE.
    order_trunc: Option<Vec<i64>>,
    /// Evaluated argument column per expression (`None` for `count(*)`).
    arg_cols: Vec<Option<Column>>,
    out_types: Vec<DataType>,
    ranges: Vec<(usize, usize)>,
}

impl<'a> WindowEval<'a> {
    pub fn prepare(
        batch: &Batch,
        partition_by: &[Expr],
        order_by_key: Option<&Expr>,
        exprs: &'a [WindowExpr],
    ) -> Result<Self> {
        let n = batch.num_rows();
        let part_cols: Vec<Column> = partition_by
            .iter()
            .map(|e| e.evaluate(batch))
            .collect::<Result<_>>()?;
        let order_col = order_by_key.map(|e| e.evaluate(batch)).transpose()?;
        let order_trunc = order_col
            .as_ref()
            .filter(|_| exprs.iter().any(|we| we.frame.units == FrameUnits::Range))
            .and_then(Column::double_values)
            .map(|keys| keys.iter().map(|&k| k as i64).collect());
        let arg_cols = exprs
            .iter()
            .map(|we| we.arg.as_ref().map(|a| a.evaluate(batch)).transpose())
            .collect::<Result<_>>()?;
        let out_types = exprs
            .iter()
            .map(|we| we.data_type(batch.schema()))
            .collect::<Result<_>>()?;
        let ranges = partition_ranges(&part_cols, n);
        Ok(WindowEval {
            exprs,
            order_col,
            order_trunc,
            arg_cols,
            out_types,
            ranges,
        })
    }

    /// The partition ranges, in input (sorted) order.
    pub fn partitions(&self) -> &[(usize, usize)] {
        &self.ranges
    }

    /// Evaluate all window expressions over the consecutive partitions
    /// `parts` with the typed sliding kernels. Returns one column per
    /// expression, row-aligned with `parts`' rows, plus the number of
    /// accumulator operations performed (the work counter: one per frame
    /// position entering or leaving an aggregate state — amortized O(1) per
    /// row, independent of frame width — plus per-frame recomputation work
    /// for floating-point sums). `budget` is checked before each partition;
    /// a tripped budget aborts the evaluation.
    ///
    /// The counter is a pure function of the data, however `parts` is cut
    /// into calls.
    pub fn eval_partitions(
        &self,
        parts: &[(usize, usize)],
        budget: &QueryBudget,
    ) -> Result<(Vec<Column>, u64)> {
        let rows = parts.iter().map(|&(lo, hi)| hi - lo).sum();
        let mut kernels: Vec<Box<dyn PartitionKernel + '_>> = self
            .exprs
            .iter()
            .zip(&self.arg_cols)
            .map(|(we, arg)| self.kernel(we, arg.as_ref()))
            .collect::<Result<_>>()?;
        let mut outs: Vec<ColumnBuilder> = self
            .out_types
            .iter()
            .map(|&dt| ColumnBuilder::new(dt, rows))
            .collect();
        let mut ops: u64 = 0;
        for &(p_lo, p_hi) in parts {
            budget.check()?;
            for (kernel, out) in kernels.iter_mut().zip(&mut outs) {
                kernel.eval(p_lo, p_hi, out, &mut ops)?;
            }
        }
        Ok((outs.into_iter().map(ColumnBuilder::finish).collect(), ops))
    }

    /// [`eval_partitions`](WindowEval::eval_partitions) over one partition.
    pub fn eval_partition(&self, range: (usize, usize)) -> Result<(Vec<Column>, u64)> {
        self.eval_partitions(&[range], &QueryBudget::unlimited())
    }

    /// Pick the typed kernel for one expression: the one place that looks
    /// at (function, argument type, frame shape).
    fn kernel<'e>(
        &'e self,
        we: &'e WindowExpr,
        arg: Option<&'e Column>,
    ) -> Result<Box<dyn PartitionKernel + 'e>> {
        let need_arg =
            || arg.ok_or_else(|| Error::Plan(format!("{}() requires an argument", we.func)));
        Ok(match we.func {
            WindowFuncKind::Count => match arg {
                None => self.sliding(we, CountStar),
                Some(col) => self.sliding(we, CountArg { col, nonnull: 0 }),
            },
            WindowFuncKind::Max | WindowFuncKind::Min => {
                let col = need_arg()?;
                if let Some(offset) = single_row_offset(&we.frame) {
                    return Ok(Box::new(Shift { col, offset }));
                }
                let is_max = we.func == WindowFuncKind::Max;
                with_native!(col.data_type(), T => self.sliding(we, MinMax::<T> {
                    vals: col.values().expect("element type picked from the column"),
                    col,
                    is_max,
                    deque: VecDeque::new(),
                }))
            }
            WindowFuncKind::Sum | WindowFuncKind::Avg => {
                let col = need_arg()?;
                let avg = we.func == WindowFuncKind::Avg;
                if let Some(vals) = col.int_values() {
                    self.sliding(
                        we,
                        IntSum {
                            vals,
                            col,
                            avg,
                            sum: 0,
                            nonnull: 0,
                        },
                    )
                } else if let Some(vals) = col.double_values() {
                    self.sliding(we, DoubleSum { vals, col, avg })
                } else {
                    self.sliding(we, NonNumeric { col })
                }
            }
        })
    }

    fn sliding<'e, A: Accumulator + 'e>(
        &'e self,
        we: &'e WindowExpr,
        acc: A,
    ) -> Box<dyn PartitionKernel + 'e> {
        Box::new(Sliding { ev: self, we, acc })
    }
}

/// One window expression with its typed dispatch already done: evaluates
/// partition `[p_lo, p_hi)` by appending `p_hi - p_lo` rows to `out` and
/// adding its accumulator operations to `ops`.
trait PartitionKernel {
    fn eval(
        &mut self,
        p_lo: usize,
        p_hi: usize,
        out: &mut ColumnBuilder,
        ops: &mut u64,
    ) -> Result<()>;
}

/// `Some(d)` when `frame` is the single row `d` positions after the current
/// one — `ROWS BETWEEN 1 PRECEDING AND 1 PRECEDING` is `-1`.
fn single_row_offset(frame: &Frame) -> Option<i64> {
    let offset = |bound| match bound {
        FrameBound::Preceding(k) => k.checked_neg(),
        FrameBound::CurrentRow => Some(0),
        FrameBound::Following(k) => Some(k),
        FrameBound::UnboundedPreceding | FrameBound::UnboundedFollowing => None,
    };
    let (start, end) = (offset(frame.start)?, offset(frame.end)?);
    (frame.units == FrameUnits::Rows && start == end).then_some(start)
}

/// `min`/`max` over a single-row frame — every lag and lead the cleansing
/// rules compile to — is the argument column shifted by `offset` rows inside
/// the partition: two slice copies, no per-row state.
struct Shift<'c> {
    col: &'c Column,
    offset: i64,
}

impl PartitionKernel for Shift<'_> {
    fn eval(
        &mut self,
        p_lo: usize,
        p_hi: usize,
        out: &mut ColumnBuilder,
        ops: &mut u64,
    ) -> Result<()> {
        let n = p_hi - p_lo;
        // Rows whose frame falls outside the partition, and rows that have one.
        let outside = usize::try_from(self.offset.unsigned_abs()).map_or(n, |k| k.min(n));
        let inside = n - outside;
        if self.offset <= 0 {
            out.append_nulls(outside);
            out.extend_from_range(self.col, p_lo, inside);
        } else {
            out.extend_from_range(self.col, p_lo + outside, inside);
            out.append_nulls(outside);
        }
        // What sliding a one-row coverage window over the partition counts:
        // every framed position enters once, and leaves once unless the
        // partition ends while it is still covered (a lag's last frame).
        if inside > 0 {
            *ops += 2 * inside as u64 - u64::from(self.offset <= 0);
        }
        Ok(())
    }
}

/// Per-expression sliding aggregate state over typed slices. Positions
/// enter and leave the covered window `[lo, hi_ex)`; `emit` appends the
/// aggregate over the current, nonempty window.
trait Accumulator {
    /// Stateless aggregates that rescan the window on every `emit`.
    const RECOMPUTES: bool = false;
    fn reset(&mut self) {}
    fn enter(&mut self, _i: usize) -> Result<()> {
        Ok(())
    }
    fn evict(&mut self, _i: usize) {}
    fn emit(&self, lo: usize, hi_ex: usize, out: &mut ColumnBuilder) -> Result<()>;
}

/// An [`Accumulator`] slid over one expression's ROWS or RANGE frames.
struct Sliding<'e, A> {
    ev: &'e WindowEval<'e>,
    we: &'e WindowExpr,
    acc: A,
}

impl<A: Accumulator> PartitionKernel for Sliding<'_, A> {
    fn eval(
        &mut self,
        p_lo: usize,
        p_hi: usize,
        out: &mut ColumnBuilder,
        ops: &mut u64,
    ) -> Result<()> {
        let frame = &self.we.frame;
        validate_frame(frame)?;
        match frame.units {
            FrameUnits::Rows => self.slide(
                p_lo..p_hi,
                out,
                ops,
                |i| rows_window(frame, i, p_lo, p_hi),
                |_| false,
            ),
            FrameUnits::Range => {
                let key = self.ev.order_col.as_ref().ok_or_else(|| {
                    Error::Plan("RANGE frame requires exactly one numeric ORDER BY key".into())
                })?;
                let nn = null_prefix_len(key, p_lo, p_hi);
                let nn_lo = p_lo + nn;
                if nn > 0 {
                    // NULL peer group: every NULL-key row shares the frame
                    // `[p_lo, nn_lo)` — compute its aggregate once.
                    self.acc.reset();
                    for i in p_lo..nn_lo {
                        self.acc.enter(i)?;
                    }
                    *ops += nn as u64;
                    self.acc.emit(p_lo, nn_lo, out)?;
                    out.repeat_last(nn - 1);
                }
                if nn_lo == p_hi {
                    return Ok(());
                }
                let keys = key
                    .int_values()
                    .or(self.ev.order_trunc.as_deref())
                    .ok_or_else(|| {
                        Error::Execution("RANGE frame requires a numeric ORDER BY key".into())
                    })?;
                let mut range = RangeBounds {
                    start: frame.start,
                    end: frame.end,
                    keys,
                    p_lo,
                    p_hi,
                    lo_ptr: nn_lo,
                    hi_ptr: nn_lo,
                };
                let unbounded_start = frame.start == FrameBound::UnboundedPreceding;
                self.slide(
                    nn_lo..p_hi,
                    out,
                    ops,
                    |i| range.window(i),
                    // UNBOUNDED PRECEDING start with a bounded end whose
                    // threshold admits no non-NULL key: the frame is empty,
                    // even though the coverage window spans the NULL prefix.
                    |hi_ex| unbounded_start && nn > 0 && hi_ex == nn_lo,
                )
            }
        }
    }
}

impl<A: Accumulator> Sliding<'_, A> {
    /// Slide the accumulator over `rows`, appending one output per row.
    /// `target` yields the row's half-open frame window (both ends
    /// nondecreasing); `force_empty`, given the window's end, marks frames
    /// that are empty even though the coverage window is not (the RANGE
    /// NULL-prefix corner). `ops` counts every frame position
    /// entering or leaving the accumulator state.
    fn slide(
        &mut self,
        rows: std::ops::Range<usize>,
        out: &mut ColumnBuilder,
        ops: &mut u64,
        mut target: impl FnMut(usize) -> (usize, usize),
        force_empty: impl Fn(usize) -> bool,
    ) -> Result<()> {
        let acc = &mut self.acc;
        let push_empty = |out: &mut ColumnBuilder| match self.we.func {
            WindowFuncKind::Count => out.push_native(0i64),
            _ => out.push_null(),
        };
        acc.reset();
        if A::RECOMPUTES {
            // Floating-point sums rescan each frame so the result stays
            // bit-identical to a per-frame sum (FP addition is not
            // associative, so subtract-on-evict could drift). Ops degrade
            // to frame size.
            for i in rows {
                let (lo, hi_ex) = target(i);
                if hi_ex <= lo || force_empty(hi_ex) {
                    push_empty(out);
                } else {
                    *ops += (hi_ex - lo) as u64;
                    acc.emit(lo, hi_ex, out)?;
                }
            }
            return Ok(());
        }
        // Coverage window `[cov_lo, cov_hi)`: the positions currently in the
        // accumulator. Both target ends are monotone, so positions enter and
        // leave at most once each — ≤ 2 ops per row amortized. Coverage
        // starts at the first frame's own start, which may precede the first
        // row (a RANGE frame with an UNBOUNDED PRECEDING start spans the NULL
        // prefix even though iteration begins at the first non-NULL row).
        let mut cov_lo = usize::MAX;
        let mut cov_hi = usize::MAX;
        for i in rows {
            let (lo, hi_ex) = target(i);
            if cov_lo == usize::MAX {
                (cov_lo, cov_hi) = (lo, lo);
            }
            while cov_lo < cov_hi && cov_lo < lo {
                acc.evict(cov_lo);
                cov_lo += 1;
                *ops += 1;
            }
            if cov_hi < lo {
                // The window jumped past the old coverage: nothing in
                // `[cov_hi, lo)` was ever entered.
                cov_lo = lo;
                cov_hi = lo;
            }
            while cov_hi < hi_ex {
                acc.enter(cov_hi)?;
                cov_hi += 1;
                *ops += 1;
            }
            if cov_hi == cov_lo || force_empty(hi_ex) {
                push_empty(out);
            } else {
                acc.emit(cov_lo, cov_hi, out)?;
            }
        }
        Ok(())
    }
}

fn validate_frame(frame: &Frame) -> Result<()> {
    if frame.start == FrameBound::UnboundedFollowing {
        return Err(Error::Plan(
            "frame start cannot be UNBOUNDED FOLLOWING".into(),
        ));
    }
    if frame.end == FrameBound::UnboundedPreceding {
        return Err(Error::Plan(
            "frame end cannot be UNBOUNDED PRECEDING".into(),
        ));
    }
    Ok(())
}

/// Half-open positional (ROWS) window `[lo, hi_ex)` of a validated frame for
/// row `i`; both ends are nondecreasing in `i`, which is what lets the
/// kernels slide.
fn rows_window(frame: &Frame, i: usize, p_lo: usize, p_hi: usize) -> (usize, usize) {
    let clamp = |x: i64| x.clamp(p_lo as i64, p_hi as i64) as usize;
    let lo = clamp(match frame.start {
        FrameBound::UnboundedPreceding => p_lo as i64,
        FrameBound::Preceding(k) => i as i64 - k,
        FrameBound::CurrentRow => i as i64,
        FrameBound::Following(k) => i as i64 + k,
        FrameBound::UnboundedFollowing => unreachable!("rejected by validate_frame"),
    });
    let hi_ex = clamp(match frame.end {
        FrameBound::UnboundedPreceding => unreachable!("rejected by validate_frame"),
        FrameBound::Preceding(k) => i as i64 - k + 1,
        FrameBound::CurrentRow => i as i64 + 1,
        FrameBound::Following(k) => i as i64 + k + 1,
        FrameBound::UnboundedFollowing => p_hi as i64,
    });
    (lo, hi_ex.max(lo))
}

/// RANGE frame bounds of a validated frame as two monotone pointers over the
/// sorted non-NULL `i64` keys: because the current row's key is
/// nondecreasing, the `first key ≥ start-threshold` and `first key >
/// end-threshold` positions only ever move forward, so each is advanced
/// incrementally instead of binary-searched — the same two-pointer structure
/// the accumulators rely on.
struct RangeBounds<'c> {
    start: FrameBound,
    end: FrameBound,
    keys: &'c [i64],
    p_lo: usize,
    p_hi: usize,
    lo_ptr: usize,
    hi_ptr: usize,
}

impl RangeBounds<'_> {
    fn window(&mut self, i: usize) -> (usize, usize) {
        let v = self.keys[i];
        let lo = match self.start {
            FrameBound::UnboundedPreceding => self.p_lo,
            FrameBound::Preceding(k) => self.advance_lo(v - k),
            FrameBound::CurrentRow => self.advance_lo(v),
            FrameBound::Following(k) => self.advance_lo(v + k),
            FrameBound::UnboundedFollowing => unreachable!("rejected by validate_frame"),
        };
        let hi_ex = match self.end {
            FrameBound::UnboundedPreceding => unreachable!("rejected by validate_frame"),
            FrameBound::Preceding(k) => self.advance_hi(v - k),
            FrameBound::CurrentRow => self.advance_hi(v),
            FrameBound::Following(k) => self.advance_hi(v + k),
            FrameBound::UnboundedFollowing => self.p_hi,
        };
        (lo, hi_ex.max(lo))
    }

    /// First position whose key is ≥ `threshold`.
    fn advance_lo(&mut self, threshold: i64) -> usize {
        while self.lo_ptr < self.p_hi && self.keys[self.lo_ptr] < threshold {
            self.lo_ptr += 1;
        }
        self.lo_ptr
    }

    /// One past the last position whose key is ≤ `threshold`.
    fn advance_hi(&mut self, threshold: i64) -> usize {
        while self.hi_ptr < self.p_hi && self.keys[self.hi_ptr] <= threshold {
            self.hi_ptr += 1;
        }
        self.hi_ptr
    }
}

/// `count(*)`: the frame size is the answer.
struct CountStar;

impl Accumulator for CountStar {
    fn emit(&self, lo: usize, hi_ex: usize, out: &mut ColumnBuilder) -> Result<()> {
        out.push_native((hi_ex - lo) as i64);
        Ok(())
    }
}

/// `count(expr)`: running non-NULL count.
struct CountArg<'c> {
    col: &'c Column,
    nonnull: i64,
}

impl Accumulator for CountArg<'_> {
    fn reset(&mut self) {
        self.nonnull = 0;
    }
    fn enter(&mut self, i: usize) -> Result<()> {
        self.nonnull += i64::from(!self.col.is_null(i));
        Ok(())
    }
    fn evict(&mut self, i: usize) {
        self.nonnull -= i64::from(!self.col.is_null(i));
    }
    fn emit(&self, _: usize, _: usize, out: &mut ColumnBuilder) -> Result<()> {
        out.push_native(self.nonnull);
        Ok(())
    }
}

/// Integer `sum`/`avg`: exact i128 running sum — wide enough that the
/// running value never wraps, with the i64 range enforced only on the
/// emitted frame total (as summing each frame on its own would).
struct IntSum<'c> {
    vals: &'c [i64],
    col: &'c Column,
    avg: bool,
    sum: i128,
    nonnull: i64,
}

impl Accumulator for IntSum<'_> {
    fn reset(&mut self) {
        self.sum = 0;
        self.nonnull = 0;
    }
    fn enter(&mut self, i: usize) -> Result<()> {
        if !self.col.is_null(i) {
            self.sum += self.vals[i] as i128;
            self.nonnull += 1;
        }
        Ok(())
    }
    fn evict(&mut self, i: usize) {
        if !self.col.is_null(i) {
            self.sum -= self.vals[i] as i128;
            self.nonnull -= 1;
        }
    }
    fn emit(&self, _: usize, _: usize, out: &mut ColumnBuilder) -> Result<()> {
        if self.nonnull == 0 {
            out.push_null();
        } else if self.avg {
            out.push_native(self.sum as f64 / self.nonnull as f64);
        } else {
            out.push_native(
                i64::try_from(self.sum)
                    .map_err(|_| Error::Execution("sum overflow in window aggregate".into()))?,
            );
        }
        Ok(())
    }
}

/// Floating-point `sum`/`avg`: no running state, every frame is summed
/// front to back, in row order.
struct DoubleSum<'c> {
    vals: &'c [f64],
    col: &'c Column,
    avg: bool,
}

impl Accumulator for DoubleSum<'_> {
    const RECOMPUTES: bool = true;
    fn emit(&self, lo: usize, hi_ex: usize, out: &mut ColumnBuilder) -> Result<()> {
        let mut sum = 0.0f64;
        let mut nonnull = 0i64;
        for i in (lo..hi_ex).filter(|&i| !self.col.is_null(i)) {
            sum += self.vals[i];
            nonnull += 1;
        }
        if nonnull == 0 {
            out.push_null();
        } else if self.avg {
            out.push_native(sum / nonnull as f64);
        } else {
            out.push_native(sum);
        }
        Ok(())
    }
}

/// `sum`/`avg` over a Bool or Str argument: NULL as long as every framed
/// value is NULL, an error at the first one that is not.
struct NonNumeric<'c> {
    col: &'c Column,
}

impl Accumulator for NonNumeric<'_> {
    fn enter(&mut self, i: usize) -> Result<()> {
        if self.col.is_null(i) {
            return Ok(());
        }
        Err(Error::Execution(format!(
            "sum/avg over non-numeric value {}",
            self.col.value(i)
        )))
    }
    fn emit(&self, _: usize, _: usize, out: &mut ColumnBuilder) -> Result<()> {
        out.push_null();
        Ok(())
    }
}

/// `min`/`max`: monotonic deque of candidate positions. The back is popped
/// only on *strict* domination, so among equal values the earliest survives
/// at the front — the tie a front-to-back scan of the frame keeps.
struct MinMax<'c, T> {
    vals: &'c [T],
    col: &'c Column,
    is_max: bool,
    deque: VecDeque<usize>,
}

impl<T: Native> Accumulator for MinMax<'_, T> {
    fn reset(&mut self) {
        self.deque.clear();
    }
    fn enter(&mut self, i: usize) -> Result<()> {
        if self.col.is_null(i) {
            return Ok(());
        }
        while let Some(&back) = self.deque.back() {
            let o = self.vals[back].total_cmp(&self.vals[i]);
            if (self.is_max && o.is_lt()) || (!self.is_max && o.is_gt()) {
                self.deque.pop_back();
            } else {
                break;
            }
        }
        self.deque.push_back(i);
        Ok(())
    }
    fn evict(&mut self, i: usize) {
        if self.deque.front() == Some(&i) {
            self.deque.pop_front();
        }
    }
    fn emit(&self, _: usize, _: usize, out: &mut ColumnBuilder) -> Result<()> {
        match self.deque.front() {
            Some(&i) => out.push_native(self.vals[i].clone()),
            None => out.push_null(),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::schema_ref;
    use crate::schema::{Field, Schema};
    use crate::value::Value;

    /// Evaluate window aggregates serially over a batch **already sorted**
    /// by (partition keys, order keys): one output column per `WindowExpr`,
    /// plus the number of aggregate evaluations (a work counter).
    fn evaluate_window(
        batch: &Batch,
        partition_by: &[Expr],
        order_by_key: Option<&Expr>,
        exprs: &[WindowExpr],
    ) -> Result<(Vec<Column>, u64)> {
        let ev = WindowEval::prepare(batch, partition_by, order_by_key, exprs)?;
        ev.eval_partitions(ev.partitions(), &QueryBudget::unlimited())
    }

    /// epc-sorted reads: (epc, rtime, loc)
    fn reads() -> Batch {
        let schema = schema_ref(Schema::new(vec![
            Field::new("epc", DataType::Str),
            Field::new("rtime", DataType::Int),
            Field::new("loc", DataType::Str),
        ]));
        Batch::from_rows(
            schema,
            &[
                vec![Value::str("e1"), Value::Int(10), Value::str("a")],
                vec![Value::str("e1"), Value::Int(20), Value::str("a")],
                vec![Value::str("e1"), Value::Int(50), Value::str("b")],
                vec![Value::str("e2"), Value::Int(5), Value::str("c")],
                vec![Value::str("e2"), Value::Int(90), Value::str("d")],
            ],
        )
        .unwrap()
    }

    fn prev_loc_expr() -> WindowExpr {
        WindowExpr {
            func: WindowFuncKind::Max,
            arg: Some(Expr::col("loc")),
            frame: Frame::rows(FrameBound::Preceding(1), FrameBound::Preceding(1)),
            alias: "loc_before".into(),
        }
    }

    /// Partition boundaries, case by case: a boundary is any adjacent pair
    /// that differs under `Value::eq` in some key column.
    #[test]
    fn partition_ranges_semantics_table() {
        use DataType::{Bool, Double, Int, Str};
        let null = Value::Null;
        let d = Value::Double;
        let nan2 = f64::from_bits(f64::NAN.to_bits() ^ 1);
        struct Case {
            name: &'static str,
            keys: Vec<(DataType, Vec<Value>)>,
            expect: Vec<(usize, usize)>,
        }
        let cases = vec![
            Case {
                name: "empty input",
                keys: vec![(Int, vec![])],
                expect: vec![],
            },
            Case {
                name: "no key columns: one partition",
                keys: vec![],
                expect: vec![(0, 3)],
            },
            Case {
                name: "single row",
                keys: vec![(Str, vec![Value::str("a")])],
                expect: vec![(0, 1)],
            },
            Case {
                name: "single-row partitions between runs",
                keys: vec![(Int, [1, 1, 2, 3, 3].map(Value::Int).to_vec())],
                expect: vec![(0, 2), (2, 3), (3, 5)],
            },
            Case {
                name: "NULL = NULL, NULL <> value (whatever the slot holds)",
                keys: vec![(
                    Int,
                    vec![null.clone(), null.clone(), Value::Int(0), null.clone()],
                )],
                expect: vec![(0, 2), (2, 3), (3, 4)],
            },
            Case {
                name: "strings compare by content",
                keys: vec![(
                    Str,
                    vec![
                        Value::str("e1"),
                        Value::str(format!("e{}", 1)),
                        Value::str("e10"),
                        null.clone(),
                        null.clone(),
                    ],
                )],
                expect: vec![(0, 2), (2, 3), (3, 5)],
            },
            Case {
                name: "booleans",
                keys: vec![(Bool, [false, false, true].map(Value::Bool).to_vec())],
                expect: vec![(0, 2), (2, 3)],
            },
            Case {
                name: "doubles by bit pattern: NaN = NaN, -0.0 <> 0.0, NaN payloads differ",
                keys: vec![(
                    Double,
                    vec![d(f64::NAN), d(f64::NAN), d(nan2), d(-0.0), d(0.0), d(0.0)],
                )],
                expect: vec![(0, 2), (2, 3), (3, 4), (4, 6)],
            },
            Case {
                name: "multi-column key: a change in any column is a boundary",
                keys: vec![
                    (Str, ["a", "a", "a", "b", "b"].map(Value::str).to_vec()),
                    (
                        Int,
                        vec![
                            Value::Int(1),
                            Value::Int(1),
                            null.clone(),
                            null.clone(),
                            null.clone(),
                        ],
                    ),
                ],
                expect: vec![(0, 2), (2, 3), (3, 5)],
            },
        ];
        for case in cases {
            let n = case.keys.first().map_or(3, |(_, v)| v.len());
            let cols: Vec<Column> = case
                .keys
                .iter()
                .map(|(dt, vals)| Column::from_values(*dt, vals).unwrap())
                .collect();
            assert_eq!(partition_ranges(&cols, n), case.expect, "{}", case.name);
            // The same key cells seen through a window into a longer payload.
            let windowed: Vec<Column> = case
                .keys
                .iter()
                .map(|(dt, vals)| {
                    let mut padded = vec![Value::Null];
                    padded.extend(vals.iter().cloned());
                    Column::from_values(*dt, &padded).unwrap().slice(1, n)
                })
                .collect();
            assert_eq!(
                partition_ranges(&windowed, n),
                case.expect,
                "{} (windowed)",
                case.name
            );
        }
    }

    #[test]
    fn rows_one_preceding_is_lag() {
        let (cols, _) = evaluate_window(
            &reads(),
            &[Expr::col("epc")],
            Some(&Expr::col("rtime")),
            &[prev_loc_expr()],
        )
        .unwrap();
        let c = &cols[0];
        // First row of each partition has an empty frame -> NULL.
        assert!(c.is_null(0));
        assert_eq!(c.value(1), Value::str("a"));
        assert_eq!(c.value(2), Value::str("a"));
        assert!(c.is_null(3));
        assert_eq!(c.value(4), Value::str("c"));
    }

    #[test]
    fn range_following_window() {
        // has_b_within_30s_after: max(case loc='b') over range (1 following, 30 following)
        let case = Expr::Case {
            branches: vec![(Expr::col("loc").eq(Expr::lit("b")), Expr::lit(1i64))],
            else_expr: Some(Box::new(Expr::lit(0i64))),
        };
        let we = WindowExpr {
            func: WindowFuncKind::Max,
            arg: Some(case),
            frame: Frame::range(FrameBound::Following(1), FrameBound::Following(30)),
            alias: "has_b_after".into(),
        };
        let (cols, _) = evaluate_window(
            &reads(),
            &[Expr::col("epc")],
            Some(&Expr::col("rtime")),
            &[we],
        )
        .unwrap();
        let c = &cols[0];
        // e1@10: window (11..=40] contains rtime=20 (loc=a) -> 0
        assert_eq!(c.value(0), Value::Int(0));
        // e1@20: window (21..=50] contains rtime=50 (loc=b) -> 1
        assert_eq!(c.value(1), Value::Int(1));
        // e1@50: nothing after -> empty frame -> NULL
        assert!(c.is_null(2));
        // e2@5: window contains nothing within 30 -> empty -> NULL
        assert!(c.is_null(3));
    }

    #[test]
    fn count_star_over_partition() {
        let we = WindowExpr {
            func: WindowFuncKind::Count,
            arg: None,
            frame: Frame::rows(
                FrameBound::UnboundedPreceding,
                FrameBound::UnboundedFollowing,
            ),
            alias: "n".into(),
        };
        let (cols, _) = evaluate_window(
            &reads(),
            &[Expr::col("epc")],
            Some(&Expr::col("rtime")),
            &[we],
        )
        .unwrap();
        let c = &cols[0];
        assert_eq!(c.value(0), Value::Int(3));
        assert_eq!(c.value(4), Value::Int(2));
    }

    #[test]
    fn empty_count_frame_is_zero() {
        let we = WindowExpr {
            func: WindowFuncKind::Count,
            arg: None,
            frame: Frame::rows(FrameBound::Preceding(1), FrameBound::Preceding(1)),
            alias: "n".into(),
        };
        let (cols, _) = evaluate_window(
            &reads(),
            &[Expr::col("epc")],
            Some(&Expr::col("rtime")),
            &[we],
        )
        .unwrap();
        assert_eq!(cols[0].value(0), Value::Int(0));
        assert_eq!(cols[0].value(1), Value::Int(1));
    }

    #[test]
    fn sum_and_avg() {
        let sum = WindowExpr {
            func: WindowFuncKind::Sum,
            arg: Some(Expr::col("rtime")),
            frame: Frame::rows(FrameBound::UnboundedPreceding, FrameBound::CurrentRow),
            alias: "s".into(),
        };
        let avg = WindowExpr {
            func: WindowFuncKind::Avg,
            arg: Some(Expr::col("rtime")),
            frame: Frame::rows(
                FrameBound::UnboundedPreceding,
                FrameBound::UnboundedFollowing,
            ),
            alias: "a".into(),
        };
        let (cols, _) = evaluate_window(
            &reads(),
            &[Expr::col("epc")],
            Some(&Expr::col("rtime")),
            &[sum, avg],
        )
        .unwrap();
        assert_eq!(cols[0].value(2), Value::Int(80));
        assert_eq!(cols[1].value(3), Value::Double(47.5));
    }

    #[test]
    fn no_partition_is_single_sequence() {
        let we = prev_loc_expr();
        let (cols, _) = evaluate_window(&reads(), &[], Some(&Expr::col("rtime")), &[we]).unwrap();
        // With no partitioning, row 3 sees row 2's loc.
        assert_eq!(cols[0].value(3), Value::str("b"));
    }

    #[test]
    fn work_counter_counts_accumulator_ops() {
        let we = WindowExpr {
            func: WindowFuncKind::Count,
            arg: None,
            frame: Frame::rows(
                FrameBound::UnboundedPreceding,
                FrameBound::UnboundedFollowing,
            ),
            alias: "n".into(),
        };
        let (_, work) = evaluate_window(
            &reads(),
            &[Expr::col("epc")],
            Some(&Expr::col("rtime")),
            &[we],
        )
        .unwrap();
        // Whole-partition frame: every row enters the accumulator once and
        // never leaves — e1: 3 ops, e2: 2 — independent of how many rows
        // each frame spans (recomputing each frame would visit 3x3 + 2x2 = 13).
        assert_eq!(work, 5);
    }

    #[test]
    fn invalid_frames_rejected() {
        let we = WindowExpr {
            func: WindowFuncKind::Max,
            arg: Some(Expr::col("loc")),
            frame: Frame::rows(FrameBound::UnboundedFollowing, FrameBound::CurrentRow),
            alias: "x".into(),
        };
        assert!(evaluate_window(
            &reads(),
            &[Expr::col("epc")],
            Some(&Expr::col("rtime")),
            &[we]
        )
        .is_err());
    }
}
