//! Scalar expressions: AST, type inference, and evaluation over batches.
//!
//! Expressions follow SQL three-valued logic: comparisons involving NULL
//! yield NULL, `AND`/`OR` use Kleene semantics, and filters keep only rows
//! whose predicate evaluates to TRUE (not NULL).
//!
//! Aggregates and window functions are *not* scalar expressions here; they
//! are plan-level constructs (see [`crate::plan`]), mirroring how a DBMS
//! separates row expressions from set-level computation.

use crate::batch::Batch;
use crate::column::{Bitmap, Column, ColumnBuilder, ColumnData};
use crate::error::{Error, Result};
use crate::schema::Schema;
use crate::value::{DataType, Value};
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// A reference to a column by optional qualifier and bare name.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    pub qualifier: Option<String>,
    pub name: String,
}

impl ColumnRef {
    pub fn new(name: impl Into<String>) -> Self {
        let name: String = name.into();
        match name.split_once('.') {
            Some((q, n)) => ColumnRef {
                qualifier: Some(q.to_ascii_lowercase()),
                name: n.to_ascii_lowercase(),
            },
            None => ColumnRef {
                qualifier: None,
                name: name.to_ascii_lowercase(),
            },
        }
    }

    pub fn qualified(qualifier: impl Into<String>, name: impl Into<String>) -> Self {
        ColumnRef {
            qualifier: Some(qualifier.into().to_ascii_lowercase()),
            name: name.into().to_ascii_lowercase(),
        }
    }

    pub fn flat_name(&self) -> String {
        match &self.qualifier {
            Some(q) => format!("{q}.{}", self.name),
            None => self.name.clone(),
        }
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.flat_name())
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Plus,
    Minus,
    Multiply,
    Divide,
    And,
    Or,
}

impl BinaryOp {
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq
        )
    }

    /// The comparison with swapped operands (a OP b == b OP' a).
    pub fn swap(self) -> BinaryOp {
        match self {
            BinaryOp::Lt => BinaryOp::Gt,
            BinaryOp::LtEq => BinaryOp::GtEq,
            BinaryOp::Gt => BinaryOp::Lt,
            BinaryOp::GtEq => BinaryOp::LtEq,
            other => other,
        }
    }

    /// The negated comparison (NOT (a OP b) == a OP' b) under two-valued
    /// logic; callers must handle NULLs separately.
    pub fn negate(self) -> Option<BinaryOp> {
        Some(match self {
            BinaryOp::Eq => BinaryOp::NotEq,
            BinaryOp::NotEq => BinaryOp::Eq,
            BinaryOp::Lt => BinaryOp::GtEq,
            BinaryOp::LtEq => BinaryOp::Gt,
            BinaryOp::Gt => BinaryOp::LtEq,
            BinaryOp::GtEq => BinaryOp::Lt,
            _ => return None,
        })
    }
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "!=",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::Plus => "+",
            BinaryOp::Minus => "-",
            BinaryOp::Multiply => "*",
            BinaryOp::Divide => "/",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
        };
        f.write_str(s)
    }
}

/// Scalar expression AST.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Column(ColumnRef),
    Literal(Value),
    Binary {
        left: Box<Expr>,
        op: BinaryOp,
        right: Box<Expr>,
    },
    Not(Box<Expr>),
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    /// `expr [NOT] IN (v1, v2, ...)` with literal list elements.
    InList {
        expr: Box<Expr>,
        list: Vec<Value>,
        negated: bool,
    },
    /// `expr IN (<materialized set>)` — produced when the planner evaluates
    /// an uncorrelated IN-subquery; `label` keeps the original SQL for
    /// EXPLAIN output.
    InSet {
        expr: Box<Expr>,
        set: Arc<HashSet<Value>>,
        negated: bool,
        label: String,
    },
    /// `CASE WHEN c1 THEN r1 [WHEN ...] [ELSE e] END` (searched form).
    Case {
        branches: Vec<(Expr, Expr)>,
        else_expr: Option<Box<Expr>>,
    },
    /// `count(<predicate>)` over a *set* pattern reference in a cleansing
    /// rule condition (the paper's §4.3 count() extension: "how many reads
    /// ... should be observed before taking an action"). Only valid inside
    /// rule conditions; the rule compiler lowers it to a window aggregate.
    /// Evaluating it directly is an error.
    CountIf(Box<Expr>),
}

impl Expr {
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column(ColumnRef::new(name))
    }

    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    pub fn binary(left: Expr, op: BinaryOp, right: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        }
    }

    pub fn and(self, other: Expr) -> Expr {
        Expr::binary(self, BinaryOp::And, other)
    }

    pub fn or(self, other: Expr) -> Expr {
        Expr::binary(self, BinaryOp::Or, other)
    }

    pub fn eq(self, other: Expr) -> Expr {
        Expr::binary(self, BinaryOp::Eq, other)
    }

    pub fn lt(self, other: Expr) -> Expr {
        Expr::binary(self, BinaryOp::Lt, other)
    }

    pub fn lt_eq(self, other: Expr) -> Expr {
        Expr::binary(self, BinaryOp::LtEq, other)
    }

    pub fn gt(self, other: Expr) -> Expr {
        Expr::binary(self, BinaryOp::Gt, other)
    }

    pub fn gt_eq(self, other: Expr) -> Expr {
        Expr::binary(self, BinaryOp::GtEq, other)
    }

    /// Infer the result type against a schema.
    pub fn data_type(&self, schema: &Schema) -> Result<DataType> {
        match self {
            Expr::Column(c) => {
                let i = schema.index_of(c.qualifier.as_deref(), &c.name)?;
                Ok(schema.field(i).data_type)
            }
            Expr::Literal(v) => Ok(v.data_type().unwrap_or(DataType::Int)),
            Expr::Binary { left, op, right } => {
                if op.is_comparison() || matches!(op, BinaryOp::And | BinaryOp::Or) {
                    Ok(DataType::Bool)
                } else {
                    let lt = left.data_type(schema)?;
                    let rt = right.data_type(schema)?;
                    if !lt.is_numeric() || !rt.is_numeric() {
                        return Err(Error::Plan(format!(
                            "arithmetic '{op}' requires numeric operands, got {lt} and {rt}"
                        )));
                    }
                    if lt == DataType::Double || rt == DataType::Double || *op == BinaryOp::Divide {
                        Ok(DataType::Double)
                    } else {
                        Ok(DataType::Int)
                    }
                }
            }
            Expr::Not(_) | Expr::IsNull { .. } | Expr::InList { .. } | Expr::InSet { .. } => {
                Ok(DataType::Bool)
            }
            Expr::CountIf(_) => Ok(DataType::Int),
            Expr::Case {
                branches,
                else_expr,
            } => {
                // The result type is the widest branch type.
                let mut dt: Option<DataType> = None;
                let mut consider = |t: DataType| match dt {
                    None => dt = Some(t),
                    Some(cur) => {
                        if cur == DataType::Int && t == DataType::Double {
                            dt = Some(DataType::Double);
                        }
                    }
                };
                for (_, r) in branches {
                    consider(r.data_type(schema)?);
                }
                if let Some(e) = else_expr {
                    consider(e.data_type(schema)?);
                }
                dt.ok_or_else(|| Error::Plan("CASE with no branches".into()))
            }
        }
    }

    /// Evaluate over a batch, producing one value per logical row.
    ///
    /// This is the kernel-accelerated path: binary arithmetic, comparisons,
    /// `AND`/`OR`, `IS NULL`, and `IN` dispatch once on the operand
    /// `ColumnData` types and run tight loops over native slices, honoring
    /// the batch's selection vector when one is present (only selected rows
    /// are evaluated — so error behavior matches a pre-compacted batch).
    /// Type combinations without a kernel fall back to a per-row `Value`
    /// loop with identical semantics.
    pub fn evaluate(&self, batch: &Batch) -> Result<Column> {
        let mut ks = KernelStats::default();
        eval_vec(self, batch, batch.selection(), &mut ks)
    }

    /// All column references in this expression.
    pub fn referenced_columns(&self, out: &mut Vec<ColumnRef>) {
        self.for_each_column(&mut |c| out.push(c.clone()));
    }

    /// Visit every column reference in this expression, left to right.
    pub fn for_each_column<'a>(&'a self, f: &mut impl FnMut(&'a ColumnRef)) {
        match self {
            Expr::Column(c) => f(c),
            Expr::Literal(_) => {}
            Expr::Binary { left, right, .. } => {
                left.for_each_column(f);
                right.for_each_column(f);
            }
            Expr::Not(e) => e.for_each_column(f),
            Expr::IsNull { expr, .. } => expr.for_each_column(f),
            Expr::InList { expr, .. } | Expr::InSet { expr, .. } => expr.for_each_column(f),
            Expr::CountIf(inner) => inner.for_each_column(f),
            Expr::Case {
                branches,
                else_expr,
            } => {
                for (c, r) in branches {
                    c.for_each_column(f);
                    r.for_each_column(f);
                }
                if let Some(e) = else_expr {
                    e.for_each_column(f);
                }
            }
        }
    }

    /// Visit every literal value in this expression, IN-list elements
    /// included, left to right, in place. A materialized IN set is visited
    /// as `None`: its values are not literals of the expression text.
    pub fn for_each_literal_mut(&mut self, f: &mut impl FnMut(Option<&mut Value>)) {
        match self {
            Expr::Column(_) => {}
            Expr::Literal(v) => f(Some(v)),
            Expr::Binary { left, right, .. } => {
                left.for_each_literal_mut(f);
                right.for_each_literal_mut(f);
            }
            Expr::Not(e) | Expr::CountIf(e) | Expr::IsNull { expr: e, .. } => {
                e.for_each_literal_mut(f)
            }
            Expr::InList { expr, list, .. } => {
                expr.for_each_literal_mut(f);
                list.iter_mut().for_each(|v| f(Some(v)));
            }
            Expr::InSet { expr, .. } => {
                expr.for_each_literal_mut(f);
                f(None);
            }
            Expr::Case {
                branches,
                else_expr,
            } => {
                for (c, r) in branches {
                    c.for_each_literal_mut(f);
                    r.for_each_literal_mut(f);
                }
                if let Some(e) = else_expr {
                    e.for_each_literal_mut(f);
                }
            }
        }
    }

    /// Apply `f` bottom-up to every node, rebuilding the tree.
    pub fn transform(&self, f: &impl Fn(Expr) -> Expr) -> Expr {
        let rebuilt = match self {
            Expr::Column(_) | Expr::Literal(_) => self.clone(),
            Expr::Binary { left, op, right } => Expr::Binary {
                left: Box::new(left.transform(f)),
                op: *op,
                right: Box::new(right.transform(f)),
            },
            Expr::Not(e) => Expr::Not(Box::new(e.transform(f))),
            Expr::CountIf(inner) => Expr::CountIf(Box::new(inner.transform(f))),
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(expr.transform(f)),
                negated: *negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: Box::new(expr.transform(f)),
                list: list.clone(),
                negated: *negated,
            },
            Expr::InSet {
                expr,
                set,
                negated,
                label,
            } => Expr::InSet {
                expr: Box::new(expr.transform(f)),
                set: set.clone(),
                negated: *negated,
                label: label.clone(),
            },
            Expr::Case {
                branches,
                else_expr,
            } => Expr::Case {
                branches: branches
                    .iter()
                    .map(|(c, r)| (c.transform(f), r.transform(f)))
                    .collect(),
                else_expr: else_expr.as_ref().map(|e| Box::new(e.transform(f))),
            },
        };
        f(rebuilt)
    }
}

/// Work accounting for the typed kernels: `kernel_ops` counts one op per
/// (compute node, evaluated row) on a typed fast path; `fallback_rows` counts
/// rows that went through the per-row `Value` path instead.
#[derive(Debug, Default, Clone, Copy)]
pub struct KernelStats {
    pub kernel_ops: u64,
    pub fallback_rows: u64,
}

/// Result of [`filter_chunk`]: the surviving **physical** row indices of the
/// chunk (a subset of its selection vector when it carried one), plus kernel
/// work accounting.
#[derive(Debug)]
pub struct FilterOutcome {
    pub selected: Vec<u32>,
    pub stats: KernelStats,
}

/// Evaluate a predicate over a chunk and return the physical rows where it
/// is TRUE, without gathering any column data.
///
/// Only the chunk's *selected* rows are evaluated (all of them when the
/// chunk is flat), so a row removed by an upstream filter can never raise an
/// evaluation error here — matching the materialized path, which compacts
/// between filters.
pub fn filter_chunk(pred: &Expr, chunk: &Batch) -> Result<FilterOutcome> {
    let mut stats = KernelStats::default();
    let sel = chunk.selection();
    let c = eval_vec(pred, chunk, sel, &mut stats)?;
    if c.data_type() != DataType::Bool {
        return Err(Error::Execution(format!(
            "filter predicate produced {} not BOOLEAN",
            c.data_type()
        )));
    }
    let mut selected = Vec::new();
    for k in 0..c.len() {
        if !c.is_null(k) && c.value(k).as_bool() == Some(true) {
            let phys = match sel {
                Some(rows) => rows[k],
                None => k as u32,
            };
            selected.push(phys);
        }
    }
    Ok(FilterOutcome { selected, stats })
}

/// A binary-kernel operand: either a physical leaf column (indexed through
/// the selection map) or a dense intermediate (indexed positionally).
enum Operand<'a> {
    Leaf(&'a Column),
    Owned(Column),
}

impl Operand<'_> {
    #[inline]
    fn col(&self) -> &Column {
        match self {
            Operand::Leaf(c) => c,
            Operand::Owned(c) => c,
        }
    }

    /// Physical index of logical position `k` for this operand.
    #[inline]
    fn map(&self, sel: Option<&[u32]>, k: usize) -> usize {
        match (self, sel) {
            (Operand::Leaf(_), Some(rows)) => rows[k] as usize,
            _ => k,
        }
    }
}

fn operand<'a>(
    e: &Expr,
    batch: &'a Batch,
    sel: Option<&[u32]>,
    ks: &mut KernelStats,
) -> Result<Operand<'a>> {
    match e {
        Expr::Column(c) => {
            let i = batch.schema().index_of(c.qualifier.as_deref(), &c.name)?;
            Ok(Operand::Leaf(batch.column(i)))
        }
        other => Ok(Operand::Owned(eval_vec(other, batch, sel, ks)?)),
    }
}

/// Vectorized evaluation core: produce a dense column with one entry per
/// evaluated row (`sel` when present, else every batch row).
fn eval_vec(
    expr: &Expr,
    batch: &Batch,
    sel: Option<&[u32]>,
    ks: &mut KernelStats,
) -> Result<Column> {
    let n = sel.map_or_else(|| batch.num_rows(), <[u32]>::len);
    match expr {
        Expr::Column(c) => {
            let i = batch.schema().index_of(c.qualifier.as_deref(), &c.name)?;
            match sel {
                None => Ok(batch.column(i).clone()),
                Some(rows) => {
                    let idx: Vec<usize> = rows.iter().map(|&r| r as usize).collect();
                    Ok(batch.column(i).take(&idx))
                }
            }
        }
        Expr::Literal(v) => {
            let dt = v.data_type().unwrap_or(DataType::Int);
            let mut b = ColumnBuilder::new(dt, n);
            for _ in 0..n {
                b.push(v)?;
            }
            Ok(b.finish())
        }
        Expr::Binary { left, op, right } => {
            let l = operand(left, batch, sel, ks)?;
            let r = operand(right, batch, sel, ks)?;
            eval_binary_vec(&l, *op, &r, sel, n, expr, ks)
        }
        Expr::Not(inner) => {
            let c = eval_vec(inner, batch, sel, ks)?;
            if let Some(vals) = c.bool_values() {
                ks.kernel_ops += n as u64;
                let mut out = Vec::with_capacity(n);
                let mut validity = Bitmap::new(n, true);
                let mut has_null = false;
                for (k, v) in vals.iter().enumerate() {
                    if c.is_null(k) {
                        validity.set(k, false);
                        has_null = true;
                        out.push(false);
                    } else {
                        out.push(!v);
                    }
                }
                return finish_col(ColumnData::Bool(out), validity, has_null);
            }
            ks.fallback_rows += n as u64;
            let mut b = ColumnBuilder::new(DataType::Bool, n);
            for k in 0..n {
                match c.value(k) {
                    Value::Null => b.push_null(),
                    Value::Bool(x) => b.push(&Value::Bool(!x))?,
                    other => {
                        return Err(Error::Execution(format!(
                            "NOT applied to non-boolean {other}"
                        )))
                    }
                }
            }
            Ok(b.finish())
        }
        Expr::IsNull { expr, negated } => {
            let op = operand(expr, batch, sel, ks)?;
            ks.kernel_ops += n as u64;
            let mut out = Vec::with_capacity(n);
            for k in 0..n {
                out.push(op.col().is_null(op.map(sel, k)) != *negated);
            }
            Ok(Column::from_data(ColumnData::Bool(out)))
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let set: HashSet<Value> = list.iter().cloned().collect();
            let op = operand(expr, batch, sel, ks)?;
            eval_in_vec(&op, &set, *negated, sel, n, ks)
        }
        Expr::InSet {
            expr, set, negated, ..
        } => {
            let op = operand(expr, batch, sel, ks)?;
            eval_in_vec(&op, set, *negated, sel, n, ks)
        }
        Expr::CountIf(_) => Err(Error::Plan(
            "count(<predicate>) is only valid inside a cleansing rule \
             condition over a set reference"
                .into(),
        )),
        Expr::Case {
            branches,
            else_expr,
        } => {
            let dt = expr.data_type(batch.schema())?;
            let conds: Vec<Column> = branches
                .iter()
                .map(|(c, _)| eval_vec(c, batch, sel, ks))
                .collect::<Result<_>>()?;
            let results: Vec<Column> = branches
                .iter()
                .map(|(_, r)| eval_vec(r, batch, sel, ks))
                .collect::<Result<_>>()?;
            let else_col = else_expr
                .as_ref()
                .map(|e| eval_vec(e, batch, sel, ks))
                .transpose()?;
            let mut b = ColumnBuilder::new(dt, n);
            'row: for k in 0..n {
                for (c, r) in conds.iter().zip(&results) {
                    if c.value(k).as_bool() == Some(true) {
                        b.push(&r.value(k))?;
                        continue 'row;
                    }
                }
                match &else_col {
                    Some(e) => b.push(&e.value(k))?,
                    None => b.push_null(),
                }
            }
            Ok(b.finish())
        }
    }
}

#[inline]
fn cmp_truth(op: BinaryOp, o: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering;
    match op {
        BinaryOp::Eq => o == Ordering::Equal,
        BinaryOp::NotEq => o != Ordering::Equal,
        BinaryOp::Lt => o == Ordering::Less,
        BinaryOp::LtEq => o != Ordering::Greater,
        BinaryOp::Gt => o == Ordering::Greater,
        BinaryOp::GtEq => o != Ordering::Less,
        _ => unreachable!("cmp_truth on non-comparison"),
    }
}

fn finish_col(data: ColumnData, validity: Bitmap, has_null: bool) -> Result<Column> {
    Column::new(data, if has_null { Some(validity) } else { None })
}

/// A numeric payload widened to f64 on read — used by the mixed Int/Double
/// comparison and arithmetic kernels (`sql_cmp` compares those as f64).
enum NumSlice<'a> {
    I(&'a [i64]),
    F(&'a [f64]),
}

impl NumSlice<'_> {
    #[inline]
    fn get(&self, i: usize) -> f64 {
        match self {
            NumSlice::I(v) => v[i] as f64,
            NumSlice::F(v) => v[i],
        }
    }
}

fn num_slice(c: &Column) -> Option<NumSlice<'_>> {
    if let Some(v) = c.int_values() {
        return Some(NumSlice::I(v));
    }
    c.double_values().map(NumSlice::F)
}

fn eval_binary_vec(
    l: &Operand<'_>,
    op: BinaryOp,
    r: &Operand<'_>,
    sel: Option<&[u32]>,
    n: usize,
    ctx: &Expr,
    ks: &mut KernelStats,
) -> Result<Column> {
    let (lc, rc) = (l.col(), r.col());
    if op.is_comparison() {
        let mut out = Vec::with_capacity(n);
        let mut validity = Bitmap::new(n, true);
        let mut has_null = false;
        let null_at = |validity: &mut Bitmap, out: &mut Vec<bool>, k: usize| {
            validity.set(k, false);
            out.push(false);
        };
        // Int/Int compares exactly; any Double side compares as f64 (NaN
        // compares as NULL) — both mirror `Value::sql_cmp`.
        if let (Some(la), Some(ra)) = (lc.int_values(), rc.int_values()) {
            ks.kernel_ops += n as u64;
            for k in 0..n {
                let (li, ri) = (l.map(sel, k), r.map(sel, k));
                if lc.is_null(li) || rc.is_null(ri) {
                    has_null = true;
                    null_at(&mut validity, &mut out, k);
                } else {
                    out.push(cmp_truth(op, la[li].cmp(&ra[ri])));
                }
            }
            return finish_col(ColumnData::Bool(out), validity, has_null);
        }
        if let (Some(ln), Some(rn)) = (num_slice(lc), num_slice(rc)) {
            ks.kernel_ops += n as u64;
            for k in 0..n {
                let (li, ri) = (l.map(sel, k), r.map(sel, k));
                if lc.is_null(li) || rc.is_null(ri) {
                    has_null = true;
                    null_at(&mut validity, &mut out, k);
                } else {
                    match ln.get(li).partial_cmp(&rn.get(ri)) {
                        Some(o) => out.push(cmp_truth(op, o)),
                        None => {
                            has_null = true;
                            null_at(&mut validity, &mut out, k);
                        }
                    }
                }
            }
            return finish_col(ColumnData::Bool(out), validity, has_null);
        }
        if let (Some(la), Some(ra)) = (lc.str_values(), rc.str_values()) {
            ks.kernel_ops += n as u64;
            for k in 0..n {
                let (li, ri) = (l.map(sel, k), r.map(sel, k));
                if lc.is_null(li) || rc.is_null(ri) {
                    has_null = true;
                    null_at(&mut validity, &mut out, k);
                } else {
                    out.push(cmp_truth(op, la[li].as_ref().cmp(ra[ri].as_ref())));
                }
            }
            return finish_col(ColumnData::Bool(out), validity, has_null);
        }
        if let (Some(la), Some(ra)) = (lc.bool_values(), rc.bool_values()) {
            ks.kernel_ops += n as u64;
            for k in 0..n {
                let (li, ri) = (l.map(sel, k), r.map(sel, k));
                if lc.is_null(li) || rc.is_null(ri) {
                    has_null = true;
                    null_at(&mut validity, &mut out, k);
                } else {
                    out.push(cmp_truth(op, la[li].cmp(&ra[ri])));
                }
            }
            return finish_col(ColumnData::Bool(out), validity, has_null);
        }
        // Mixed incomparable types: `sql_cmp` yields NULL per row.
        ks.fallback_rows += n as u64;
        let mut b = ColumnBuilder::new(DataType::Bool, n);
        for k in 0..n {
            let (li, ri) = (l.map(sel, k), r.map(sel, k));
            match lc.value(li).sql_cmp(&rc.value(ri)) {
                None => b.push_null(),
                Some(o) => b.push(&Value::Bool(cmp_truth(op, o)))?,
            }
        }
        return Ok(b.finish());
    }
    match op {
        BinaryOp::And | BinaryOp::Or => {
            if let (Some(la), Some(ra)) = (lc.bool_values(), rc.bool_values()) {
                ks.kernel_ops += n as u64;
                let mut out = Vec::with_capacity(n);
                let mut validity = Bitmap::new(n, true);
                let mut has_null = false;
                for k in 0..n {
                    let (li, ri) = (l.map(sel, k), r.map(sel, k));
                    let lv = (!lc.is_null(li)).then(|| la[li]);
                    let rv = (!rc.is_null(ri)).then(|| ra[ri]);
                    match kleene(op, lv, rv) {
                        Some(v) => out.push(v),
                        None => {
                            validity.set(k, false);
                            has_null = true;
                            out.push(false);
                        }
                    }
                }
                return finish_col(ColumnData::Bool(out), validity, has_null);
            }
            ks.fallback_rows += n as u64;
            let mut b = ColumnBuilder::new(DataType::Bool, n);
            for k in 0..n {
                let (li, ri) = (l.map(sel, k), r.map(sel, k));
                let lv = if lc.is_null(li) {
                    None
                } else {
                    lc.value(li).as_bool()
                };
                let rv = if rc.is_null(ri) {
                    None
                } else {
                    rc.value(ri).as_bool()
                };
                match kleene(op, lv, rv) {
                    Some(v) => b.push(&Value::Bool(v))?,
                    None => b.push_null(),
                }
            }
            Ok(b.finish())
        }
        BinaryOp::Plus | BinaryOp::Minus | BinaryOp::Multiply | BinaryOp::Divide => {
            let int_result = lc.data_type() == DataType::Int
                && rc.data_type() == DataType::Int
                && op != BinaryOp::Divide;
            if int_result {
                let (la, ra) = (lc.int_values().unwrap(), rc.int_values().unwrap());
                ks.kernel_ops += n as u64;
                let mut out = Vec::with_capacity(n);
                let mut validity = Bitmap::new(n, true);
                let mut has_null = false;
                for k in 0..n {
                    let (li, ri) = (l.map(sel, k), r.map(sel, k));
                    if lc.is_null(li) || rc.is_null(ri) {
                        validity.set(k, false);
                        has_null = true;
                        out.push(0);
                        continue;
                    }
                    let (x, y) = (la[li], ra[ri]);
                    let v = match op {
                        BinaryOp::Plus => x.checked_add(y),
                        BinaryOp::Minus => x.checked_sub(y),
                        BinaryOp::Multiply => x.checked_mul(y),
                        _ => unreachable!("integer arithmetic excludes Divide"),
                    };
                    match v {
                        Some(v) => out.push(v),
                        None => {
                            return Err(Error::Execution(format!(
                                "integer overflow evaluating {ctx}"
                            )))
                        }
                    }
                }
                return finish_col(ColumnData::Int(out), validity, has_null);
            }
            if let (Some(ln), Some(rn)) = (num_slice(lc), num_slice(rc)) {
                ks.kernel_ops += n as u64;
                let mut out = Vec::with_capacity(n);
                let mut validity = Bitmap::new(n, true);
                let mut has_null = false;
                for k in 0..n {
                    let (li, ri) = (l.map(sel, k), r.map(sel, k));
                    if lc.is_null(li) || rc.is_null(ri) {
                        validity.set(k, false);
                        has_null = true;
                        out.push(0.0);
                        continue;
                    }
                    let (x, y) = (ln.get(li), rn.get(ri));
                    let v = match op {
                        BinaryOp::Plus => x + y,
                        BinaryOp::Minus => x - y,
                        BinaryOp::Multiply => x * y,
                        BinaryOp::Divide => {
                            if y == 0.0 {
                                validity.set(k, false);
                                has_null = true;
                                out.push(0.0);
                                continue;
                            }
                            x / y
                        }
                        _ => unreachable!("this arm admits only + - * /"),
                    };
                    out.push(v);
                }
                return finish_col(ColumnData::Double(out), validity, has_null);
            }
            // Non-numeric operand: reproduce the row-wise error behavior on
            // the evaluated rows.
            ks.fallback_rows += n as u64;
            let mut b = ColumnBuilder::new(DataType::Double, n);
            for k in 0..n {
                let (li, ri) = (l.map(sel, k), r.map(sel, k));
                let (lv, rv) = (lc.value(li), rc.value(ri));
                if lv.is_null() || rv.is_null() {
                    b.push_null();
                    continue;
                }
                let x = lv.as_double().ok_or_else(|| {
                    Error::Execution(format!("non-numeric operand {lv} in {ctx}"))
                })?;
                let y = rv.as_double().ok_or_else(|| {
                    Error::Execution(format!("non-numeric operand {rv} in {ctx}"))
                })?;
                let v = match op {
                    BinaryOp::Plus => x + y,
                    BinaryOp::Minus => x - y,
                    BinaryOp::Multiply => x * y,
                    BinaryOp::Divide => {
                        if y == 0.0 {
                            b.push_null();
                            continue;
                        }
                        x / y
                    }
                    _ => unreachable!("this arm admits only + - * /"),
                };
                b.push(&Value::Double(v))?;
            }
            Ok(b.finish())
        }
        _ => Err(Error::Internal(format!("unhandled binary op {op}"))),
    }
}

/// Kleene three-valued AND/OR.
#[inline]
fn kleene(op: BinaryOp, lv: Option<bool>, rv: Option<bool>) -> Option<bool> {
    if op == BinaryOp::And {
        match (lv, rv) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        }
    } else {
        match (lv, rv) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        }
    }
}

/// Typed `IN` kernel: extract the set elements matching the probe column's
/// type once (structural equality means cross-type elements can never hit),
/// then probe native values.
fn eval_in_vec(
    op: &Operand<'_>,
    set: &HashSet<Value>,
    negated: bool,
    sel: Option<&[u32]>,
    n: usize,
    ks: &mut KernelStats,
) -> Result<Column> {
    let c = op.col();
    let mut out = Vec::with_capacity(n);
    let mut validity = Bitmap::new(n, true);
    let mut has_null = false;
    macro_rules! probe {
        ($vals:expr, $hit:expr) => {{
            ks.kernel_ops += n as u64;
            let vals = $vals;
            for k in 0..n {
                let i = op.map(sel, k);
                if c.is_null(i) {
                    validity.set(k, false);
                    has_null = true;
                    out.push(false);
                } else {
                    let hit: bool = $hit(&vals[i]);
                    out.push(hit != negated);
                }
            }
            finish_col(ColumnData::Bool(out), validity, has_null)
        }};
    }
    match c.data_type() {
        DataType::Int => {
            let ints: HashSet<i64> = set.iter().filter_map(Value::as_int).collect();
            probe!(c.int_values().unwrap(), |v: &i64| ints.contains(v))
        }
        DataType::Str => {
            let strs: HashSet<&str> = set.iter().filter_map(Value::as_str).collect();
            probe!(c.str_values().unwrap(), |v: &Arc<str>| strs
                .contains(v.as_ref()))
        }
        DataType::Double => {
            let bits: HashSet<u64> = set
                .iter()
                .filter_map(|v| match v {
                    Value::Double(d) => Some(d.to_bits()),
                    _ => None,
                })
                .collect();
            probe!(c.double_values().unwrap(), |v: &f64| bits
                .contains(&v.to_bits()))
        }
        DataType::Bool => {
            let bools: HashSet<bool> = set.iter().filter_map(Value::as_bool).collect();
            probe!(c.bool_values().unwrap(), |v: &bool| bools.contains(v))
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(c) => write!(f, "{c}"),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Binary { left, op, right } => write!(f, "({left} {op} {right})"),
            Expr::Not(e) => write!(f, "(NOT {e})"),
            Expr::IsNull { expr, negated } => {
                write!(f, "({expr} IS {}NULL)", if *negated { "NOT " } else { "" })
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                write!(f, "({expr} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, v) in list.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("))")
            }
            Expr::InSet {
                expr,
                negated,
                label,
                ..
            } => write!(
                f,
                "({expr} {}IN ({label}))",
                if *negated { "NOT " } else { "" }
            ),
            Expr::CountIf(inner) => write!(f, "count({inner})"),
            Expr::Case {
                branches,
                else_expr,
            } => {
                f.write_str("CASE")?;
                for (c, r) in branches {
                    write!(f, " WHEN {c} THEN {r}")?;
                }
                if let Some(e) = else_expr {
                    write!(f, " ELSE {e}")?;
                }
                f.write_str(" END")
            }
        }
    }
}

/// Split an expression into its top-level AND-ed conjuncts.
pub fn split_conjuncts(expr: &Expr) -> Vec<Expr> {
    let mut out = Vec::new();
    fn walk(e: &Expr, out: &mut Vec<Expr>) {
        match e {
            Expr::Binary {
                left,
                op: BinaryOp::And,
                right,
            } => {
                walk(left, out);
                walk(right, out);
            }
            other => out.push(other.clone()),
        }
    }
    walk(expr, &mut out);
    out
}

/// AND together a list of predicates (`None` if empty).
pub fn conjoin(mut exprs: Vec<Expr>) -> Option<Expr> {
    if exprs.is_empty() {
        return None;
    }
    let mut acc = exprs.remove(0);
    for e in exprs {
        acc = acc.and(e);
    }
    Some(acc)
}

/// OR together a list of predicates (`None` if empty).
pub fn disjoin(mut exprs: Vec<Expr>) -> Option<Expr> {
    if exprs.is_empty() {
        return None;
    }
    let mut acc = exprs.remove(0);
    for e in exprs {
        acc = acc.or(e);
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::schema_ref;
    use crate::schema::Field;

    /// Physical rows of `b` where `e` is TRUE, through [`filter_chunk`].
    fn survivors(e: &Expr, b: &Batch) -> Vec<u32> {
        filter_chunk(e, b).unwrap().selected
    }

    fn batch() -> Batch {
        let schema = schema_ref(Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
            Field::new("s", DataType::Str),
        ]));
        Batch::from_rows(
            schema,
            &[
                vec![Value::Int(1), Value::Int(10), Value::str("x")],
                vec![Value::Int(2), Value::Null, Value::str("y")],
                vec![Value::Int(3), Value::Int(30), Value::str("x")],
            ],
        )
        .unwrap()
    }

    #[test]
    fn comparison_with_null_is_null() {
        let b = batch();
        let e = Expr::col("b").gt(Expr::lit(5i64));
        let c = e.evaluate(&b).unwrap();
        assert_eq!(c.value(0), Value::Bool(true));
        assert!(c.is_null(1));
        assert_eq!(survivors(&e, &b), vec![0, 2]);
    }

    #[test]
    fn kleene_and_or() {
        let b = batch();
        // (b > 5) OR (a = 2): row 1 has NULL OR TRUE = TRUE
        let e = Expr::col("b")
            .gt(Expr::lit(5i64))
            .or(Expr::col("a").eq(Expr::lit(2i64)));
        assert_eq!(survivors(&e, &b), vec![0, 1, 2]);
        // (b > 5) AND (a = 2): row 1 has NULL AND TRUE = NULL -> filtered out
        let e = Expr::col("b")
            .gt(Expr::lit(5i64))
            .and(Expr::col("a").eq(Expr::lit(2i64)));
        assert!(survivors(&e, &b).is_empty());
    }

    #[test]
    fn arithmetic_types() {
        let b = batch();
        let e = Expr::binary(Expr::col("a"), BinaryOp::Plus, Expr::lit(100i64));
        let c = e.evaluate(&b).unwrap();
        assert_eq!(c.data_type(), DataType::Int);
        assert_eq!(c.value(2), Value::Int(103));
        let e = Expr::binary(Expr::col("a"), BinaryOp::Divide, Expr::lit(2i64));
        let c = e.evaluate(&b).unwrap();
        assert_eq!(c.data_type(), DataType::Double);
        assert_eq!(c.value(0), Value::Double(0.5));
    }

    #[test]
    fn null_propagates_through_arithmetic() {
        let b = batch();
        let e = Expr::binary(Expr::col("b"), BinaryOp::Minus, Expr::col("a"));
        let c = e.evaluate(&b).unwrap();
        assert!(c.is_null(1));
        assert_eq!(c.value(0), Value::Int(9));
    }

    #[test]
    fn is_null_and_not() {
        let b = batch();
        let e = Expr::IsNull {
            expr: Box::new(Expr::col("b")),
            negated: false,
        };
        assert_eq!(survivors(&e, &b), vec![1]);
        let e = Expr::Not(Box::new(Expr::col("s").eq(Expr::lit("x"))));
        assert_eq!(survivors(&e, &b), vec![1]);
    }

    #[test]
    fn in_list() {
        let b = batch();
        let e = Expr::InList {
            expr: Box::new(Expr::col("s")),
            list: vec![Value::str("x"), Value::str("z")],
            negated: false,
        };
        assert_eq!(survivors(&e, &b), vec![0, 2]);
    }

    #[test]
    fn case_expression() {
        let b = batch();
        let e = Expr::Case {
            branches: vec![(Expr::col("s").eq(Expr::lit("x")), Expr::lit(1i64))],
            else_expr: Some(Box::new(Expr::lit(0i64))),
        };
        let c = e.evaluate(&b).unwrap();
        assert_eq!(
            (0..3).map(|i| c.value(i)).collect::<Vec<_>>(),
            vec![Value::Int(1), Value::Int(0), Value::Int(1)]
        );
    }

    #[test]
    fn case_without_else_yields_null() {
        let b = batch();
        let e = Expr::Case {
            branches: vec![(Expr::col("a").eq(Expr::lit(1i64)), Expr::lit(9i64))],
            else_expr: None,
        };
        let c = e.evaluate(&b).unwrap();
        assert_eq!(c.value(0), Value::Int(9));
        assert!(c.is_null(1));
    }

    #[test]
    fn split_and_conjoin_roundtrip() {
        let e = Expr::col("a")
            .eq(Expr::lit(1i64))
            .and(Expr::col("b").gt(Expr::lit(2i64)))
            .and(Expr::col("s").eq(Expr::lit("x")));
        let parts = split_conjuncts(&e);
        assert_eq!(parts.len(), 3);
        let back = conjoin(parts).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn referenced_columns_collects_all() {
        let e = Expr::col("t.a").eq(Expr::col("b"));
        let mut cols = vec![];
        e.referenced_columns(&mut cols);
        assert_eq!(cols.len(), 2);
        assert_eq!(cols[0].qualifier.as_deref(), Some("t"));
    }

    #[test]
    fn transform_rewrites_columns() {
        let e = Expr::col("a").eq(Expr::lit(1i64));
        let out = e.transform(&|node| match node {
            Expr::Column(c) if c.name == "a" => Expr::col("z"),
            other => other,
        });
        assert_eq!(out, Expr::col("z").eq(Expr::lit(1i64)));
    }

    #[test]
    fn overflow_is_an_error() {
        let schema = schema_ref(Schema::new(vec![Field::new("a", DataType::Int)]));
        let b = Batch::from_rows(schema, &[vec![Value::Int(i64::MAX)]]).unwrap();
        let e = Expr::binary(Expr::col("a"), BinaryOp::Plus, Expr::lit(1i64));
        assert!(e.evaluate(&b).is_err());
    }
}
