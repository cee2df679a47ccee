//! Grouped aggregation (hash aggregation).
//!
//! Supports the aggregate shapes the paper's analytics use: `count(*)`,
//! `count(col)`, `count(distinct col)`, `sum`, `avg`, `min`, `max`, grouped
//! by arbitrary scalar expressions. NULL group keys form their own group
//! (SQL `GROUP BY` semantics); aggregate arguments skip NULLs.

use crate::batch::Batch;
use crate::column::{with_native, Column, ColumnBuilder, ColumnData, Native};
use crate::error::{Error, Result};
use crate::expr::Expr;
use crate::hash::{encode_keys, HashStats, NullKeys, RawKeyTable};
use crate::join::BUDGET_CHECK_INTERVAL;
use crate::physical::QueryBudget;
use crate::schema::{Field, Schema};
use crate::value::DataType;
use std::cmp::Ordering;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Aggregate function applied per group.
#[derive(Debug, Clone, PartialEq)]
pub enum AggFunc {
    CountStar,
    Count(Expr),
    CountDistinct(Expr),
    Sum(Expr),
    Avg(Expr),
    Min(Expr),
    Max(Expr),
}

impl AggFunc {
    pub fn arg(&self) -> Option<&Expr> {
        match self {
            AggFunc::CountStar => None,
            AggFunc::Count(e)
            | AggFunc::CountDistinct(e)
            | AggFunc::Sum(e)
            | AggFunc::Avg(e)
            | AggFunc::Min(e)
            | AggFunc::Max(e) => Some(e),
        }
    }

    pub fn output_type(&self, schema: &Schema) -> Result<DataType> {
        match self {
            AggFunc::CountStar | AggFunc::Count(_) | AggFunc::CountDistinct(_) => Ok(DataType::Int),
            AggFunc::Avg(_) => Ok(DataType::Double),
            AggFunc::Sum(e) | AggFunc::Min(e) | AggFunc::Max(e) => e.data_type(schema),
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggFunc::CountStar => f.write_str("count(*)"),
            AggFunc::Count(e) => write!(f, "count({e})"),
            AggFunc::CountDistinct(e) => write!(f, "count(distinct {e})"),
            AggFunc::Sum(e) => write!(f, "sum({e})"),
            AggFunc::Avg(e) => write!(f, "avg({e})"),
            AggFunc::Min(e) => write!(f, "min({e})"),
            AggFunc::Max(e) => write!(f, "max({e})"),
        }
    }
}

/// A named aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    pub func: AggFunc,
    pub alias: String,
}

/// `0..n` cut into blocks of [`BUDGET_CHECK_INTERVAL`] rows, the budget
/// checked before each: a pass over a large input notices cancellation and
/// deadlines from inside its loop, as the join's build and probe do.
fn checked_blocks(
    n: usize,
    budget: &QueryBudget,
) -> impl Iterator<Item = Result<Range<usize>>> + '_ {
    (0..n).step_by(BUDGET_CHECK_INTERVAL).map(move |start| {
        budget.check()?;
        Ok(start..n.min(start + BUDGET_CHECK_INTERVAL))
    })
}

/// The rows of one aggregation pass: `slots[i]` is row `i`'s group, one of
/// `groups` dense first-seen ordinals.
struct Grouping<'a> {
    slots: &'a [u32],
    groups: usize,
    budget: &'a QueryBudget,
}

impl Grouping<'_> {
    /// Call `f(row, slot)` for every row whose `arg` is not NULL (every row
    /// when there is no argument), in input order.
    fn for_each_value(
        &self,
        arg: Option<&Column>,
        mut f: impl FnMut(usize, usize) -> Result<()>,
    ) -> Result<()> {
        let nullable = arg.filter(|c| c.has_nulls());
        for block in checked_blocks(self.slots.len(), self.budget) {
            for i in block? {
                if nullable.is_none_or(|c| !c.is_null(i)) {
                    f(i, self.slots[i] as usize)?;
                }
            }
        }
        Ok(())
    }

    /// `count(*)` / `count(arg)`: one `i64` per group.
    fn count(&self, arg: Option<&Column>) -> Result<Column> {
        let mut counts = vec![0i64; self.groups];
        self.for_each_value(arg, |_, slot| {
            counts[slot] += 1;
            Ok(())
        })?;
        Ok(Column::from_data(ColumnData::Int(counts)))
    }

    /// `count(distinct arg)`: a second normalized-key table over the
    /// `(slot, arg)` pair; a pair seen for the first time counts one for
    /// its group. Its hashing is private to the aggregate: the operator's
    /// [`HashStats`] describe the group lookup, not what an aggregate does
    /// with its values.
    fn count_distinct(&self, arg: &Column) -> Result<Column> {
        let n = self.slots.len();
        let slot_col = Column::from_data(ColumnData::Int(
            self.slots.iter().map(|&s| i64::from(s)).collect(),
        ));
        let mut private = HashStats::default();
        let pairs = encode_keys(
            &[slot_col, arg.clone()],
            None,
            n,
            NullKeys::Match,
            &mut private,
        )?;
        // Sized for every pair being new: growing would re-place them all.
        let mut seen = RawKeyTable::with_capacity(n);
        let mut counts = vec![0i64; self.groups];
        self.for_each_value(Some(arg), |i, slot| {
            if seen.insert(pairs.hash(i), pairs.key(i), &mut private)?.1 {
                counts[slot] += 1;
            }
            Ok(())
        })?;
        Ok(Column::from_data(ColumnData::Int(counts)))
    }

    /// `sum(arg)`: `i64` with overflow checked, or `f64`; NULL for a group
    /// without a value. Any value of another type is an error.
    fn sum(&self, arg: &Column) -> Result<Column> {
        let mut any = vec![false; self.groups];
        if let Some(vals) = arg.int_values() {
            let mut sums = vec![0i64; self.groups];
            self.for_each_value(Some(arg), |i, slot| {
                sums[slot] = sums[slot]
                    .checked_add(vals[i])
                    .ok_or_else(|| Error::Execution("sum overflow".into()))?;
                any[slot] = true;
                Ok(())
            })?;
            Ok(nullable_column(DataType::Int, sums, &any))
        } else if let Some(vals) = arg.double_values() {
            let mut sums = vec![0f64; self.groups];
            self.for_each_value(Some(arg), |i, slot| {
                sums[slot] += vals[i];
                any[slot] = true;
                Ok(())
            })?;
            Ok(nullable_column(DataType::Double, sums, &any))
        } else {
            self.reject_values("sum over non-integer", arg)?;
            Ok(null_column(arg.data_type(), self.groups))
        }
    }

    /// `avg(arg)`: integers sum exactly in `i128` and divide once at the
    /// end — order-independent, which is what lets incremental maintenance
    /// reproduce it from add/subtract deltas bit-for-bit; doubles sum in
    /// input order.
    fn avg(&self, arg: &Column) -> Result<Column> {
        let mut counts = vec![0i64; self.groups];
        let means: Vec<f64> = if let Some(vals) = arg.int_values() {
            let mut sums = vec![0i128; self.groups];
            self.for_each_value(Some(arg), |i, slot| {
                sums[slot] += i128::from(vals[i]);
                counts[slot] += 1;
                Ok(())
            })?;
            let mean = |(s, n): (&i128, &i64)| *s as f64 / *n as f64;
            sums.iter().zip(&counts).map(mean).collect()
        } else if let Some(vals) = arg.double_values() {
            let mut sums = vec![0f64; self.groups];
            self.for_each_value(Some(arg), |i, slot| {
                sums[slot] += vals[i];
                counts[slot] += 1;
                Ok(())
            })?;
            sums.iter()
                .zip(&counts)
                .map(|(s, n)| s / *n as f64)
                .collect()
        } else {
            self.reject_values("avg over non-numeric", arg)?;
            return Ok(null_column(DataType::Double, self.groups));
        };
        let any: Vec<bool> = counts.iter().map(|&n| n > 0).collect();
        Ok(nullable_column(DataType::Double, means, &any))
    }

    /// `min(arg)` / `max(arg)` by the native comparison of the element
    /// type (`better` is how a replacing value compares to the one it
    /// replaces, so the earliest of equal extremes is kept). Tracks the row
    /// of each group's extreme; values are cloned once per group at the end.
    fn extreme<T: Native>(&self, arg: &Column, better: Ordering) -> Result<Column> {
        let vals: &[T] = arg.values().expect("element type picked from the column");
        let mut best: Vec<Option<usize>> = vec![None; self.groups];
        self.for_each_value(Some(arg), |i, slot| {
            if best[slot].is_none_or(|b| vals[i].total_cmp(&vals[b]) == better) {
                best[slot] = Some(i);
            }
            Ok(())
        })?;
        let mut out = ColumnBuilder::new(arg.data_type(), self.groups);
        for b in best {
            match b {
                Some(i) => out.push_native(vals[i].clone()),
                None => out.push_null(),
            }
        }
        Ok(out.finish())
    }

    /// A numeric aggregate over a non-numeric column fails on its first
    /// value; over NULLs alone it is NULL like any other.
    fn reject_values(&self, what: &str, arg: &Column) -> Result<()> {
        self.for_each_value(Some(arg), |i, _| {
            Err(Error::Execution(format!("{what} value {}", arg.value(i))))
        })
    }

    fn aggregate(&self, func: &AggFunc, arg: Option<&Column>) -> Result<Column> {
        let arg = || arg.ok_or_else(|| Error::Internal(format!("{func} without an argument")));
        match func {
            AggFunc::CountStar => self.count(None),
            AggFunc::Count(_) => self.count(Some(arg()?)),
            AggFunc::CountDistinct(_) => self.count_distinct(arg()?),
            AggFunc::Sum(_) => self.sum(arg()?),
            AggFunc::Avg(_) => self.avg(arg()?),
            AggFunc::Min(_) | AggFunc::Max(_) => {
                let better = if matches!(func, AggFunc::Min(_)) {
                    Ordering::Less
                } else {
                    Ordering::Greater
                };
                let arg = arg()?;
                with_native!(arg.data_type(), T => self.extreme::<T>(arg, better))
            }
        }
    }
}

/// One value of type `dt` per group, NULL where `any` is false.
fn nullable_column<T: Native>(dt: DataType, vals: Vec<T>, any: &[bool]) -> Column {
    let mut out = ColumnBuilder::new(dt, vals.len());
    for (v, &valid) in vals.into_iter().zip(any) {
        if valid {
            out.push_native(v);
        } else {
            out.push_null();
        }
    }
    out.finish()
}

/// `rows` NULLs of type `dt`.
fn null_column(dt: DataType, rows: usize) -> Column {
    let mut out = ColumnBuilder::new(dt, rows);
    out.append_nulls(rows);
    out.finish()
}

/// Execute a hash aggregation. Output columns are the group expressions
/// (named by their aliases) followed by the aggregates; groups come out in
/// first-seen order.
///
/// One pass assigns every row its group slot through the normalized-key
/// table of [`crate::hash`] (its work is added to `hash`); then each
/// aggregate runs on its own over the argument's native slice into a typed
/// vector indexed by slot. `budget` is checked every
/// `BUDGET_CHECK_INTERVAL` rows of each of those passes.
pub fn hash_aggregate(
    input: &Batch,
    group_by: &[(Expr, String)],
    aggs: &[AggExpr],
    budget: &QueryBudget,
    hash: &mut HashStats,
) -> Result<Batch> {
    let n = input.num_rows();
    let group_cols: Vec<Column> = group_by
        .iter()
        .map(|(e, _)| e.evaluate(input))
        .collect::<Result<_>>()?;
    let arg_cols: Vec<Option<Column>> = aggs
        .iter()
        .map(|a| a.func.arg().map(|e| e.evaluate(input)).transpose())
        .collect::<Result<_>>()?;

    // Group lookup: slot index = first-seen order. `rep_rows[slot]` is the
    // first input row of each group — the group-key output columns gather
    // straight from the evaluated key columns, so key values are never
    // re-materialized from the table.
    let keys = encode_keys(&group_cols, None, n, NullKeys::Match, hash)?;
    let mut table = RawKeyTable::with_capacity(n.min(1024));
    let mut slots: Vec<u32> = Vec::with_capacity(n);
    let mut rep_rows: Vec<usize> = Vec::new();
    for block in checked_blocks(n, budget) {
        for i in block? {
            let (slot, fresh) = table.insert(keys.hash(i), keys.key(i), hash)?;
            if fresh {
                rep_rows.push(i);
            }
            slots.push(slot as u32);
        }
    }
    let grouping = Grouping {
        slots: &slots,
        // Global aggregation over an empty input yields one all-default row.
        groups: rep_rows.len().max(usize::from(group_by.is_empty())),
        budget,
    };

    // Group-key columns gather from the evaluated key columns; an empty
    // input has no column to take the type from and asks the expression.
    let mut fields = Vec::with_capacity(group_by.len() + aggs.len());
    let mut cols: Vec<Column> = Vec::with_capacity(group_by.len() + aggs.len());
    for ((e, alias), c) in group_by.iter().zip(&group_cols) {
        let col = if n == 0 {
            ColumnBuilder::new(e.data_type(input.schema())?, 0).finish()
        } else {
            c.take(&rep_rows)
        };
        fields.push(Field::new(alias.clone(), col.data_type()));
        cols.push(col);
    }
    for (a, arg) in aggs.iter().zip(&arg_cols) {
        fields.push(Field::new(
            a.alias.clone(),
            a.func.output_type(input.schema())?,
        ));
        cols.push(grouping.aggregate(&a.func, arg.as_ref())?);
    }
    Batch::new(Arc::new(Schema::new(fields)), cols)
}

/// DISTINCT over whole rows, keeping each row's first occurrence in input
/// order. Hash-kernel work is added to `hash`; `budget` is checked every
/// `BUDGET_CHECK_INTERVAL` rows.
pub fn distinct(input: &Batch, budget: &QueryBudget, hash: &mut HashStats) -> Result<Batch> {
    let n = input.num_rows();
    let mut keep = Vec::new();
    let keys = encode_keys(input.columns(), input.selection(), n, NullKeys::Match, hash)?;
    let mut table = RawKeyTable::with_capacity(n.min(1024));
    for block in checked_blocks(n, budget) {
        for i in block? {
            if table.insert(keys.hash(i), keys.key(i), hash)?.1 {
                keep.push(i);
            }
        }
    }
    Ok(input.take(&keep))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::schema_ref;
    use crate::value::Value;

    /// `hash_aggregate` with the hash-work counters discarded.
    fn aggregate(input: &Batch, group_by: &[(Expr, String)], aggs: &[AggExpr]) -> Result<Batch> {
        hash_aggregate(
            input,
            group_by,
            aggs,
            &QueryBudget::unlimited(),
            &mut HashStats::default(),
        )
    }

    fn batch() -> Batch {
        let schema = schema_ref(Schema::new(vec![
            Field::new("mfr", DataType::Str),
            Field::new("reader", DataType::Str),
            Field::new("t", DataType::Int),
        ]));
        Batch::from_rows(
            schema,
            &[
                vec![Value::str("m1"), Value::str("r1"), Value::Int(10)],
                vec![Value::str("m1"), Value::str("r2"), Value::Int(20)],
                vec![Value::str("m1"), Value::str("r1"), Value::Int(30)],
                vec![Value::str("m2"), Value::str("r1"), Value::Null],
            ],
        )
        .unwrap()
    }

    #[test]
    fn count_distinct_and_avg() {
        let out = aggregate(
            &batch(),
            &[(Expr::col("mfr"), "mfr".into())],
            &[
                AggExpr {
                    func: AggFunc::CountDistinct(Expr::col("reader")),
                    alias: "readers".into(),
                },
                AggExpr {
                    func: AggFunc::Avg(Expr::col("t")),
                    alias: "avg_t".into(),
                },
                AggExpr {
                    func: AggFunc::CountStar,
                    alias: "n".into(),
                },
            ],
        )
        .unwrap();
        assert_eq!(out.num_rows(), 2);
        // first-seen order: m1 then m2
        assert_eq!(out.row(0)[0], Value::str("m1"));
        assert_eq!(out.row(0)[1], Value::Int(2));
        assert_eq!(out.row(0)[2], Value::Double(20.0));
        assert_eq!(out.row(0)[3], Value::Int(3));
        // m2: avg over all-null -> NULL, count(*) = 1
        assert_eq!(out.row(1)[2], Value::Null);
        assert_eq!(out.row(1)[3], Value::Int(1));
    }

    #[test]
    fn count_skips_nulls_count_star_does_not() {
        let out = aggregate(
            &batch(),
            &[],
            &[
                AggExpr {
                    func: AggFunc::Count(Expr::col("t")),
                    alias: "ct".into(),
                },
                AggExpr {
                    func: AggFunc::CountStar,
                    alias: "cs".into(),
                },
            ],
        )
        .unwrap();
        assert_eq!(out.row(0), vec![Value::Int(3), Value::Int(4)]);
    }

    #[test]
    fn min_max_sum() {
        let out = aggregate(
            &batch(),
            &[],
            &[
                AggExpr {
                    func: AggFunc::Min(Expr::col("t")),
                    alias: "mn".into(),
                },
                AggExpr {
                    func: AggFunc::Max(Expr::col("t")),
                    alias: "mx".into(),
                },
                AggExpr {
                    func: AggFunc::Sum(Expr::col("t")),
                    alias: "s".into(),
                },
            ],
        )
        .unwrap();
        assert_eq!(
            out.row(0),
            vec![Value::Int(10), Value::Int(30), Value::Int(60)]
        );
    }

    #[test]
    fn empty_input_global_agg_yields_one_row() {
        let b = batch().take(&[]);
        let out = aggregate(
            &b,
            &[],
            &[AggExpr {
                func: AggFunc::CountStar,
                alias: "n".into(),
            }],
        )
        .unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.row(0)[0], Value::Int(0));
    }

    #[test]
    fn empty_input_grouped_agg_yields_zero_rows() {
        let b = batch().take(&[]);
        let out = aggregate(
            &b,
            &[(Expr::col("mfr"), "mfr".into())],
            &[AggExpr {
                func: AggFunc::CountStar,
                alias: "n".into(),
            }],
        )
        .unwrap();
        assert_eq!(out.num_rows(), 0);
    }

    #[test]
    fn empty_input_reports_a_group_key_without_a_type() {
        // No row to take the key's type from, and the expression has none
        // (Str + Int): an error, not a silent Int column.
        let untyped = Expr::binary(
            Expr::col("mfr"),
            crate::expr::BinaryOp::Plus,
            Expr::lit(1i64),
        );
        let b = batch().take(&[]);
        assert!(
            untyped.evaluate(&b).is_ok(),
            "nothing to evaluate, nothing fails"
        );
        let err = aggregate(&b, &[(untyped, "k".into())], &[]).unwrap_err();
        assert!(matches!(err, Error::Plan(_)), "{err:?}");
    }

    #[test]
    fn null_group_keys_group_together() {
        let schema = schema_ref(Schema::new(vec![Field::new("k", DataType::Str)]));
        let b = Batch::from_rows(
            schema,
            &[vec![Value::Null], vec![Value::Null], vec![Value::str("a")]],
        )
        .unwrap();
        let out = aggregate(
            &b,
            &[(Expr::col("k"), "k".into())],
            &[AggExpr {
                func: AggFunc::CountStar,
                alias: "n".into(),
            }],
        )
        .unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.row(0), vec![Value::Null, Value::Int(2)]);
    }

    #[test]
    fn tripped_budget_aborts_inside_the_slot_pass_and_every_accumulator_pass() {
        use crate::error::AbortReason;
        // Neither function checks the budget anywhere but inside its row
        // loops, so an abort at all is an abort from inside them.
        let expired = QueryBudget::unlimited().with_deadline(std::time::Duration::ZERO);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let cancelled = QueryBudget::unlimited()
            .with_cancel(Arc::new(std::sync::atomic::AtomicBool::new(true)));
        let x = || Expr::col("t");
        let funcs = [
            AggFunc::CountStar,
            AggFunc::Count(x()),
            AggFunc::CountDistinct(x()),
            AggFunc::Sum(x()),
            AggFunc::Avg(x()),
            AggFunc::Min(x()),
            AggFunc::Max(x()),
        ];
        let b = batch();
        for (budget, reason) in [
            (&expired, AbortReason::DeadlineExceeded),
            (&cancelled, AbortReason::Cancelled),
        ] {
            let aborted = |r: Result<usize>| match r {
                Err(Error::Aborted(got)) => assert_eq!(got, reason),
                other => panic!("expected {reason:?}, got {other:?}"),
            };
            let mut hash = HashStats::default();
            aborted(hash_aggregate(&b, &[], &[], budget, &mut hash).map(|b| b.num_rows()));
            aborted(distinct(&b, budget, &mut hash).map(|b| b.num_rows()));
            // The slot pass done, each accumulator pass checks on its own.
            let arg = b.column_by_name("t").unwrap();
            let grouping = Grouping {
                slots: &[0, 0, 0, 1],
                groups: 2,
                budget,
            };
            for func in &funcs {
                aborted(grouping.aggregate(func, Some(arg)).map(|c| c.len()));
            }
        }
        // An empty input has no block to check.
        let none = b.take(&[]);
        assert!(distinct(&none, &expired, &mut HashStats::default()).is_ok());
    }

    #[test]
    fn distinct_rows() {
        let schema = schema_ref(Schema::new(vec![Field::new("k", DataType::Str)]));
        let b = Batch::from_rows(
            schema,
            &[
                vec![Value::str("a")],
                vec![Value::str("a")],
                vec![Value::Null],
                vec![Value::Null],
            ],
        )
        .unwrap();
        let d = distinct(&b, &QueryBudget::unlimited(), &mut HashStats::default()).unwrap();
        assert_eq!(d.num_rows(), 2);
    }
}
