//! Window aggregates by recomputing every row's frame from scratch.

use crate::expr::evaluate;
use dc_relational::batch::Batch;
use dc_relational::column::Column;
use dc_relational::error::{Error, Result};
use dc_relational::expr::Expr;
use dc_relational::value::{DataType, Value};
use dc_relational::window::{Frame, FrameBound, FrameUnits, WindowExpr, WindowFuncKind};

/// Window aggregates over one batch **already sorted** by (partition keys,
/// order keys): O(n · frame width) per partition on scalar [`Value`]s.
pub struct NaiveWindow<'a> {
    exprs: &'a [WindowExpr],
    order_col: Option<Column>,
    /// Evaluated argument column per expression (`None` for `count(*)`).
    arg_cols: Vec<Option<Column>>,
    ranges: Vec<(usize, usize)>,
}

impl<'a> NaiveWindow<'a> {
    /// Evaluate the partition keys, the RANGE order key and every aggregate
    /// argument against `batch`, and cut it into partitions: maximal runs of
    /// rows whose partition-key tuples are equal (NULLs equal each other).
    pub fn prepare(
        batch: &Batch,
        partition_by: &[Expr],
        order_by_key: Option<&Expr>,
        exprs: &'a [WindowExpr],
    ) -> Result<Self> {
        let part_cols: Vec<Column> = partition_by
            .iter()
            .map(|e| evaluate(e, batch))
            .collect::<Result<_>>()?;
        let order_col = order_by_key.map(|e| evaluate(e, batch)).transpose()?;
        let arg_cols = exprs
            .iter()
            .map(|we| we.arg.as_ref().map(|a| evaluate(a, batch)).transpose())
            .collect::<Result<_>>()?;
        let key = |i: usize| -> Vec<Value> { part_cols.iter().map(|c| c.value(i)).collect() };
        let mut ranges = Vec::new();
        let mut start = 0;
        for i in 1..=batch.num_rows() {
            if i == batch.num_rows() || key(i) != key(start) {
                ranges.push((start, i));
                start = i;
            }
        }
        Ok(NaiveWindow {
            exprs,
            order_col,
            arg_cols,
            ranges,
        })
    }

    /// The partition ranges, in input (sorted) order.
    pub fn partitions(&self) -> &[(usize, usize)] {
        &self.ranges
    }

    /// Every expression's values over partition `[p_lo, p_hi)` — one vector
    /// per expression, one value per row — plus the frame rows visited.
    pub fn eval_partition(&self, (p_lo, p_hi): (usize, usize)) -> Result<(Vec<Vec<Value>>, u64)> {
        let mut work: u64 = 0;
        let mut outputs = Vec::with_capacity(self.exprs.len());
        for (we, arg_col) in self.exprs.iter().zip(&self.arg_cols) {
            let mut vals = Vec::with_capacity(p_hi - p_lo);
            for i in p_lo..p_hi {
                let frame = frame_rows(&we.frame, i, p_lo, p_hi, self.order_col.as_ref())?;
                let v = match frame {
                    None => empty_frame_value(we.func),
                    Some((lo, hi)) => {
                        work += (hi - lo + 1) as u64;
                        accumulate(we.func, arg_col.as_ref(), lo, hi)?
                    }
                };
                vals.push(v);
            }
            outputs.push(vals);
        }
        Ok((outputs, work))
    }

    /// Every expression's values over the whole batch, one vector per
    /// expression.
    pub fn eval_all(&self) -> Result<Vec<Vec<Value>>> {
        let mut out: Vec<Vec<Value>> = vec![Vec::new(); self.exprs.len()];
        for &range in &self.ranges {
            let (vals, _) = self.eval_partition(range)?;
            for (acc, v) in out.iter_mut().zip(vals) {
                acc.extend(v);
            }
        }
        Ok(out)
    }
}

/// Number of leading NULL order keys in partition `[p_lo, p_hi)` (the input
/// is sorted with NULLs first).
fn null_prefix_len(key: &Column, p_lo: usize, p_hi: usize) -> usize {
    (p_lo..p_hi).take_while(|&i| key.is_null(i)).count()
}

/// Compute the inclusive frame `[lo, hi]` for row `i` inside partition
/// `[p_lo, p_hi)`. Returns `None` for an empty frame.
fn frame_rows(
    frame: &Frame,
    i: usize,
    p_lo: usize,
    p_hi: usize,
    order_key: Option<&Column>,
) -> Result<Option<(usize, usize)>> {
    match frame.units {
        FrameUnits::Rows => {
            let lo = match frame.start {
                FrameBound::UnboundedPreceding => p_lo as i64,
                FrameBound::Preceding(k) => i as i64 - k,
                FrameBound::CurrentRow => i as i64,
                FrameBound::Following(k) => i as i64 + k,
                FrameBound::UnboundedFollowing => {
                    return Err(Error::Plan(
                        "frame start cannot be UNBOUNDED FOLLOWING".into(),
                    ))
                }
            };
            let hi = match frame.end {
                FrameBound::UnboundedPreceding => {
                    return Err(Error::Plan(
                        "frame end cannot be UNBOUNDED PRECEDING".into(),
                    ))
                }
                FrameBound::Preceding(k) => i as i64 - k,
                FrameBound::CurrentRow => i as i64,
                FrameBound::Following(k) => i as i64 + k,
                FrameBound::UnboundedFollowing => p_hi as i64 - 1,
            };
            let lo = lo.max(p_lo as i64);
            let hi = hi.min(p_hi as i64 - 1);
            if lo > hi {
                Ok(None)
            } else {
                Ok(Some((lo as usize, hi as usize)))
            }
        }
        FrameUnits::Range => {
            let key = order_key.ok_or_else(|| {
                Error::Plan("RANGE frame requires exactly one numeric ORDER BY key".into())
            })?;
            // Sorted input puts NULL order keys first within the partition.
            // Binary searches must stay inside the non-NULL subrange:
            // `key_num` maps NULL to `None`, so a predicate over the whole
            // partition would not be monotone once NULLs are present.
            let nn_lo = p_lo + null_prefix_len(key, p_lo, p_hi);
            if key.is_null(i) {
                // NULL order key: NULLs are peers of each other and of no
                // non-NULL row, so the frame is the NULL peer group —
                // nonempty, since row `i` itself is in it.
                return Ok(Some((p_lo, nn_lo - 1)));
            }
            let v = key_num(key, i).ok_or_else(|| {
                Error::Execution("RANGE frame requires a numeric ORDER BY key".into())
            })?;
            // partition_point over the sorted non-NULL keys.
            let first_ge = |threshold: i64| -> usize {
                let mut lo = nn_lo;
                let mut hi = p_hi;
                while lo < hi {
                    let mid = (lo + hi) / 2;
                    if key_num(key, mid).is_some_and(|k| k < threshold) {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                lo
            };
            let last_le = |threshold: i64| -> Option<usize> {
                let p = first_ge(threshold + 1);
                if p == nn_lo {
                    None
                } else {
                    Some(p - 1)
                }
            };
            let lo = match frame.start {
                FrameBound::UnboundedPreceding => p_lo,
                FrameBound::Preceding(k) => first_ge(v - k),
                FrameBound::CurrentRow => first_ge(v),
                FrameBound::Following(k) => first_ge(v + k),
                FrameBound::UnboundedFollowing => {
                    return Err(Error::Plan(
                        "frame start cannot be UNBOUNDED FOLLOWING".into(),
                    ))
                }
            };
            let hi = match frame.end {
                FrameBound::UnboundedPreceding => {
                    return Err(Error::Plan(
                        "frame end cannot be UNBOUNDED PRECEDING".into(),
                    ))
                }
                FrameBound::Preceding(k) => last_le(v - k),
                FrameBound::CurrentRow => last_le(v),
                FrameBound::Following(k) => last_le(v + k),
                FrameBound::UnboundedFollowing => Some(p_hi - 1),
            };
            match hi {
                Some(hi) if lo <= hi && lo < p_hi => Ok(Some((lo, hi))),
                _ => Ok(None),
            }
        }
    }
}

/// The order key as the `i64` RANGE frames compare (a Double truncates).
#[inline]
fn key_num(c: &Column, i: usize) -> Option<i64> {
    if c.is_null(i) {
        None
    } else {
        match c.value(i) {
            Value::Int(v) => Some(v),
            Value::Double(v) => Some(v as i64),
            _ => None,
        }
    }
}

/// The value of an aggregate over an empty frame.
fn empty_frame_value(func: WindowFuncKind) -> Value {
    match func {
        WindowFuncKind::Count => Value::Int(0),
        _ => Value::Null,
    }
}

/// One frame's aggregate on scalar `Value`s.
fn accumulate(func: WindowFuncKind, arg: Option<&Column>, lo: usize, hi: usize) -> Result<Value> {
    match func {
        WindowFuncKind::Count => {
            let c = match arg {
                None => (hi - lo + 1) as i64,
                Some(col) => (lo..=hi).filter(|&i| !col.is_null(i)).count() as i64,
            };
            Ok(Value::Int(c))
        }
        WindowFuncKind::Max | WindowFuncKind::Min => {
            let col = arg.ok_or_else(|| Error::Plan("max/min need an argument".into()))?;
            let mut best: Option<Value> = None;
            for i in lo..=hi {
                if col.is_null(i) {
                    continue;
                }
                let v = col.value(i);
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let keep_new = if func == WindowFuncKind::Max {
                            v.total_cmp(&b).is_gt()
                        } else {
                            v.total_cmp(&b).is_lt()
                        };
                        if keep_new {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            Ok(best.unwrap_or(Value::Null))
        }
        WindowFuncKind::Sum | WindowFuncKind::Avg => {
            let col = arg.ok_or_else(|| Error::Plan("sum/avg need an argument".into()))?;
            // i128 running sum: wide enough that it never wraps for any
            // frame of i64 values, so only the frame *total* is range
            // checked — the same rule the incremental kernel applies,
            // keeping both paths identical on overflowing inputs.
            let mut sum_i: i128 = 0;
            let mut sum_f: f64 = 0.0;
            let mut is_float = col.data_type() == DataType::Double;
            let mut count = 0i64;
            for i in lo..=hi {
                if col.is_null(i) {
                    continue;
                }
                match col.value(i) {
                    Value::Int(v) => {
                        sum_i += v as i128;
                    }
                    Value::Double(v) => {
                        is_float = true;
                        sum_f += v;
                    }
                    other => {
                        return Err(Error::Execution(format!(
                            "sum/avg over non-numeric value {other}"
                        )))
                    }
                }
                count += 1;
            }
            if count == 0 {
                return Ok(Value::Null);
            }
            let total = sum_f + sum_i as f64;
            match func {
                WindowFuncKind::Sum => {
                    if is_float {
                        Ok(Value::Double(total))
                    } else {
                        i64::try_from(sum_i).map(Value::Int).map_err(|_| {
                            Error::Execution("sum overflow in window aggregate".into())
                        })
                    }
                }
                WindowFuncKind::Avg => Ok(Value::Double(total / count as f64)),
                _ => unreachable!(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_relational::batch::schema_ref;
    use dc_relational::schema::{Field, Schema};
    use FrameBound::{CurrentRow as Cur, Following as Fol, Preceding as Pre};

    const UNB_PRE: FrameBound = FrameBound::UnboundedPreceding;
    const UNB_FOL: FrameBound = FrameBound::UnboundedFollowing;

    /// One partition sorted by `t` NULLS FIRST: two NULL order keys, then
    /// 10, 20, 20, 30; `v` carries a NULL at t = 20.
    fn reads() -> Batch {
        let schema = schema_ref(Schema::new(vec![
            Field::new("epc", DataType::Str),
            Field::new("t", DataType::Int),
            Field::new("v", DataType::Int),
        ]));
        let rows: Vec<Vec<Value>> = [
            (None, Some(100)),
            (None, Some(7)),
            (Some(10), Some(1)),
            (Some(20), None),
            (Some(20), Some(2)),
            (Some(30), Some(4)),
        ]
        .into_iter()
        .map(|(t, v)| {
            vec![
                Value::str("e"),
                t.map_or(Value::Null, Value::Int),
                v.map_or(Value::Null, Value::Int),
            ]
        })
        .collect();
        Batch::from_rows(schema, &rows).unwrap()
    }

    fn eval(func: WindowFuncKind, arg: Option<&str>, frame: Frame) -> Vec<Value> {
        let exprs = [WindowExpr {
            func,
            arg: arg.map(Expr::col),
            frame,
            alias: "w".into(),
        }];
        let batch = reads();
        let w = NaiveWindow::prepare(&batch, &[Expr::col("epc")], Some(&Expr::col("t")), &exprs)
            .unwrap();
        assert_eq!(w.partitions(), [(0, 6)]);
        w.eval_all().unwrap().remove(0)
    }

    fn ints(vals: [Option<i64>; 6]) -> Vec<Value> {
        vals.map(|v| v.map_or(Value::Null, Value::Int)).to_vec()
    }

    /// (frame, expected `sum(v)` per row).
    #[test]
    fn frame_table() {
        let test_cases = [
            // ROWS frames count physical rows, NULL order keys included.
            (
                Frame::rows(Pre(1), Pre(1)),
                ints([None, Some(100), Some(7), Some(1), None, Some(2)]),
            ),
            (
                Frame::rows(UNB_PRE, Cur),
                ints([
                    Some(100),
                    Some(107),
                    Some(108),
                    Some(108),
                    Some(110),
                    Some(114),
                ]),
            ),
            (
                Frame::rows(Fol(1), Fol(2)),
                ints([Some(8), Some(1), Some(2), Some(6), Some(4), None]),
            ),
            // RANGE frames: rows with a NULL order key are peers of each
            // other and of nobody else, whatever the bounds say; equal keys
            // (the two t = 20 rows) share one frame.
            (
                Frame::range(Pre(10), Cur),
                ints([Some(107), Some(107), Some(1), Some(3), Some(3), Some(6)]),
            ),
            (
                Frame::range(UNB_PRE, UNB_FOL),
                ints([
                    Some(107),
                    Some(107),
                    Some(114),
                    Some(114),
                    Some(114),
                    Some(114),
                ]),
            ),
            (
                Frame::range(Cur, Fol(10)),
                ints([Some(107), Some(107), Some(3), Some(6), Some(6), Some(4)]),
            ),
            // No non-NULL key is <= 30 - 25 = 5: the frame is empty although
            // UNBOUNDED PRECEDING reaches back over the NULL prefix.
            (
                Frame::range(UNB_PRE, Pre(25)),
                ints([Some(107), Some(107), None, None, None, None]),
            ),
        ];
        for (frame, expect) in test_cases {
            let got = eval(WindowFuncKind::Sum, Some("v"), frame.clone());
            assert_eq!(got, expect, "sum(v) over {frame}");
        }
    }

    /// The value over an empty frame (the last row of `ROWS 1 FOLLOWING`)
    /// and over a frame holding only a NULL argument (`t = 20`'s first row
    /// under `ROWS CURRENT ROW`), per function.
    #[test]
    fn empty_and_all_null_frame_values_per_function() {
        let test_cases = [
            (WindowFuncKind::Count, None, Value::Int(0), Value::Int(1)),
            (
                WindowFuncKind::Count,
                Some("v"),
                Value::Int(0),
                Value::Int(0),
            ),
            (WindowFuncKind::Sum, Some("v"), Value::Null, Value::Null),
            (WindowFuncKind::Avg, Some("v"), Value::Null, Value::Null),
            (WindowFuncKind::Min, Some("v"), Value::Null, Value::Null),
            (WindowFuncKind::Max, Some("v"), Value::Null, Value::Null),
        ];
        for (func, arg, empty, all_null) in test_cases {
            let got = eval(func, arg, Frame::rows(Fol(1), Fol(1)));
            assert_eq!(got[5], empty, "{func} over an empty frame");
            let got = eval(func, arg, Frame::rows(Cur, Cur));
            assert_eq!(got[3], all_null, "{func} over a NULL-only frame");
        }
    }

    #[test]
    fn partitions_split_on_any_key_change_and_equate_nulls() {
        let schema = schema_ref(Schema::new(vec![
            Field::new("a", DataType::Str),
            Field::new("b", DataType::Int),
        ]));
        let rows: Vec<Vec<Value>> = [
            (None, Some(1)),
            (None, Some(1)),
            (None, None),
            (Some("x"), None),
            (Some("x"), None),
        ]
        .into_iter()
        .map(|(a, b)| {
            vec![
                a.map_or(Value::Null, Value::str),
                b.map_or(Value::Null, Value::Int),
            ]
        })
        .collect();
        let batch = Batch::from_rows(schema, &rows).unwrap();
        let w = NaiveWindow::prepare(&batch, &[Expr::col("a"), Expr::col("b")], None, &[]).unwrap();
        assert_eq!(w.partitions(), [(0, 2), (2, 3), (3, 5)]);
        let none = NaiveWindow::prepare(&batch, &[], None, &[]).unwrap();
        assert_eq!(none.partitions(), [(0, 5)]);
    }

    #[test]
    fn malformed_frames_and_arguments_are_errors() {
        let run = |func, arg: Option<&str>, frame| {
            let exprs = [WindowExpr {
                func,
                arg: arg.map(Expr::col),
                frame,
                alias: "w".into(),
            }];
            let batch = reads();
            NaiveWindow::prepare(&batch, &[], None, &exprs)
                .and_then(|w| w.eval_all())
                .is_err()
        };
        assert!(run(
            WindowFuncKind::Sum,
            Some("v"),
            Frame::rows(UNB_FOL, Cur)
        ));
        assert!(run(
            WindowFuncKind::Sum,
            Some("v"),
            Frame::rows(Cur, UNB_PRE)
        ));
        // RANGE needs the order key; sum needs a numeric argument.
        assert!(run(
            WindowFuncKind::Sum,
            Some("v"),
            Frame::range(Pre(1), Cur)
        ));
        assert!(run(WindowFuncKind::Sum, Some("epc"), Frame::rows(Cur, Cur)));
        assert!(run(WindowFuncKind::Max, None, Frame::rows(Cur, Cur)));
    }
}
