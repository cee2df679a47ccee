//! `Batch`: a relation fragment — a schema plus equal-length columns.
//!
//! Columns are Arc-backed windows, so cloning and slicing a batch is O(1).
//! A batch may additionally carry a **selection vector**: a list of
//! surviving physical row indices produced by a filter. Selection lets a
//! filter mark survivors without gathering any column data; the logical row
//! count (`num_rows`) and row accessors see only the selected rows.
//! `flatten` compacts a selected batch back to a dense one; operators that
//! index columns physically must flatten (or consume `selection()`) first.

use crate::column::{Column, ColumnBuilder};
use crate::error::{Error, Result};
use crate::schema::{Schema, SchemaRef};
use crate::value::Value;
use std::sync::Arc;

/// A table fragment: one column per schema field, all the same physical
/// length, with an optional selection vector choosing a subset of rows.
/// Operators consume and produce batches.
#[derive(Debug, Clone)]
pub struct Batch {
    schema: SchemaRef,
    columns: Vec<Column>,
    /// Physical rows in each column.
    rows: usize,
    /// When present: logical row `k` is physical row `selection[k]`.
    selection: Option<Arc<Vec<u32>>>,
}

impl Batch {
    pub fn new(schema: SchemaRef, columns: Vec<Column>) -> Result<Self> {
        if schema.len() != columns.len() {
            return Err(Error::Schema(format!(
                "schema has {} fields but {} columns supplied",
                schema.len(),
                columns.len()
            )));
        }
        let rows = columns.first().map_or(0, Column::len);
        for (i, c) in columns.iter().enumerate() {
            if c.len() != rows {
                return Err(Error::Schema(format!(
                    "column {i} ('{}') has {} rows, expected {rows}",
                    schema.field(i).name,
                    c.len()
                )));
            }
            if c.data_type() != schema.field(i).data_type {
                return Err(Error::Schema(format!(
                    "column {i} ('{}') has type {} but schema says {}",
                    schema.field(i).name,
                    c.data_type(),
                    schema.field(i).data_type
                )));
            }
        }
        Ok(Batch {
            schema,
            columns,
            rows,
            selection: None,
        })
    }

    /// An empty batch with the given schema.
    pub fn empty(schema: SchemaRef) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| ColumnBuilder::new(f.data_type, 0).finish())
            .collect();
        Batch {
            schema,
            columns,
            rows: 0,
            selection: None,
        }
    }

    /// Build a batch from rows of scalar values (test/generator convenience).
    pub fn from_rows(schema: SchemaRef, rows: &[Vec<Value>]) -> Result<Self> {
        let mut builders: Vec<ColumnBuilder> = schema
            .fields()
            .iter()
            .map(|f| ColumnBuilder::new(f.data_type, rows.len()))
            .collect();
        for (rn, row) in rows.iter().enumerate() {
            if row.len() != schema.len() {
                return Err(Error::Schema(format!(
                    "row {rn} has {} values, schema has {} fields",
                    row.len(),
                    schema.len()
                )));
            }
            for (b, v) in builders.iter_mut().zip(row) {
                b.push(v)?;
            }
        }
        Batch::new(
            schema,
            builders.into_iter().map(ColumnBuilder::finish).collect(),
        )
    }

    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Logical rows: the selection length when one is present, otherwise the
    /// physical column length.
    pub fn num_rows(&self) -> usize {
        match &self.selection {
            Some(sel) => sel.len(),
            None => self.rows,
        }
    }

    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.num_rows() == 0
    }

    /// Column `i` — **physical** rows. When a selection vector is present the
    /// column still holds every pre-filter row; map logical indices through
    /// `selection()` or `flatten()` first.
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Column by (possibly qualified) name. Physical rows — see [`Batch::column`].
    pub fn column_by_name(&self, name: &str) -> Result<&Column> {
        Ok(&self.columns[self.schema.index_of_name(name)?])
    }

    /// The selection vector, if this batch carries one.
    pub fn selection(&self) -> Option<&[u32]> {
        self.selection.as_deref().map(Vec::as_slice)
    }

    /// True when there is no selection vector (logical rows == physical rows).
    pub fn is_flat(&self) -> bool {
        self.selection.is_none()
    }

    /// Attach a selection vector over this batch's physical rows without
    /// copying any column data. Indices must be in-bounds and, when composing
    /// with an existing selection, must already be resolved to physical rows.
    pub fn with_selection(&self, selection: Vec<u32>) -> Batch {
        debug_assert!(selection.iter().all(|&i| (i as usize) < self.rows));
        Batch {
            schema: self.schema.clone(),
            columns: self.columns.clone(),
            rows: self.rows,
            selection: Some(Arc::new(selection)),
        }
    }

    /// Keep only `survivors` — physical row indices forming a subsequence
    /// of this batch's rows, as a filter over it produces. When every row
    /// survived the batch is returned as it is, so what is flat stays flat
    /// (and re-joinable without a copy) for the operators above.
    pub fn with_survivors(self, survivors: Vec<u32>) -> Batch {
        if survivors.len() == self.num_rows() {
            self
        } else {
            self.with_selection(survivors)
        }
    }

    /// The selection vector unless it selects every physical row in order —
    /// such a batch is flat in all but name.
    fn effective_selection(&self) -> Option<&[u32]> {
        self.selection().filter(|sel| {
            sel.len() != self.rows || sel.iter().enumerate().any(|(k, &i)| i as usize != k)
        })
    }

    /// Compact to a dense batch: gathers the selected rows once. A flat
    /// batch, or one whose selection keeps every row in order, returns an
    /// O(1) clone of the columns.
    pub fn flatten(&self) -> Batch {
        let columns = match self.effective_selection() {
            None => self.columns.clone(),
            Some(sel) => {
                let indices: Vec<usize> = sel.iter().map(|&i| i as usize).collect();
                self.columns.iter().map(|c| c.take(&indices)).collect()
            }
        };
        Batch {
            schema: self.schema.clone(),
            columns,
            rows: self.num_rows(),
            selection: None,
        }
    }

    /// Zero-copy chunk view: logical rows `[offset, offset + len)`. O(1) for
    /// flat batches (column windows are shared); for a selected batch only
    /// the selection subrange is copied, never column data — the slice of a
    /// selected batch *is* the slice of its selection, so logical row `i`
    /// of the result equals logical row `offset + i` of the input.
    ///
    /// Panics when the window falls outside the logical row range; use
    /// [`Batch::try_slice`] for a recoverable, field-named error.
    pub fn slice(&self, offset: usize, len: usize) -> Batch {
        self.try_slice(offset, len)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Checked [`Batch::slice`]: `Err` names the offending fields
    /// (`offset`, `len`, logical `rows`, selection length) instead of
    /// panicking, so operator code can surface a typed error.
    pub fn try_slice(&self, offset: usize, len: usize) -> Result<Batch> {
        let end = offset.checked_add(len).ok_or_else(|| {
            Error::Execution(format!(
                "slice: offset={offset} + len={len} overflows usize"
            ))
        })?;
        if end > self.num_rows() {
            return Err(Error::Execution(format!(
                "slice: window [offset={offset}, offset+len={end}) out of bounds for \
                 batch with rows={}{}",
                self.num_rows(),
                match &self.selection {
                    Some(sel) => format!(" (selection of {} entries)", sel.len()),
                    None => String::new(),
                }
            )));
        }
        Ok(match &self.selection {
            None => Batch {
                schema: self.schema.clone(),
                columns: self.columns.iter().map(|c| c.slice(offset, len)).collect(),
                rows: len,
                selection: None,
            },
            Some(sel) => Batch {
                schema: self.schema.clone(),
                columns: self.columns.clone(),
                rows: self.rows,
                selection: Some(Arc::new(sel[offset..end].to_vec())),
            },
        })
    }

    /// Row `i` (logical) as scalar values.
    pub fn row(&self, i: usize) -> Vec<Value> {
        let phys = match &self.selection {
            Some(sel) => sel[i] as usize,
            None => i,
        };
        self.columns.iter().map(|c| c.value(phys)).collect()
    }

    /// Gather logical rows by index into a new (flat) batch.
    pub fn take(&self, indices: &[usize]) -> Batch {
        let phys: Vec<usize> = match &self.selection {
            Some(sel) => indices.iter().map(|&i| sel[i] as usize).collect(),
            None => indices.to_vec(),
        };
        Batch {
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.take(&phys)).collect(),
            rows: phys.len(),
            selection: None,
        }
    }

    /// Keep only the columns at `positions`, in that order. O(1) per kept
    /// column: payloads and the selection vector are shared, not copied.
    pub fn project(&self, positions: &[usize]) -> Batch {
        let fields = positions
            .iter()
            .map(|&i| self.schema.field(i).clone())
            .collect();
        Batch {
            schema: Arc::new(Schema::new(fields)),
            columns: positions.iter().map(|&i| self.columns[i].clone()).collect(),
            rows: self.rows,
            selection: self.selection.clone(),
        }
    }

    /// Replace the schema (must have identical types) — used to re-qualify
    /// fields when a table is aliased. Preserves any selection vector.
    pub fn with_schema(&self, schema: SchemaRef) -> Result<Batch> {
        if !self.schema.types_compatible(&schema) {
            return Err(Error::Schema(format!(
                "cannot rebrand batch [{}] as [{}]",
                self.schema, schema
            )));
        }
        Ok(Batch {
            schema,
            columns: self.columns.clone(),
            rows: self.rows,
            selection: self.selection.clone(),
        })
    }

    /// Vertically concatenate batches with type-compatible schemas; the
    /// first batch's schema is kept. Selected batches are compacted first.
    pub fn concat(parts: &[Batch]) -> Result<Batch> {
        let Some(first) = parts.first() else {
            return Err(Error::Internal("concat of zero batches".into()));
        };
        for p in parts {
            if !p.schema.types_compatible(&first.schema) {
                return Err(Error::Schema(format!(
                    "union schema mismatch: [{}] vs [{}]",
                    p.schema, first.schema
                )));
            }
        }
        // Flat parts concatenate column-wise (O(1) when they are adjacent
        // windows of one payload); selected rows are gathered straight into
        // the output, never into an intermediate flat batch.
        let selections: Vec<Option<&[u32]>> =
            parts.iter().map(Batch::effective_selection).collect();
        let all_flat = selections.iter().all(Option::is_none);
        let rows = parts.iter().map(Batch::num_rows).sum();
        let mut columns = Vec::with_capacity(first.num_columns());
        for ci in 0..first.num_columns() {
            let cols: Vec<&Column> = parts.iter().map(|p| p.column(ci)).collect();
            columns.push(if all_flat {
                Column::concat(&cols)?
            } else {
                let mut b = ColumnBuilder::new(cols[0].data_type(), rows);
                for (c, sel) in cols.iter().zip(&selections) {
                    match sel {
                        None => b.extend_from_column(c),
                        Some(sel) => b.extend_selected(c, sel),
                    }
                }
                b.finish()
            });
        }
        Ok(Batch {
            schema: first.schema.clone(),
            columns,
            rows,
            selection: None,
        })
    }

    /// All rows as vectors of values, sorted with `Value::total_cmp` —
    /// the canonical multiset form used to compare query results in tests.
    pub fn sorted_rows(&self) -> Vec<Vec<Value>> {
        let mut rows: Vec<Vec<Value>> = (0..self.num_rows()).map(|i| self.row(i)).collect();
        rows.sort_by(|a, b| {
            for (x, y) in a.iter().zip(b.iter()) {
                let o = x.total_cmp(y);
                if o != std::cmp::Ordering::Equal {
                    return o;
                }
            }
            std::cmp::Ordering::Equal
        });
        rows
    }

    /// Render as an ASCII table (for examples and the repro binary).
    pub fn to_pretty_string(&self, max_rows: usize) -> String {
        use std::fmt::Write;
        let headers: Vec<String> = self
            .schema
            .fields()
            .iter()
            .map(|f| f.qualified_name())
            .collect();
        let total = self.num_rows();
        let shown = total.min(max_rows);
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        let mut cells: Vec<Vec<String>> = Vec::with_capacity(shown);
        for r in 0..shown {
            let row: Vec<String> = self.row(r).iter().map(Value::to_string).collect();
            for (w, cell) in widths.iter_mut().zip(&row) {
                *w = (*w).max(cell.len());
            }
            cells.push(row);
        }
        let mut out = String::new();
        let sep = |out: &mut String| {
            out.push('+');
            for w in &widths {
                out.push_str(&"-".repeat(w + 2));
                out.push('+');
            }
            out.push('\n');
        };
        sep(&mut out);
        out.push('|');
        for (h, w) in headers.iter().zip(&widths) {
            let _ = write!(out, " {h:w$} |");
        }
        out.push('\n');
        sep(&mut out);
        for row in &cells {
            out.push('|');
            for (cell, w) in row.iter().zip(&widths) {
                let _ = write!(out, " {cell:w$} |");
            }
            out.push('\n');
        }
        sep(&mut out);
        if total > shown {
            let _ = writeln!(out, "... {} more rows", total - shown);
        }
        out
    }
}

/// Shared convenience: wrap a schema into a ref.
pub fn schema_ref(schema: Schema) -> SchemaRef {
    Arc::new(schema)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use crate::value::DataType;

    fn sample() -> Batch {
        let schema = schema_ref(Schema::new(vec![
            Field::new("epc", DataType::Str),
            Field::new("rtime", DataType::Int),
        ]));
        Batch::from_rows(
            schema,
            &[
                vec![Value::str("e1"), Value::Int(10)],
                vec![Value::str("e2"), Value::Int(20)],
                vec![Value::str("e1"), Value::Int(30)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_checks_lengths_and_types() {
        let schema = schema_ref(Schema::new(vec![Field::new("a", DataType::Int)]));
        let wrong = Column::from_values(DataType::Str, &[Value::str("x")]).unwrap();
        let err = Batch::new(schema, vec![wrong]).unwrap_err().to_string();
        assert!(err.contains("'a'"), "type error names the field: {err}");
    }

    #[test]
    fn length_mismatch_error_names_the_field() {
        let schema = schema_ref(Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
        ]));
        let c0 = Column::from_values(DataType::Int, &[Value::Int(1), Value::Int(2)]).unwrap();
        let c1 = Column::from_values(DataType::Int, &[Value::Int(1)]).unwrap();
        let err = Batch::new(schema, vec![c0, c1]).unwrap_err().to_string();
        assert!(err.contains("'b'"), "length error names the field: {err}");
        assert!(err.contains("expected 2"), "{err}");
    }

    #[test]
    fn row_access() {
        let b = sample();
        assert_eq!(b.row(1), vec![Value::str("e2"), Value::Int(20)]);
        assert_eq!(b.column_by_name("rtime").unwrap().int_at(2), Some(30));
    }

    #[test]
    fn take_rows() {
        let b = sample().take(&[2, 0]);
        assert_eq!(b.num_rows(), 2);
        assert_eq!(b.row(0), vec![Value::str("e1"), Value::Int(30)]);
    }

    #[test]
    fn concat_batches() {
        let b = sample();
        let c = Batch::concat(&[b.clone(), b]).unwrap();
        assert_eq!(c.num_rows(), 6);
    }

    #[test]
    fn sorted_rows_is_canonical() {
        let a = sample();
        let b = a.take(&[2, 1, 0]);
        assert_eq!(a.sorted_rows(), b.sorted_rows());
    }

    #[test]
    fn pretty_print_smoke() {
        let s = sample().to_pretty_string(2);
        assert!(s.contains("epc"));
        assert!(s.contains("1 more rows"));
    }

    #[test]
    fn selection_changes_logical_view_without_copying() {
        let b = sample().with_selection(vec![2, 0]);
        assert_eq!(b.num_rows(), 2);
        assert!(!b.is_flat());
        assert_eq!(b.row(0), vec![Value::str("e1"), Value::Int(30)]);
        assert_eq!(b.row(1), vec![Value::str("e1"), Value::Int(10)]);
        // Physical columns still hold all three rows.
        assert_eq!(b.column(0).len(), 3);
        // flatten() compacts to a dense batch with the same logical rows.
        let flat = b.flatten();
        assert!(flat.is_flat());
        assert_eq!(flat.num_rows(), 2);
        assert_eq!(flat.sorted_rows(), b.sorted_rows());
        // take() through a selection resolves logical indices.
        let t = b.take(&[1]);
        assert_eq!(t.row(0), vec![Value::str("e1"), Value::Int(10)]);
    }

    #[test]
    fn project_shares_columns_and_keeps_the_selection() {
        let b = sample().with_selection(vec![2, 0]);
        let p = b.project(&[1, 0, 1]);
        assert_eq!(p.schema().field(0).name, "rtime");
        assert_eq!(p.num_rows(), 2);
        assert_eq!(
            p.row(0),
            vec![Value::Int(30), Value::str("e1"), Value::Int(30)]
        );
        assert!(std::ptr::eq(p.column(1).data(), b.column(0).data()));
        // No column still carries the rows.
        assert_eq!(sample().project(&[]).num_rows(), 3);
    }

    #[test]
    fn slice_of_flat_batch_shares_columns() {
        let b = sample();
        let s = b.slice(1, 2);
        assert_eq!(s.num_rows(), 2);
        assert_eq!(s.row(0), vec![Value::str("e2"), Value::Int(20)]);
        assert_eq!(s.row(1), vec![Value::str("e1"), Value::Int(30)]);
        // A slice of a slice stays consistent.
        let s2 = s.slice(1, 1);
        assert_eq!(s2.row(0), vec![Value::str("e1"), Value::Int(30)]);
    }

    #[test]
    fn slice_of_selected_batch_slices_the_selection() {
        let b = sample().with_selection(vec![2, 1, 0]);
        let s = b.slice(1, 2);
        assert_eq!(s.num_rows(), 2);
        assert_eq!(s.row(0), vec![Value::str("e2"), Value::Int(20)]);
        assert_eq!(s.row(1), vec![Value::str("e1"), Value::Int(10)]);
    }

    #[test]
    fn concat_of_chunk_slices_shares_the_original_payload() {
        let b = sample();
        let same_payload = |a: &Batch, b: &Batch| {
            a.columns()
                .iter()
                .zip(b.columns())
                .all(|(x, y)| std::ptr::eq(x.data(), y.data()))
        };
        let joined = Batch::concat(&[b.slice(0, 1), b.slice(1, 2)]).unwrap();
        assert!(same_payload(&joined, &b));
        assert_eq!(joined.sorted_rows(), b.sorted_rows());
        // A selection that keeps every row in order is flat in all but
        // name: it flattens, and concatenates, without a copy.
        let all_rows = b.with_selection(vec![0, 1, 2]);
        assert!(same_payload(&all_rows.flatten(), &b));
        assert!(all_rows.flatten().is_flat());
        assert!(same_payload(&Batch::concat(&[all_rows]).unwrap(), &b));
        // A permutation of all rows is a real selection.
        let permuted = b.with_selection(vec![0, 2, 1]);
        assert!(!same_payload(&permuted.flatten(), &b));
        assert_eq!(permuted.flatten().row(1), b.row(2));
    }

    #[test]
    fn concat_gathers_selected_parts_straight_into_the_output() {
        let b = sample();
        let parts = [
            b.slice(0, 2),
            b.with_selection(vec![2, 0]),
            b.slice(1, 2).with_selection(vec![1]),
        ];
        let joined = Batch::concat(&parts).unwrap();
        assert!(joined.is_flat());
        let expect: Vec<Vec<Value>> = parts
            .iter()
            .flat_map(|p| (0..p.num_rows()).map(|i| p.row(i)))
            .collect();
        let got: Vec<Vec<Value>> = (0..joined.num_rows()).map(|i| joined.row(i)).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn concat_compacts_selections() {
        let a = sample().with_selection(vec![0]);
        let b = sample().with_selection(vec![2]);
        let c = Batch::concat(&[a, b]).unwrap();
        assert!(c.is_flat());
        assert_eq!(c.num_rows(), 2);
        assert_eq!(c.row(1), vec![Value::str("e1"), Value::Int(30)]);
    }
}
