//! Base-table scan with optional index narrowing.
//!
//! The *candidate* index accesses (which columns, what bounds) were derived
//! by `lower()` from the pushed-down filter; the only decision left at
//! runtime is data-dependent: which candidate fetches the fewest rows on
//! the actual table, and whether even the best one beats a full scan.

use super::{next_slice, ChunkStream, ExecContext, PhysicalOperator};
use crate::batch::Batch;
use crate::error::Result;
use crate::expr::{filter_chunk, Expr};
use crate::index::ScanBound;
use crate::schema::{Schema, SchemaRef};
use crate::segment::{candidate_zone_predicate, SealedSegment, ZonePredicate};
use crate::table::Table;
use crate::value::Value;
use std::sync::Arc;

/// One index access the scan may use, fixed at lowering time.
#[derive(Debug, Clone)]
pub struct IndexCandidate {
    /// Table column whose ordered index would answer the access.
    pub column: String,
    pub lower: ScanBound,
    pub upper: ScanBound,
    /// Positive IN-list; takes precedence over the range bounds.
    pub in_values: Option<Vec<Value>>,
}

#[derive(Debug)]
pub struct PhysicalScan {
    pub table: String,
    pub alias: Option<String>,
    /// Full pushed-down predicate, re-applied as a residual after the fetch.
    pub filter: Option<Expr>,
    /// Candidate index accesses in deterministic (column-position) order.
    pub candidates: Vec<IndexCandidate>,
    /// The table columns (bare names, table order) something above the scan
    /// reads — all it emits. `None`: every column. The filter is evaluated
    /// on the table's columns either way.
    pub columns: Option<Vec<String>>,
}

impl PhysicalOperator for PhysicalScan {
    fn name(&self) -> &'static str {
        "ScanExec"
    }

    fn label(&self) -> String {
        let mut s = format!("ScanExec: {}", self.table);
        if let Some(a) = &self.alias {
            s.push_str(&format!(" AS {a}"));
        }
        if !self.candidates.is_empty() {
            let cols: Vec<&str> = self.candidates.iter().map(|c| c.column.as_str()).collect();
            s.push_str(&format!(" index_candidates=[{}]", cols.join(", ")));
        }
        if let Some(f) = &self.filter {
            s.push_str(&format!(" filter={f}"));
        }
        if let Some(cols) = &self.columns {
            s.push_str(&format!(" columns=[{}]", cols.join(", ")));
        }
        s
    }

    fn children(&self) -> Vec<&dyn PhysicalOperator> {
        vec![]
    }

    fn open<'a>(&'a self, ctx: &mut ExecContext<'_>) -> Result<Box<dyn ChunkStream + 'a>> {
        let t = ctx.catalog.get(&self.table)?;
        let base = self.fetch_base(&t, ctx)?;
        let out = match &self.columns {
            Some(names) => {
                let positions: Vec<usize> = names
                    .iter()
                    .map(|n| t.schema().index_of(None, n))
                    .collect::<Result<_>>()?;
                base.project(&positions)
            }
            None => base.clone(),
        };
        Ok(Box::new(ScanStream {
            base,
            out,
            filter: self.filter.as_ref(),
            pos: 0,
        }))
    }
}

impl PhysicalScan {
    /// Fetch the (index/segment-narrowed) base rows, every table column
    /// under the scan's qualifier, and record the fetch counters. The
    /// residual filter is applied on top by `ScanStream`, chunk by chunk.
    fn fetch_base(&self, t: &Table, ctx: &mut ExecContext<'_>) -> Result<Batch> {
        let out_schema: Arc<Schema> = match &self.alias {
            Some(a) => Arc::new(t.schema().with_qualifier(a)),
            None => t.schema().clone(),
        };

        let m = ctx.metrics.frame();
        let base = if self.filter.is_none() {
            m.stats.full_scans += 1;
            t.data().clone()
        } else {
            // Zone-map pruning: the candidates' bounds are necessary
            // conditions of `filter`, so segments whose zones exclude them
            // cannot hold matching rows. The decision (and its counters) is
            // a pure function of plan + data — recorded before the
            // access-path choice so the counters describe prunability
            // regardless of which path runs.
            let survivors = prune_segments(t, &self.candidates);
            let total_segs = t.segments().len();
            if !self.candidates.is_empty() && total_segs > 0 {
                let scanned = survivors.len() as u64;
                m.stats.segments_total += total_segs as u64;
                m.stats.segments_pruned += total_segs as u64 - scanned;
                m.stats.segments_scanned += scanned;
            }
            match best_index_access(t, &self.candidates) {
                Some(rows) => {
                    m.stats.index_scans += 1;
                    t.take(&rows)
                }
                None if survivors.len() < total_segs => {
                    // Fetch only the surviving segments' rows; the residual
                    // filter keeps results identical to a full scan.
                    let rows: Vec<usize> =
                        survivors.iter().flat_map(|s| s.start..s.end()).collect();
                    m.stats.full_scans += 1;
                    t.take(&rows)
                }
                None => {
                    m.stats.full_scans += 1;
                    t.data().clone()
                }
            }
        };
        // A scan is a leaf: rows_in is what it fetched from the table
        // (post index narrowing, pre residual filter) — each fetched row is
        // one unit of work.
        let fetched = base.num_rows() as u64;
        m.rows_in += fetched;
        m.comparisons += fetched;
        m.stats.rows_scanned += fetched;
        base.with_schema(out_schema)
    }
}

/// Streaming scan: the (narrowed) base rows are fetched once at open; each
/// `next_chunk` serves a zero-copy slice of the emitted columns, applying
/// the residual filter — evaluated on the same rows of the full-width base
/// — as a selection vector instead of gathering survivor columns.
struct ScanStream<'a> {
    base: Batch,
    /// The emitted columns of `base`, row for row.
    out: Batch,
    filter: Option<&'a Expr>,
    pos: usize,
}

impl ChunkStream for ScanStream<'_> {
    fn schema(&self) -> SchemaRef {
        self.out.schema().clone()
    }

    fn next_chunk(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        let start = self.pos;
        let Some(mut chunk) = next_slice(&self.out, &mut self.pos, ctx.options.chunk_rows) else {
            return Ok(None);
        };
        if let Some(pred) = self.filter {
            let rows = self.base.slice(start, chunk.num_rows());
            let survivors = filter_chunk(pred, &rows)?.selected;
            chunk = chunk.with_survivors(survivors);
            // Counted over the table's columns, pruned or not: the filter
            // ran over all of them.
            ctx.metrics.frame().stats.selection_avoided_copies += rows.num_columns() as u64;
        }
        Ok(Some(chunk))
    }
}

/// Segments whose zone maps admit every candidate constraint (AND
/// semantics), in row order. With no usable constraints every segment
/// survives.
fn prune_segments<'t>(table: &'t Table, candidates: &[IndexCandidate]) -> Vec<&'t SealedSegment> {
    let preds: Vec<ZonePredicate> = candidates
        .iter()
        .filter_map(|c| {
            candidate_zone_predicate(
                table.schema(),
                &c.column,
                &c.lower,
                &c.upper,
                c.in_values.as_deref(),
            )
        })
        .collect();
    table
        .segments()
        .iter()
        .filter(|s| s.may_match_all(&preds))
        .map(|s| &**s)
        .collect()
}

/// Pick the most selective candidate on the actual table — the fewest rows,
/// the lowest column position on ties — returning its matching row ids, or
/// `None` if no candidate's column is indexed (or the best access would
/// fetch nearly the whole table anyway). IN-lists, a few point lookups,
/// go first; a range is then counted only up to what could still win and
/// collected only if it does, so a wide range (`rtime ≥ m` beside the
/// touched keys of a scoped maintenance run) costs no more than the
/// winner's rows.
fn best_index_access(table: &Table, candidates: &[IndexCandidate]) -> Option<Vec<usize>> {
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    order.sort_by_key(|&i| candidates[i].in_values.is_none());
    let mut best: Option<(usize, Vec<usize>)> = None;
    for i in order {
        let cand = &candidates[i];
        let Some(idx) = table.index(&cand.column) else {
            continue;
        };
        // The most rows this candidate may fetch and still win.
        let cap = match &best {
            None => usize::MAX,
            Some((j, rows)) if i < *j => rows.len(),
            Some((_, rows)) if rows.is_empty() => continue,
            Some((_, rows)) => rows.len() - 1,
        };
        let rows = if let Some(vals) = &cand.in_values {
            let mut rows: Vec<usize> = vals
                .iter()
                .flat_map(|v| idx.lookup(v).map(|r| r as usize))
                .collect();
            rows.sort_unstable();
            rows.dedup();
            rows
        } else if cand.lower != ScanBound::Unbounded || cand.upper != ScanBound::Unbounded {
            // With nothing to beat yet, counting first would only walk the
            // range twice.
            if best.is_some()
                && idx
                    .range_count_within(&cand.lower, &cand.upper, cap)
                    .is_none()
            {
                continue;
            }
            idx.range_scan(&cand.lower, &cand.upper)
        } else {
            continue;
        };
        if rows.len() <= cap {
            best = Some((i, rows));
        }
    }
    // An access that fetches (almost) everything is not worth the gather.
    let total = table.num_rows().max(1) as f64;
    match best {
        Some((_, rows)) if (rows.len() as f64 / total) < 0.95 => Some(rows),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::schema_ref;
    use crate::schema::Field;
    use crate::value::DataType;

    /// Ten rows: `epc` = e(i % 5), `rtime` = i; both columns indexed.
    fn table() -> Table {
        let schema = schema_ref(Schema::new(vec![
            Field::new("epc", DataType::Str),
            Field::new("rtime", DataType::Int),
        ]));
        let rows: Vec<Vec<Value>> = (0..10)
            .map(|i| vec![Value::str(format!("e{}", i % 5)), Value::Int(i)])
            .collect();
        let mut t = Table::new("r", Batch::from_rows(schema, &rows).unwrap());
        t.create_index("epc").unwrap();
        t.create_index("rtime").unwrap();
        t
    }

    fn keys(keys: &[&str]) -> IndexCandidate {
        IndexCandidate {
            column: "epc".into(),
            lower: ScanBound::Unbounded,
            upper: ScanBound::Unbounded,
            in_values: Some(keys.iter().map(|k| Value::str(*k)).collect()),
        }
    }

    fn rtime(lower: ScanBound, upper: ScanBound) -> IndexCandidate {
        IndexCandidate {
            column: "rtime".into(),
            lower,
            upper,
            in_values: None,
        }
    }

    #[test]
    fn fewest_rows_win_and_ties_go_to_the_lower_position() {
        let t = table();
        let late = || rtime(ScanBound::Inclusive(Value::Int(8)), ScanBound::Unbounded);
        // Two rows each: the IN-list sits at the lower position.
        assert_eq!(
            best_index_access(&t, &[keys(&["e1"]), late()]),
            Some(vec![1, 6])
        );
        // A narrower range beats a wider IN-list it is counted against.
        assert_eq!(
            best_index_access(&t, &[keys(&["e1", "e2"]), late()]),
            Some(vec![8, 9])
        );
        // A range ahead of the IN-list wins their tie.
        let early = rtime(ScanBound::Unbounded, ScanBound::Exclusive(Value::Int(2)));
        let mut cands = vec![early, keys(&["e3"])];
        assert_eq!(best_index_access(&t, &cands), Some(vec![0, 1]));
        cands.swap(0, 1);
        assert_eq!(best_index_access(&t, &cands), Some(vec![3, 8]));
    }

    #[test]
    fn an_access_of_nearly_every_row_is_not_taken() {
        let t = table();
        let all = rtime(ScanBound::Inclusive(Value::Int(0)), ScanBound::Unbounded);
        assert_eq!(best_index_access(&t, &[all]), None);
        let none = keys(&["e9"]);
        assert_eq!(best_index_access(&t, &[none]), Some(vec![]));
    }
}
