//! In-memory spans recorded around the calls the benchmark makes into each
//! layer, and the self-time computation over them.
//!
//! A span is `(name, start, end, parent, op)`: spans of one client operation
//! share `op`, and a stage span names the op span that caused it as its
//! parent. Spans stay in memory for the whole run and are written out once,
//! at exit.

use dc_json::Json;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Identifier shared by all spans of one client operation.
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Why a span set is not a well-formed forest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpanError {
    /// `end < start`.
    Inverted { id: u32 },
    /// The parent id names no recorded span.
    UnknownParent { id: u32, parent: u32 },
    /// The child starts before or ends after its parent.
    OutsideParent { id: u32, parent: u32 },
}

impl std::fmt::Display for SpanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpanError::Inverted { id } => write!(f, "span {id} ends before it starts"),
            SpanError::UnknownParent { id, parent } => {
                write!(f, "span {id} names unknown parent {parent}")
            }
            SpanError::OutsideParent { id, parent } => {
                write!(f, "span {id} lies outside its parent {parent}")
            }
        }
    }
}

/// Span recorder of one client thread. Threads record independently against
/// a shared epoch and are merged with [`Tracer::absorb`] after they join.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a finished interval; returns its id for use as a parent.
    pub fn push(
        &mut self,
        parent: Option<u32>,
        op: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Open an op-level span whose end is not known yet: children recorded
    /// meanwhile name the returned id; [`Tracer::close`] stamps the end.
    pub fn open(&mut self, op: u64, name: &'static str) -> u32 {
        let now = self.now_ns();
        self.push(None, op, name, now, now)
    }

    pub fn close(&mut self, id: u32) -> u64 {
        let now = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.duration_ns()
    }

    /// Run `f` as a child stage of `parent`, recording its interval.
    /// Returns `f`'s value and the stage duration in nanoseconds.
    pub fn stage<T>(&mut self, parent: u32, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let op = self.spans[parent as usize].op;
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.push(Some(parent), op, name, start, end);
        (out, end - start)
    }

    /// Append another thread's spans, renumbering ids past this tracer's.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += offset;
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, index-aligned with `spans`: its duration minus
/// the part of that interval its child spans cover (overlapping children —
/// parallel shard executors, say — are counted once). Never negative by
/// construction; a child reaching outside its parent is rejected instead of
/// being clipped, because it means the recording is wrong.
pub fn self_times(spans: &[Span]) -> Result<Vec<u64>, SpanError> {
    let index_of: std::collections::HashMap<u32, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.end_ns < s.start_ns {
            return Err(SpanError::Inverted { id: s.id });
        }
        if let Some(p) = s.parent {
            let &pi = index_of.get(&p).ok_or(SpanError::UnknownParent {
                id: s.id,
                parent: p,
            })?;
            let parent = &spans[pi];
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                return Err(SpanError::OutsideParent {
                    id: s.id,
                    parent: p,
                });
            }
            children[pi].push((s.start_ns, s.end_ns));
        }
    }
    Ok(spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.duration_ns() - covered(kids))
        .collect())
}

/// Total length of the union of `intervals`.
fn covered(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for &(start, end) in intervals.iter() {
        let from = start.max(reach);
        if end > from {
            total += end - from;
            reach = end;
        }
    }
    total
}

/// The trace file body: at most `limit` spans (whole ops are not split —
/// the cut falls on an op boundary) plus how many were recorded in all.
pub fn to_json(spans: &[Span], limit: usize) -> Json {
    let mut kept = spans.len().min(limit);
    while kept > 0 && kept < spans.len() && spans[kept].parent.is_some() {
        kept -= 1;
    }
    let items = spans[..kept]
        .iter()
        .map(|s| {
            Json::obj()
                .set("id", s.id as u64)
                .set("parent", s.parent.map(|p| p as u64))
                .set("op", s.op)
                .set("name", s.name)
                .set("start_ns", s.start_ns)
                .set("end_ns", s.end_ns)
        })
        .collect();
    Json::obj()
        .set("spans_recorded", spans.len())
        .set("spans_written", kept)
        .set("spans", Json::Arr(items))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name: "t",
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            // Overlaps span 1 on [30, 40): the union covers [10, 60).
            span(2, Some(0), 30, 60),
            span(3, Some(2), 35, 50),
        ];
        assert_eq!(self_times(&spans).unwrap(), vec![50, 30, 15, 15]);
    }

    #[test]
    fn self_time_is_never_negative() {
        // Children tile the parent exactly, twice over.
        let spans = vec![
            span(0, None, 5, 25),
            span(1, Some(0), 5, 25),
            span(2, Some(0), 5, 15),
            span(3, Some(0), 15, 25),
        ];
        assert_eq!(self_times(&spans).unwrap()[0], 0);
    }

    #[test]
    fn child_outside_parent_is_rejected() {
        let late = vec![span(0, None, 0, 10), span(1, Some(0), 5, 11)];
        assert_eq!(
            self_times(&late),
            Err(SpanError::OutsideParent { id: 1, parent: 0 })
        );
        let early = vec![span(0, None, 5, 10), span(1, Some(0), 4, 6)];
        assert_eq!(
            self_times(&early),
            Err(SpanError::OutsideParent { id: 1, parent: 0 })
        );
    }

    #[test]
    fn malformed_spans_are_rejected() {
        assert_eq!(
            self_times(&[span(0, Some(7), 0, 1)]),
            Err(SpanError::UnknownParent { id: 0, parent: 7 })
        );
        assert_eq!(
            self_times(&[span(0, None, 2, 1)]),
            Err(SpanError::Inverted { id: 0 })
        );
    }

    #[test]
    fn tracer_nests_stages_and_merges_threads() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        let op = a.open(1, "op");
        let ((), _) = a.stage(op, "stage", || ());
        a.close(op);
        let mut b = Tracer::new(epoch);
        let op_b = b.open(2, "op");
        b.stage(op_b, "stage", || ());
        b.close(op_b);
        a.absorb(b);
        let spans = a.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[3].op, 2);
        assert!(self_times(spans).is_ok());
    }

    #[test]
    fn trace_file_cuts_on_an_op_boundary() {
        let spans = vec![
            span(0, None, 0, 10),
            span(1, Some(0), 1, 2),
            span(2, None, 10, 20),
            span(3, Some(2), 11, 12),
        ];
        let j = to_json(&spans, 3);
        assert_eq!(j.get("spans_written").and_then(Json::as_u64), Some(2));
        assert_eq!(j.get("spans_recorded").and_then(Json::as_u64), Some(4));
    }
}
