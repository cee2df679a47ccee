//! Per-operator execution metrics — the observability backbone.
//!
//! Every [`PhysicalOperator`](super::PhysicalOperator) that is opened records one
//! [`OperatorMetrics`] node; nesting mirrors the operator tree, so an
//! `EXPLAIN ANALYZE` rendering can annotate each plan node with exactly the
//! work it did. An operator records each event once, into its own node
//! ([`MetricsCollector::frame`]): rows, its elementary work unit, and its
//! share of the query's [`ExecStats`]. The query-level [`ExecStats`] is the
//! fold of the finished tree ([`OperatorMetrics::total_stats`]). Two kinds
//! of quantities live side by side and must never be conflated:
//!
//! * **deterministic counters** — rows in/out, comparisons (the operator's
//!   elementary work unit: rows fetched, predicate evaluations, sort rows,
//!   join probes, window accumulator ops), and the node's [`ExecStats`].
//!   These are pure functions of plan + data: identical at any
//!   [`ExecOptions::parallelism`](super::ExecOptions), and the quantities
//!   the CI perf-regression gate diffs;
//! * **timing** — inclusive wall-clock nanoseconds per operator (children
//!   included, as in PostgreSQL's `EXPLAIN ANALYZE`). Reported, never
//!   gated and never part of equality: timings change run to run.
//!
//! [`OperatorMetrics::deterministic`] zeroes the latter, which is what tests
//! compare across parallelism levels.

use crate::exec::ExecStats;
use dc_json::Json;
use std::fmt::Write as _;

/// Metrics for one executed physical operator, with children mirroring the
/// operator tree.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OperatorMetrics {
    /// Operator name, e.g. `"WindowExec"`.
    pub name: String,
    /// Full one-line label (operator-specific detail included).
    pub label: String,
    /// Rows consumed: the sum of the children's `rows_out`. A leaf that
    /// fetches data itself records it (a scan: rows fetched from the table,
    /// before residual filtering).
    pub rows_in: u64,
    /// Rows produced by this operator.
    pub rows_out: u64,
    /// Elementary work units: rows fetched for scans, predicate evaluations
    /// for filters, comparisons performed for sorts, probes for joins,
    /// accumulator ops for windows, input rows for aggregations.
    pub comparisons: u64,
    /// This operator's own work counters, children excluded; the whole
    /// tree's are [`OperatorMetrics::total_stats`].
    pub stats: ExecStats,
    /// Inclusive wall-clock (children included). Timing, not a counter:
    /// zeroed by [`OperatorMetrics::deterministic`].
    pub wall_nanos: u64,
    pub children: Vec<OperatorMetrics>,
}

impl OperatorMetrics {
    /// The same tree with timing zeroed, keeping only the deterministic
    /// counters. Two executions of the same plan over the same data produce
    /// equal deterministic trees at any parallelism.
    pub fn deterministic(&self) -> OperatorMetrics {
        fn zero_timing(m: &mut OperatorMetrics) {
            m.wall_nanos = 0;
            m.children.iter_mut().for_each(zero_timing);
        }
        let mut m = self.clone();
        zero_timing(&mut m);
        m
    }

    /// The work counters of the whole tree: this node's `stats` plus its
    /// children's, recursively. This is the query-level [`ExecStats`].
    pub fn total_stats(&self) -> ExecStats {
        let mut total = self.stats;
        for c in &self.children {
            total.add(&c.total_stats());
        }
        total
    }

    /// Merge another shard's metrics tree into this one. The trees must
    /// have the same shape (same operator names and child counts — which
    /// holds whenever every shard executed the same plan): counters and
    /// wall-clock add node by node, yielding the coordinator's combined
    /// view. The deterministic projection of the merged tree equals the
    /// per-shard sums regardless of shard execution order. Returns `false`
    /// (leaving `self` partially merged) on a shape mismatch; callers
    /// should then drop the combined tree rather than report a torn one.
    #[must_use]
    pub fn merge_same_shape(&mut self, other: &OperatorMetrics) -> bool {
        if self.name != other.name || self.children.len() != other.children.len() {
            return false;
        }
        self.rows_in += other.rows_in;
        self.rows_out += other.rows_out;
        self.comparisons += other.comparisons;
        self.stats.add(&other.stats);
        self.wall_nanos += other.wall_nanos;
        self.children
            .iter_mut()
            .zip(&other.children)
            .all(|(a, b)| a.merge_same_shape(b))
    }

    /// Number of operator nodes in the tree.
    pub fn node_count(&self) -> usize {
        1 + self.children.iter().map(Self::node_count).sum::<usize>()
    }

    /// Indented `EXPLAIN ANALYZE` rendering. With `with_timing` the inclusive
    /// per-operator wall-clock is appended to every line.
    pub fn render_text(&self, with_timing: bool) -> String {
        fn walk(m: &OperatorMetrics, depth: usize, with_timing: bool, out: &mut String) {
            let s = &m.stats;
            let _ = write!(
                out,
                "{}{} (rows_in={} rows_out={} comparisons={}",
                "  ".repeat(depth),
                m.label,
                m.rows_in,
                m.rows_out,
                m.comparisons
            );
            if s.partitions_executed > 0 {
                let _ = write!(out, " partitions={}", s.partitions_executed);
            }
            if s.segments_total > 0 {
                let _ = write!(
                    out,
                    " segments_total={} segments_pruned={} segments_scanned={}",
                    s.segments_total, s.segments_pruned, s.segments_scanned
                );
            }
            if s.batches_processed > 0 {
                let _ = write!(out, " batches={}", s.batches_processed);
            }
            if s.selection_avoided_copies > 0 {
                let _ = write!(
                    out,
                    " selection_avoided_copies={}",
                    s.selection_avoided_copies
                );
            }
            if s.hash_ops > 0 {
                let _ = write!(
                    out,
                    " hash_ops={} hash_collisions={} probe_memcmps={} key_bytes={}",
                    s.hash_ops, s.hash_collisions, s.probe_memcmps, s.key_bytes_encoded
                );
            }
            if with_timing {
                let _ = write!(out, " time={:.3}ms", m.wall_nanos as f64 / 1e6);
            }
            let _ = writeln!(out, ")");
            for c in &m.children {
                walk(c, depth + 1, with_timing, out);
            }
        }
        let mut out = String::new();
        walk(self, 0, with_timing, &mut out);
        out
    }

    /// Machine-readable tree. Timing is emitted under the `time_ms` key only
    /// when requested so deterministic snapshots stay byte-stable.
    pub fn to_json(&self, with_timing: bool) -> Json {
        let s = &self.stats;
        let mut obj = Json::obj()
            .set("operator", self.name.as_str())
            .set("label", self.label.as_str())
            .set("rows_in", self.rows_in)
            .set("rows_out", self.rows_out)
            .set("comparisons", self.comparisons)
            .set("partitions", s.partitions_executed)
            .set("segments_total", s.segments_total)
            .set("segments_pruned", s.segments_pruned)
            .set("segments_scanned", s.segments_scanned)
            .set("batches_processed", s.batches_processed)
            .set("selection_avoided_copies", s.selection_avoided_copies)
            .set("hash_ops", s.hash_ops)
            .set("hash_collisions", s.hash_collisions)
            .set("probe_memcmps", s.probe_memcmps)
            .set("key_bytes_encoded", s.key_bytes_encoded);
        if with_timing {
            obj = obj.set("time_ms", Json::Num(self.wall_nanos as f64 / 1e6));
        }
        obj.set(
            "children",
            Json::Arr(
                self.children
                    .iter()
                    .map(|c| c.to_json(with_timing))
                    .collect(),
            ),
        )
    }
}

/// Handle for an operator's metrics frame, returned by
/// [`MetricsCollector::enter`] and passed back to
/// [`MetricsCollector::resume`] each time the operator runs again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameId(usize);

/// One operator's frame: its node so far and where it hangs in the tree.
#[derive(Debug)]
struct Frame {
    /// The frame that was current when this one was entered.
    parent: Option<usize>,
    /// Counters recorded so far; `children` is filled in by `finish`.
    node: OperatorMetrics,
}

/// Builds the [`OperatorMetrics`] tree as operators execute.
///
/// The collector keeps every frame of the plan and one *current* frame —
/// the operator whose body is running. [`enter`](Self::enter) opens a frame
/// under the current one and makes it current; [`exit`](Self::exit) charges
/// it the rows and wall-clock of the call that just ended and hands control
/// back to its parent; [`resume`](Self::resume) makes an already entered
/// frame current again, which is how a streaming operator, pulled chunk by
/// chunk between its parent's and its child's calls, keeps recording into
/// its own node. All three are driven by the one instrumented stream wrapper
/// ([`OpStream`](super::OpStream)); operator bodies only write through
/// [`frame`](Self::frame), which is always their own node because the
/// wrapper made it current. Because a frame belongs to the tree from the
/// moment it is entered, a failed or abandoned subtree is still attached —
/// there is no unwinding to get wrong.
#[derive(Debug, Default)]
pub struct MetricsCollector {
    /// Frames in enter order, so a parent always precedes its children and
    /// siblings appear in execution order.
    frames: Vec<Frame>,
    current: Option<usize>,
}

impl MetricsCollector {
    pub fn new() -> Self {
        MetricsCollector::default()
    }

    /// Open a frame for an operator about to run, as a child of the current
    /// frame, and make it current.
    pub fn enter(&mut self, name: &'static str, label: String) -> FrameId {
        let id = self.frames.len();
        self.frames.push(Frame {
            parent: self.current,
            node: OperatorMetrics {
                name: name.to_string(),
                label,
                ..OperatorMetrics::default()
            },
        });
        self.current = Some(id);
        FrameId(id)
    }

    /// Make an entered frame current again for another call into its
    /// operator (paired with the `exit` that ends the call).
    pub fn resume(&mut self, frame: FrameId) {
        self.current = Some(frame.0);
    }

    /// End the current frame's call: add the rows it produced (0 when it
    /// failed) and its inclusive wall-clock, then make its parent current.
    pub fn exit(&mut self, rows_out: u64, wall_nanos: u64) {
        let Some(i) = self.current else {
            debug_assert!(false, "MetricsCollector::exit without matching enter");
            return;
        };
        let frame = &mut self.frames[i];
        frame.node.rows_out += rows_out;
        frame.node.wall_nanos += wall_nanos;
        self.current = frame.parent;
    }

    /// The node of the operator currently executing: the one place an
    /// operator records its work, each event once.
    ///
    /// # Panics
    ///
    /// If no frame is current. Operator bodies run only inside
    /// [`open_stream`](super::open_stream) and
    /// [`OpStream::next_chunk`](super::OpStream::next_chunk), which always
    /// make the operator's frame current, so work recorded anywhere else
    /// would be lost from the query's counters.
    pub fn frame(&mut self) -> &mut OperatorMetrics {
        let i = self
            .current
            .expect("operator work recorded outside any operator frame");
        &mut self.frames[i].node
    }

    /// The tree recorded so far, rooted at the first frame entered; `None`
    /// if no operator was ever entered. A node with children consumed what
    /// they produced, so its `rows_in` is their `rows_out` sum.
    pub fn finish(self) -> Option<OperatorMetrics> {
        let mut frames: Vec<Option<Frame>> = self.frames.into_iter().map(Some).collect();
        let mut root = None;
        // Children follow their parent, so walking backwards completes every
        // node before it is attached.
        for i in (0..frames.len()).rev() {
            let Frame { parent, mut node } = frames[i].take().expect("each frame is attached once");
            node.children.reverse();
            if !node.children.is_empty() {
                node.rows_in = node.children.iter().map(|c| c.rows_out).sum();
            }
            match parent {
                Some(p) => frames[p]
                    .as_mut()
                    .expect("a parent is entered before its children")
                    .node
                    .children
                    .push(node),
                None => root = Some(node),
            }
        }
        root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> OperatorMetrics {
        let mut c = MetricsCollector::new();
        c.enter("FilterExec", "FilterExec: x > 1".into());
        c.enter("ScanExec", "ScanExec: r".into());
        let scan = c.frame();
        scan.rows_in = 100;
        scan.comparisons += 100;
        scan.stats.rows_scanned += 100;
        c.exit(40, 1_000_000);
        c.frame().comparisons += 40;
        c.exit(7, 3_000_000);
        c.finish().unwrap()
    }

    #[test]
    fn tree_shape_and_rows_in() {
        let m = sample();
        assert_eq!(m.name, "FilterExec");
        assert_eq!(m.children.len(), 1);
        // Filter's rows_in defaults to its child's rows_out.
        assert_eq!(m.rows_in, 40);
        assert_eq!(m.rows_out, 7);
        // Scan's rows_in was set explicitly (pre-residual fetch).
        assert_eq!(m.children[0].rows_in, 100);
        // A node holds its own counters; the total folds the tree's.
        assert_eq!(m.stats.rows_scanned, 0);
        assert_eq!(m.total_stats().rows_scanned, 100);
        assert_eq!(m.node_count(), 2);
    }

    #[test]
    fn deterministic_view_ignores_timing() {
        let a = sample();
        let mut b = sample();
        b.wall_nanos = 999;
        b.children[0].wall_nanos = 1;
        assert_ne!(a, b);
        assert_eq!(a.deterministic(), b.deterministic());
    }

    #[test]
    fn render_and_json() {
        let m = sample();
        let text = m.render_text(false);
        assert!(text.contains("FilterExec: x > 1 (rows_in=40 rows_out=7 comparisons=40)"));
        assert!(text.contains("  ScanExec: r (rows_in=100"));
        assert!(!text.contains("time="));
        assert!(m.render_text(true).contains("time="));

        let j = m.to_json(false);
        assert_eq!(j.get("operator").and_then(Json::as_str), Some("FilterExec"));
        assert_eq!(j.get("rows_out").and_then(Json::as_u64), Some(7));
        assert!(j.get("time_ms").is_none());
        let child = &j.get("children").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(child.get("comparisons").and_then(Json::as_u64), Some(100));
        assert!(m.to_json(true).get("time_ms").is_some());
    }

    #[test]
    fn segment_counters_render_only_when_present() {
        let mut c = MetricsCollector::new();
        c.enter("ScanExec", "ScanExec: caser".into());
        let s = &mut c.frame().stats;
        (s.segments_total, s.segments_pruned, s.segments_scanned) = (8, 6, 2);
        c.exit(10, 100);
        let m = c.finish().unwrap();
        assert_eq!(m.stats.segments_total, 8);
        assert_eq!(m.deterministic().stats.segments_pruned, 6);
        let text = m.render_text(false);
        assert!(text.contains("segments_total=8 segments_pruned=6 segments_scanned=2"));
        assert_eq!(
            m.to_json(false)
                .get("segments_pruned")
                .and_then(Json::as_u64),
            Some(6)
        );
        // Operators with no pruning activity keep their old rendering.
        let plain = sample().render_text(false);
        assert!(!plain.contains("segments_total"));
    }

    #[test]
    fn failed_subtree_still_attaches() {
        let mut c = MetricsCollector::new();
        c.enter("FilterExec", "FilterExec".into());
        c.enter("ScanExec", "ScanExec".into());
        c.exit(0, 10); // failed: no rows
        c.exit(0, 20);
        let m = c.finish().unwrap();
        assert_eq!(m.children.len(), 1);
        assert_eq!(m.rows_out, 0);
    }

    #[test]
    fn abandoned_frames_still_form_a_tree() {
        // A parent whose open failed after its child was opened never pulls
        // or exits that child again; the child is attached all the same.
        let mut c = MetricsCollector::new();
        c.enter("ProjectExec", "ProjectExec".into());
        c.enter("ScanExec", "ScanExec".into());
        c.exit(0, 5);
        let m = c.finish().unwrap();
        assert_eq!(m.name, "ProjectExec");
        assert_eq!(m.children.len(), 1);
        assert_eq!(m.children[0].wall_nanos, 5);
    }

    #[test]
    #[should_panic(expected = "outside any operator frame")]
    fn work_recorded_outside_every_frame_panics_instead_of_vanishing() {
        let mut c = MetricsCollector::new();
        c.enter("ScanExec", "ScanExec".into());
        c.exit(0, 1);
        // The root has exited, so no node would hold this count.
        c.frame().stats.rows_scanned += 1;
    }

    #[test]
    fn resumed_frames_accumulate_interleaved_calls() {
        // A two-operator pipeline pulled twice: each call resumes the
        // operator's own frame, so work lands on the right node even though
        // the calls interleave.
        let mut c = MetricsCollector::new();
        let filter = c.enter("FilterExec", "FilterExec".into());
        let scan = c.enter("ScanExec", "ScanExec".into());
        c.exit(0, 1); // scan opened
        c.exit(0, 2); // filter opened
        for rows in [3, 4] {
            c.resume(filter);
            c.resume(scan);
            c.frame().stats.batches_processed += 1;
            c.exit(10, 1);
            let filter = c.frame(); // back in the filter's frame
            filter.comparisons += 10;
            filter.stats.batches_processed += 1;
            c.exit(rows, 2);
        }
        let m = c.finish().unwrap();
        assert_eq!((m.rows_in, m.rows_out, m.comparisons), (20, 7, 20));
        assert_eq!(m.stats.batches_processed, 2);
        assert_eq!(m.total_stats().batches_processed, 4);
        assert_eq!(m.wall_nanos, 6);
        let s = &m.children[0];
        assert_eq!(
            (s.rows_out, s.comparisons, s.stats.batches_processed),
            (20, 0, 2)
        );
        assert_eq!(s.wall_nanos, 3);
    }
}
