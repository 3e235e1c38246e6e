//! Out-of-core snapshot sweeps over a [`TraceReader`].
//!
//! [`crate::sequence::SnapshotSequence`] walks an in-core
//! [`crate::temporal::TemporalGraph`], which holds the full edge list
//! (16 bytes/edge) plus a dedup set. At the paper's headline scales (Renren:
//! 10.5M nodes) that is the allocation that stops a laptop run, and it is
//! unnecessary: the incremental merge in [`crate::builder`] only ever looks
//! at the delta between consecutive boundaries. The types here run the same
//! sweep against any [`TraceReader`] — in particular the file-backed
//! [`crate::io::SectionedCacheReader`] — holding only
//!
//! * the arrival vector (8 bytes/node),
//! * the CSR of the current snapshot (the sweep's product), in a double
//!   buffer sized once for the whole trace, and
//! * one bounded delta window of edges at a time.
//!
//! The double buffer holds `2 × edge_count` entries per side from the
//! start, as [`crate::builder::SnapshotBuilder`]'s does: grown by doubling
//! instead, its last advances would hold a front buffer up to twice the
//! final CSR beside the back buffer being written.
//!
//! Window size is a pure I/O knob: [`MergeArena`](crate::builder) applies a
//! delta split across several windows bit-identically to one big merge, so
//! every window size yields byte-for-byte the same snapshots as
//! [`Snapshot::up_to`] (pinned by `crates/graph/tests/streaming.rs`).

use crate::builder::MergeArena;
use crate::io::{TraceIoError, TraceReader};
use crate::sequence::{count_boundaries, delta_boundaries};
use crate::snapshot::Snapshot;
use crate::temporal::TimedEdge;
use crate::NodeId;

/// Default cap on edges held in the active delta window (16 MiB of
/// `TimedEdge`).
pub const DEFAULT_WINDOW_EDGES: usize = 1 << 20;

/// Incremental snapshot construction over a [`TraceReader`], reading delta
/// edges in bounded windows instead of borrowing an in-core edge list.
///
/// The out-of-core counterpart of [`crate::builder::SnapshotBuilder`]: the
/// same `MergeArena` merge core produces the same bit-identical CSRs, but the delta
/// for each advance is fetched through [`TraceReader::read_edge_window`] in
/// chunks of at most `max_window` edges.
#[derive(Debug)]
pub struct StreamingSnapshotBuilder<R: TraceReader> {
    reader: R,
    arena: MergeArena,
    window: Vec<TimedEdge>,
    max_window: usize,
    cur_prefix: usize,
    started: bool,
}

impl<R: TraceReader> StreamingSnapshotBuilder<R> {
    /// Creates a builder positioned before the first edge, with the default
    /// window cap.
    pub fn new(reader: R) -> Self {
        Self::with_max_window(reader, DEFAULT_WINDOW_EDGES)
    }

    /// Creates a builder with an explicit cap on the edges resident in the
    /// delta window. Any positive cap produces identical snapshots; small
    /// caps trade syscalls for memory. The CSR double buffer is reserved
    /// for the whole trace here, once.
    pub fn with_max_window(reader: R, max_window: usize) -> Self {
        assert!(max_window > 0, "window must hold at least one edge");
        let arena = MergeArena::new(reader.node_count(), 2 * reader.edge_count());
        StreamingSnapshotBuilder {
            reader,
            arena,
            window: Vec::new(),
            max_window,
            cur_prefix: 0,
            started: false,
        }
    }

    /// The prefix length of the current snapshot (0 before the first
    /// advance).
    pub fn prefix_len(&self) -> usize {
        self.cur_prefix
    }

    /// The current snapshot, if [`advance_to`](Self::advance_to) has been
    /// called.
    pub fn current(&self) -> Option<&Snapshot> {
        if self.started {
            Some(&self.arena.snap)
        } else {
            None
        }
    }

    /// Advances to the snapshot holding the first `prefix_len` edges and
    /// returns a borrowed view of it, reading the delta in windows of at
    /// most `max_window` edges. Re-requesting the current prefix is a no-op
    /// returning the same view.
    ///
    /// A pair the trace holds twice is a [`TraceIoError::Cache`] naming
    /// it, whether its copies fall in one window or in two; the builder
    /// then stays at the end of the last window merged cleanly, and never
    /// returns a snapshot with a repeated neighbour.
    ///
    /// # Panics
    /// Panics if `prefix_len` is zero, exceeds the trace length, or moves
    /// backwards (snapshots are append-only; build a fresh builder to
    /// rewind).
    pub fn advance_to(&mut self, prefix_len: usize) -> Result<&Snapshot, TraceIoError> {
        assert!(prefix_len > 0, "a snapshot needs at least one edge");
        assert!(prefix_len <= self.reader.edge_count(), "prefix exceeds trace length");
        assert!(
            prefix_len >= self.cur_prefix,
            "StreamingSnapshotBuilder cannot rewind (at {}, asked for {prefix_len})",
            self.cur_prefix
        );
        while self.cur_prefix < prefix_len {
            let end = prefix_len.min(self.cur_prefix + self.max_window);
            self.reader.read_edge_window(self.cur_prefix, end, &mut self.window)?;
            // linklens-allow(unwrap-in-lib): the loop guard makes the window non-empty
            let time = self.window.last().expect("non-empty delta window").t;
            let new_n = self.reader.nodes_at(time);
            self.arena
                .apply(&self.window, new_n, time, end)
                .map_err(|(u, v)| crate::io::repeated_pair(u, v))?;
            self.cur_prefix = end;
            self.started = true;
        }
        if crate::audit::audit_enabled() {
            if let Err(e) = self.arena.snap.validate() {
                panic!("snapshot invariant violated after advance to prefix {prefix_len}: {e}");
            }
        }
        Ok(&self.arena.snap)
    }
}

/// Constant-edge-delta snapshot boundaries over a [`TraceReader`] — the
/// out-of-core counterpart of [`crate::sequence::SnapshotSequence`], sharing
/// its boundary-selection rules verbatim.
#[derive(Debug)]
pub struct StreamingSequence<R: TraceReader> {
    reader: R,
    boundaries: Vec<usize>,
    /// Reusable window buffer for [`new_edges`](Self::new_edges) scans.
    window: Vec<TimedEdge>,
    max_window: usize,
}

impl<R: TraceReader> StreamingSequence<R> {
    /// Splits the trace into snapshots of `delta` new edges each (same
    /// remainder rule as [`crate::sequence::SnapshotSequence::by_edge_delta`]).
    // linklens-allow(unreached-pub-fn): streaming_sequence_by_edge_delta_matches holds the private boundaries to SnapshotSequence::by_edge_delta's
    pub fn by_edge_delta(reader: R, delta: usize) -> Self {
        let boundaries = delta_boundaries(reader.edge_count(), delta);
        StreamingSequence {
            reader,
            boundaries,
            window: Vec::new(),
            max_window: DEFAULT_WINDOW_EDGES,
        }
    }

    /// Builds a sequence with exactly `count` snapshots of (near-)equal
    /// edge delta (same rule as
    /// [`crate::sequence::SnapshotSequence::with_count`]).
    pub fn with_count(reader: R, count: usize) -> Self {
        let boundaries = count_boundaries(reader.edge_count(), count);
        StreamingSequence {
            reader,
            boundaries,
            window: Vec::new(),
            max_window: DEFAULT_WINDOW_EDGES,
        }
    }

    /// Caps the edges resident in any delta window (for sweeps and
    /// [`new_edges`](Self::new_edges) scans). Any positive cap yields
    /// identical results.
    // linklens-allow(unreached-pub-fn): the window-split tests in stream.rs and sampled_eval.rs need windows below the private 1M-edge default
    pub fn set_max_window(&mut self, max_window: usize) {
        assert!(max_window > 0, "window must hold at least one edge");
        self.max_window = max_window;
    }

    /// Number of snapshots `T`.
    pub fn len(&self) -> usize {
        self.boundaries.len()
    }

    /// True if the sequence is empty (never the case for a constructed
    /// sequence; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.boundaries.is_empty()
    }

    /// Edge-prefix length of snapshot `i` (0-based).
    pub fn boundary(&self, i: usize) -> usize {
        self.boundaries[i]
    }

    /// Consumes the sequence, returning the reader.
    pub fn into_reader(self) -> R {
        self.reader
    }

    /// Ground truth for predicting snapshot `i` from snapshot `i − 1`,
    /// with the same semantics as
    /// [`crate::sequence::SnapshotSequence::new_edges`]: new edges whose
    /// both endpoints already existed in `G_{i-1}`, scanned in bounded
    /// windows.
    ///
    /// # Panics
    /// Panics if `i == 0` or `i >= len()`.
    pub fn new_edges(&mut self, i: usize) -> Result<Vec<(NodeId, NodeId)>, TraceIoError> {
        assert!(i > 0 && i < self.len(), "new_edges needs 1 <= i < len");
        let prev_b = self.boundaries[i - 1];
        let b = self.boundaries[i];
        self.reader.read_edge_window(prev_b - 1, prev_b, &mut self.window)?;
        let prev_time = self.window[0].t;
        let existing = self.reader.nodes_at(prev_time) as NodeId;
        let mut out = Vec::new();
        let mut cur = prev_b;
        while cur < b {
            let end = b.min(cur + self.max_window);
            self.reader.read_edge_window(cur, end, &mut self.window)?;
            out.extend(
                self.window.iter().filter(|e| e.u < existing && e.v < existing).map(|e| (e.u, e.v)),
            );
            cur = end;
        }
        Ok(out)
    }

    /// An in-order sweep over the sequence's snapshots backed by one
    /// incremental [`StreamingSnapshotBuilder`]. Consumes the sequence (the
    /// sweep owns the reader); use `while let Some(snap) = sweep.next()?`.
    pub fn sweep(self) -> StreamingSweep<R> {
        let mut builder = StreamingSnapshotBuilder::new(self.reader);
        builder.max_window = self.max_window;
        StreamingSweep { builder, boundaries: self.boundaries, next: 0 }
    }
}

/// A lending in-order iterator over a streaming sequence's snapshots.
/// Created by [`StreamingSequence::sweep`]. Like
/// [`crate::sequence::SnapshotSweep`], each yielded `&Snapshot` borrows the
/// sweep's arena and is invalidated by the next advance; unlike it, each
/// advance can fail with an I/O error, so `next` returns
/// `Result<Option<…>>`.
#[derive(Debug)]
pub struct StreamingSweep<R: TraceReader> {
    builder: StreamingSnapshotBuilder<R>,
    boundaries: Vec<usize>,
    next: usize,
}

impl<R: TraceReader> StreamingSweep<R> {
    /// Advances to the next boundary and returns the snapshot there, or
    /// `Ok(None)` after the final snapshot.
    #[allow(clippy::should_implement_trait)] // lending + fallible: the item borrows self
    pub fn next(&mut self) -> Result<Option<&Snapshot>, TraceIoError> {
        let Some(&b) = self.boundaries.get(self.next) else {
            return Ok(None);
        };
        self.next += 1;
        self.builder.advance_to(b).map(Some)
    }

    /// Index of the snapshot the *next* call to [`next`](Self::next) will
    /// yield.
    pub fn position(&self) -> usize {
        self.next
    }

    /// The snapshot most recently yielded, if any.
    pub fn current(&self) -> Option<&Snapshot> {
        if self.next == 0 {
            None
        } else {
            self.builder.current()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequence::SnapshotSequence;
    use crate::temporal::TemporalGraph;

    /// Trace where nodes arrive over time and edge times are staggered.
    fn staggered(n: usize) -> TemporalGraph {
        let mut g = TemporalGraph::new();
        g.add_node(0);
        g.add_node(0);
        g.add_edge(0, 1, 1);
        for i in 2..n {
            let t = 10 * i as u64;
            g.add_node(t);
            g.add_edge((i / 2) as NodeId, i as NodeId, t);
            if i >= 3 {
                g.add_edge((i - 1) as NodeId, i as NodeId, t + 1);
            }
        }
        g
    }

    #[test]
    fn streaming_builder_matches_in_core_builder() {
        let g = staggered(20);
        for max_window in [1usize, 3, 7, 1 << 20] {
            let mut reader = g.clone();
            let mut sb = StreamingSnapshotBuilder::with_max_window(&mut reader, max_window);
            for prefix in [1usize, 2, 5, 17, g.edge_count()] {
                let streamed = sb.advance_to(prefix).unwrap();
                assert_eq!(
                    streamed,
                    &crate::snapshot::Snapshot::up_to(&g, prefix),
                    "window {max_window} prefix {prefix}"
                );
            }
        }
    }

    #[test]
    fn streaming_sequence_matches_snapshot_sequence() {
        let g = staggered(30);
        let seq = SnapshotSequence::with_count(&g, 6);
        for max_window in [2usize, 11, 1 << 20] {
            let mut reader = g.clone();
            let mut sseq = StreamingSequence::with_count(&mut reader, 6);
            sseq.set_max_window(max_window);
            assert_eq!(sseq.len(), seq.len());
            for i in 0..seq.len() {
                assert_eq!(sseq.boundary(i), seq.boundary(i));
            }
            for i in 1..seq.len() {
                assert_eq!(sseq.new_edges(i).unwrap(), seq.new_edges(i), "transition {i}");
            }
            let mut sweep = sseq.sweep();
            let mut i = 0;
            while let Some(snap) = sweep.next().unwrap() {
                assert_eq!(snap, &seq.snapshot(i), "window {max_window} snapshot {i}");
                i += 1;
            }
            assert_eq!(i, seq.len());
            assert!(sweep.next().unwrap().is_none(), "sweep is fused");
        }
    }

    #[test]
    fn streaming_sequence_by_edge_delta_matches() {
        let g = staggered(30);
        let seq = SnapshotSequence::by_edge_delta(&g, 7);
        let mut reader = g.clone();
        let sseq = StreamingSequence::by_edge_delta(&mut reader, 7);
        assert_eq!(sseq.len(), seq.len());
        for i in 0..seq.len() {
            assert_eq!(sseq.boundary(i), seq.boundary(i));
        }
    }

    #[test]
    #[should_panic(expected = "cannot rewind")]
    fn streaming_builder_rewind_panics() {
        let g = staggered(10);
        let mut reader = g.clone();
        let mut sb = StreamingSnapshotBuilder::new(&mut reader);
        sb.advance_to(8).unwrap();
        let _ = sb.advance_to(3);
    }
}
