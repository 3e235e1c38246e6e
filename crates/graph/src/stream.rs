//! Out-of-core snapshot sweeps over a [`TraceReader`].
//!
//! [`crate::sequence::SnapshotSequence`] walks an in-core
//! [`crate::temporal::TemporalGraph`], which holds the full edge list
//! (16 bytes/edge) plus a dedup set. At the paper's headline scales (Renren:
//! 10.5M nodes) that is the allocation that stops a laptop run, and it is
//! unnecessary: the incremental merge of [`SnapshotBuilder`] only ever
//! looks at the delta between consecutive boundaries, read through a
//! [`TraceReader`]. [`StreamingSequence`] picks the same boundaries
//! against any reader — in particular the file-backed
//! [`crate::io::SectionedCacheReader`] — and its sweep holds only
//!
//! * the arrival vector (8 bytes/node),
//! * the CSR of the current snapshot (the sweep's product), in the
//!   builder's double buffer, and
//! * one bounded delta window of edges at a time.
//!
//! Every window cap yields byte-for-byte the same snapshots as the
//! in-core sweep and [`Snapshot::up_to`] (pinned by this module's tests
//! and by the window-cap property test in
//! `crates/graph/tests/incremental.rs`).

use crate::builder::{SnapshotBuilder, DEFAULT_WINDOW_EDGES};
use crate::io::{TraceIoError, TraceReader};
use crate::sequence::{count_boundaries, delta_boundaries};
use crate::snapshot::Snapshot;
use crate::temporal::TimedEdge;
use crate::NodeId;

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
    // linklens-allow(unreached-pub-fn): the window-split tests in stream.rs and sampled_eval.rs need windows below the 1M-edge DEFAULT_WINDOW_EDGES
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
    /// incremental [`SnapshotBuilder`] at the sequence's window cap.
    /// Consumes the sequence (the sweep owns the reader); use
    /// `while let Some(snap) = sweep.next()?`.
    pub fn sweep(self) -> StreamingSweep<R> {
        let builder = SnapshotBuilder::with_max_window(self.reader, self.max_window);
        StreamingSweep { builder, boundaries: self.boundaries, next: 0 }
    }
}

/// A lending in-order iterator over a streaming sequence's snapshots.
/// Created by [`StreamingSequence::sweep`]. Like
/// [`crate::sequence::SnapshotSweep`], each yielded `&Snapshot` borrows the
/// sweep's builder and is invalidated by the next advance; unlike it, each
/// advance can fail with an I/O error or a repeated pair, so `next`
/// returns `Result<Option<…>>`.
#[derive(Debug)]
pub struct StreamingSweep<R: TraceReader> {
    builder: SnapshotBuilder<R>,
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
    fn streaming_sequence_matches_snapshot_sequence() {
        let g = staggered(30);
        let seq = SnapshotSequence::with_count(&g, 6);
        for max_window in [2usize, 11, 1 << 20] {
            let mut sseq = StreamingSequence::with_count(&g, 6);
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
        let sseq = StreamingSequence::by_edge_delta(&g, 7);
        assert_eq!(sseq.len(), seq.len());
        for i in 0..seq.len() {
            assert_eq!(sseq.boundary(i), seq.boundary(i));
        }
    }
}
