//! Constant-edge-delta snapshot sequences (§3.2 of the paper).

use crate::builder::SnapshotBuilder;
use crate::snapshot::Snapshot;
use crate::temporal::TemporalGraph;
use crate::NodeId;

/// Boundary selection shared by [`SnapshotSequence::by_edge_delta`] and the
/// out-of-core [`crate::stream::StreamingSequence`]: prefixes of `delta` new
/// edges each, the final snapshot absorbing any remainder smaller than
/// `delta / 2`.
///
/// # Panics
/// Panics if `delta == 0` or `total < 2 * delta` (a sequence needs at least
/// two snapshots to predict anything).
pub(crate) fn delta_boundaries(total: usize, delta: usize) -> Vec<usize> {
    assert!(delta > 0, "delta must be positive");
    assert!(total >= 2 * delta, "trace too short for two snapshots of delta {delta}");
    let mut boundaries = Vec::with_capacity(total / delta + 1);
    let mut b = delta;
    while b < total {
        boundaries.push(b);
        b += delta;
    }
    let remainder = total - boundaries.last().copied().unwrap_or(0);
    if remainder < delta / 2 && boundaries.len() > 1 {
        // linklens-allow(unwrap-in-lib): the while loop above pushed at least one boundary
        *boundaries.last_mut().expect("non-empty") = total;
    } else {
        boundaries.push(total);
    }
    boundaries
}

/// Boundary selection shared by [`SnapshotSequence::with_count`] and the
/// out-of-core [`crate::stream::StreamingSequence`]: exactly `count`
/// snapshots of (near-)equal edge delta.
pub(crate) fn count_boundaries(total: usize, count: usize) -> Vec<usize> {
    assert!(count >= 2, "need at least two snapshots");
    let delta = (total / count).max(1);
    let mut boundaries = delta_boundaries(total, delta);
    boundaries.truncate(count);
    // linklens-allow(unwrap-in-lib): delta_boundaries always produces at least two boundaries
    *boundaries.last_mut().expect("non-empty") = total;
    boundaries
}

/// A sequence of snapshot boundaries over one trace, each snapshot adding a
/// constant number of new edges ("snapshot delta").
///
/// The paper chooses the delta so the trace yields more than 15 snapshots
/// while consecutive snapshots stay under two weeks apart (Table 2); this
/// type exposes both knobs so callers can reproduce that selection.
#[derive(Clone, Debug)]
pub struct SnapshotSequence<'a> {
    trace: &'a TemporalGraph,
    /// Edge-prefix length of each snapshot, strictly increasing, last equals
    /// the full trace.
    boundaries: Vec<usize>,
}

impl<'a> SnapshotSequence<'a> {
    /// Splits `trace` into snapshots of `delta` new edges each. The final
    /// snapshot absorbs any remainder smaller than `delta / 2`; otherwise
    /// the remainder forms its own (short) snapshot.
    ///
    /// # Panics
    /// Panics if `delta == 0` or the trace has fewer than `2 * delta` edges
    /// (a sequence needs at least two snapshots to predict anything).
    // linklens-allow(unreached-pub-fn): the fixed-delta fixtures of the core unit tests, prune_equivalence.rs, incremental.rs, validate.rs and substrate_properties.rs set the private boundaries
    pub fn by_edge_delta(trace: &'a TemporalGraph, delta: usize) -> Self {
        SnapshotSequence { trace, boundaries: delta_boundaries(trace.edge_count(), delta) }
    }

    /// Builds a sequence with exactly `count` snapshots of (near-)equal
    /// edge delta.
    pub fn with_count(trace: &'a TemporalGraph, count: usize) -> Self {
        SnapshotSequence { trace, boundaries: count_boundaries(trace.edge_count(), count) }
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

    /// The underlying trace.
    pub fn trace(&self) -> &TemporalGraph {
        self.trace
    }

    /// Edge-prefix length of snapshot `i` (0-based).
    pub fn boundary(&self, i: usize) -> usize {
        self.boundaries[i]
    }

    /// Materializes snapshot `i` (0-based) from scratch. For walking
    /// several boundaries in order, prefer [`snapshots`](Self::snapshots),
    /// which advances one reusable arena incrementally instead of
    /// rebuilding the full CSR per boundary.
    pub fn snapshot(&self, i: usize) -> Snapshot {
        Snapshot::up_to(self.trace, self.boundaries[i])
    }

    /// An in-order sweep over the sequence's snapshots backed by one
    /// incremental [`SnapshotBuilder`] reading the trace. Each call to
    /// [`SnapshotSweep::next`] yields a view borrowed from the sweep, valid
    /// until the next advance — each boundary costs one streaming merge of
    /// the delta into the previous CSR instead of a from-scratch
    /// scatter-and-sort of the whole prefix.
    pub fn snapshots(&self) -> SnapshotSweep<'_> {
        SnapshotSweep {
            builder: SnapshotBuilder::new(self.trace),
            boundaries: &self.boundaries,
            next: 0,
        }
    }

    /// Ground truth for predicting snapshot `i` from snapshot `i − 1`: the
    /// new edges in `G_i` whose *both* endpoints already existed in
    /// `G_{i-1}` — the paper explicitly excludes edges created by nodes
    /// that join after `t` (§2, footnote 1). Pairs are canonical (`u < v`).
    ///
    /// # Panics
    /// Panics if `i == 0` or `i >= len()`.
    pub fn new_edges(&self, i: usize) -> Vec<(NodeId, NodeId)> {
        assert!(i > 0 && i < self.len(), "new_edges needs 1 <= i < len");
        // The node universe of G_{i-1} is every node arrived by its
        // snapshot time — an O(log n) lookup, no CSR build required.
        let prev_time = self.trace.edges()[self.boundaries[i - 1] - 1].t;
        let existing = self.trace.nodes_at(prev_time) as NodeId;
        self.trace.edges()[self.boundaries[i - 1]..self.boundaries[i]]
            .iter()
            .filter(|e| e.u < existing && e.v < existing)
            .map(|e| (e.u, e.v))
            .collect()
    }

    /// The snapshot-time spacing (in trace seconds) between consecutive
    /// snapshots — the quantity the paper bounds by two weeks.
    pub fn spacings(&self) -> Vec<u64> {
        let mut prev_t = self.trace.edges()[self.boundaries[0] - 1].t;
        let mut out = Vec::with_capacity(self.len().saturating_sub(1));
        for &b in &self.boundaries[1..] {
            let t = self.trace.edges()[b - 1].t;
            out.push(t - prev_t);
            prev_t = t;
        }
        out
    }
}

/// A lending in-order iterator over a sequence's snapshots. Created by
/// [`SnapshotSequence::snapshots`].
///
/// This is deliberately *not* a `std::iter::Iterator`: each yielded
/// `&Snapshot` borrows the sweep's internal arena and is invalidated by the
/// next advance, which is exactly what lets the whole sweep reuse one
/// allocation. Use `while let Some(snap) = sweep.next()`.
#[derive(Debug)]
pub struct SnapshotSweep<'a> {
    builder: SnapshotBuilder<&'a TemporalGraph>,
    boundaries: &'a [usize],
    next: usize,
}

impl SnapshotSweep<'_> {
    /// Advances to the next boundary and returns the snapshot there, or
    /// `None` after the final snapshot.
    #[allow(clippy::should_implement_trait)] // lending: the item borrows self
    pub fn next(&mut self) -> Option<&Snapshot> {
        let b = *self.boundaries.get(self.next)?;
        self.next += 1;
        // linklens-allow(unwrap-in-lib): a slice read does no I/O, and TemporalGraph::add_edge drops repeated pairs
        Some(self.builder.advance_to(b).expect("an in-core advance cannot fail"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temporal::TemporalGraph;

    /// A chain trace: node i arrives at time 10*i, edge (i-1, i) at 10*i.
    fn chain(n: usize) -> TemporalGraph {
        let mut g = TemporalGraph::new();
        g.add_node(0);
        for i in 1..n {
            let t = 10 * i as u64;
            g.add_node(t);
            g.add_edge(i as NodeId - 1, i as NodeId, t);
        }
        g
    }

    #[test]
    fn delta_splits_evenly() {
        let g = chain(21); // 20 edges
        let seq = SnapshotSequence::by_edge_delta(&g, 5);
        assert_eq!(seq.len(), 4);
        assert_eq!(seq.boundary(0), 5);
        assert_eq!(seq.boundary(3), 20);
    }

    #[test]
    fn small_remainder_absorbed() {
        let g = chain(22); // 21 edges, delta 5 → remainder 1 < 2 absorbed
        let seq = SnapshotSequence::by_edge_delta(&g, 5);
        assert_eq!(seq.len(), 4);
        assert_eq!(seq.boundary(3), 21);
    }

    #[test]
    fn large_remainder_kept() {
        let g = chain(24); // 23 edges, delta 5 → remainder 3 >= 2 kept
        let seq = SnapshotSequence::by_edge_delta(&g, 5);
        assert_eq!(seq.len(), 5);
        assert_eq!(seq.boundary(4), 23);
    }

    #[test]
    fn with_count_hits_exact_count() {
        let g = chain(30);
        let seq = SnapshotSequence::with_count(&g, 6);
        assert_eq!(seq.len(), 6);
        assert_eq!(seq.boundary(5), 29);
    }

    #[test]
    fn new_edges_excludes_late_arrivals() {
        // Nodes arrive over time; edges to brand-new nodes must not count
        // as predictable ground truth.
        let g = chain(21);
        let seq = SnapshotSequence::by_edge_delta(&g, 5);
        // Snapshot 0 has edges up to node 5 (arrival ≤ t of edge 5).
        let truth = seq.new_edges(1);
        // Every new edge in (5..10] touches a node that arrived after
        // snapshot 0's time, except none: chain edge i touches node i which
        // arrives exactly at that edge's time → all excluded.
        assert!(truth.is_empty());
    }

    #[test]
    fn new_edges_includes_edges_between_existing() {
        let mut g = TemporalGraph::new();
        for _ in 0..4 {
            g.add_node(0); // all nodes exist from the start
        }
        g.add_edge(0, 1, 10);
        g.add_edge(1, 2, 20);
        g.add_edge(2, 3, 30);
        g.add_edge(0, 3, 40);
        let seq = SnapshotSequence::by_edge_delta(&g, 2);
        assert_eq!(seq.len(), 2);
        assert_eq!(seq.new_edges(1), vec![(2, 3), (0, 3)]);
    }

    #[test]
    fn spacings_reflect_edge_times() {
        let g = chain(21);
        let seq = SnapshotSequence::by_edge_delta(&g, 5);
        // Boundary edges at t = 50, 100, 150, 200 → spacings 50 each.
        assert_eq!(seq.spacings(), vec![50, 50, 50]);
    }

    #[test]
    fn sweep_matches_from_scratch_snapshots() {
        let g = chain(30);
        let seq = SnapshotSequence::by_edge_delta(&g, 4);
        let mut sweep = seq.snapshots();
        let mut seen = 0;
        while let Some(snap) = sweep.next() {
            assert_eq!(snap, &seq.snapshot(seen), "snapshot {seen}");
            seen += 1;
        }
        assert_eq!(seen, seq.len());
        assert!(sweep.next().is_none(), "sweep is fused");
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn too_short_trace_panics() {
        let g = chain(5);
        let _ = SnapshotSequence::by_edge_delta(&g, 4);
    }
}
