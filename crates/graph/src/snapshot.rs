//! Immutable CSR snapshots of a temporal prefix.

use crate::temporal::TemporalGraph;
use crate::{canonical, NodeId, Timestamp};
use std::any::{Any, TypeId};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// A broken CSR invariant detected by [`Snapshot::validate`].
///
/// Every variant names the first offending location, so a failed audit in
/// a long sweep points straight at the corrupt node or edge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InvariantViolation {
    /// `offsets` must hold exactly `node_count + 1` entries.
    OffsetsLength {
        /// `node_count + 1`.
        expected: usize,
        /// `offsets.len()` as found.
        actual: usize,
    },
    /// `offsets[0]` must be zero.
    OffsetsStart(usize),
    /// `offsets` must be non-decreasing; `node` is the first index where
    /// `offsets[node] > offsets[node + 1]`.
    OffsetsNotMonotonic {
        /// First node whose offset exceeds its successor's.
        node: usize,
    },
    /// `offsets[node_count]` must equal `neighbors.len()`.
    OffsetsEndMismatch {
        /// `neighbors.len()`.
        expected: usize,
        /// `offsets[node_count]` as found.
        actual: usize,
    },
    /// `neighbors` and `edge_times` must be parallel arrays.
    TimesLengthMismatch {
        /// `neighbors.len()`.
        neighbors: usize,
        /// `edge_times.len()`.
        times: usize,
    },
    /// Each undirected edge contributes two adjacency entries, so
    /// `neighbors.len()` must equal `2 × edge_count`.
    EntryCountMismatch {
        /// `neighbors.len()`.
        entries: usize,
        /// `edge_count` as recorded.
        edge_count: usize,
    },
    /// An adjacency entry names a node outside `0..node_count`.
    NeighborOutOfRange {
        /// Node whose list holds the entry.
        node: usize,
        /// The out-of-range neighbor id.
        neighbor: NodeId,
    },
    /// A node lists itself as a neighbor.
    SelfLoop {
        /// The offending node.
        node: usize,
    },
    /// A neighbor list is not strictly ascending (unsorted or duplicated).
    UnsortedNeighbors {
        /// Node whose list breaks the order.
        node: usize,
        /// Index within the node's list where order first breaks.
        position: usize,
    },
    /// Edge `(u, v)` appears in `u`'s list but `v`'s list has no `u`.
    AsymmetricEdge {
        /// Endpoint whose list holds the edge.
        u: usize,
        /// Endpoint missing the reverse entry.
        v: NodeId,
    },
    /// The two directions of an edge record different creation times.
    EdgeTimeMismatch {
        /// First endpoint.
        u: usize,
        /// Second endpoint.
        v: NodeId,
        /// Time stored in `u`'s list.
        forward: Timestamp,
        /// Time stored in `v`'s list.
        backward: Timestamp,
    },
    /// An edge's creation time is later than the snapshot time.
    EdgeTimeAfterSnapshot {
        /// Endpoint whose list holds the edge.
        u: usize,
        /// The other endpoint.
        v: NodeId,
        /// The offending creation time.
        edge_time: Timestamp,
        /// The snapshot time.
        snapshot_time: Timestamp,
    },
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use InvariantViolation::*;
        match self {
            OffsetsLength { expected, actual } => {
                write!(f, "offsets has {actual} entries, expected node_count + 1 = {expected}")
            }
            OffsetsStart(first) => write!(f, "offsets[0] is {first}, expected 0"),
            OffsetsNotMonotonic { node } => {
                write!(f, "offsets decrease between node {node} and {}", node + 1)
            }
            OffsetsEndMismatch { expected, actual } => {
                write!(f, "final offset is {actual}, expected neighbors.len() = {expected}")
            }
            TimesLengthMismatch { neighbors, times } => {
                write!(f, "edge_times has {times} entries, neighbors has {neighbors}")
            }
            EntryCountMismatch { entries, edge_count } => {
                write!(f, "{entries} adjacency entries for {edge_count} edges (expected 2x)")
            }
            NeighborOutOfRange { node, neighbor } => {
                write!(f, "node {node} lists out-of-range neighbor {neighbor}")
            }
            SelfLoop { node } => write!(f, "node {node} lists itself as a neighbor"),
            UnsortedNeighbors { node, position } => {
                write!(f, "neighbor list of node {node} not strictly ascending at entry {position}")
            }
            AsymmetricEdge { u, v } => {
                write!(f, "edge ({u}, {v}) has no reverse entry in node {v}'s list")
            }
            EdgeTimeMismatch { u, v, forward, backward } => {
                write!(f, "edge ({u}, {v}) stored with times {forward} and {backward}")
            }
            EdgeTimeAfterSnapshot { u, v, edge_time, snapshot_time } => {
                write!(
                    f,
                    "edge ({u}, {v}) created at {edge_time}, after snapshot time {snapshot_time}"
                )
            }
        }
    }
}

impl std::error::Error for InvariantViolation {}

/// A memo key: the deriving type, the value type and the bits of the
/// deriving type's fields.
type MemoKey = (TypeId, TypeId, Vec<u64>);

/// One key's once-cell: its first caller builds the value, and callers
/// arriving meanwhile wait for it.
type MemoCell = Arc<OnceLock<Arc<dyn Any + Send + Sync>>>;

/// The values derived from a snapshot (see [`Snapshot::derived`]). A
/// clone starts empty.
#[derive(Default)]
pub(crate) struct Memo(Mutex<BTreeMap<MemoKey, MemoCell>>);

impl Clone for Memo {
    fn clone(&self) -> Self {
        Memo::default()
    }
}

impl std::fmt::Debug for Memo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Memo").finish_non_exhaustive()
    }
}

/// An immutable undirected graph at one point in a trace.
///
/// Built from the first `prefix_len` edges of a [`TemporalGraph`]. Stores
/// sorted adjacency lists plus, for each adjacency entry, the creation time
/// of that edge — so the §6 temporal features (idle time, d-day edge
/// counts, common-neighbor arrival time) can be computed from a snapshot
/// alone.
///
/// The node universe is `0..node_count()`: every node whose arrival time is
/// at or before the snapshot time, whether or not it has edges yet.
///
/// `PartialEq`/`Eq` compare the full structural representation (offsets,
/// neighbor and edge-time arrays, counters) and ignore the memo of
/// derived values ([`Snapshot::derived`]), which is what lets the
/// property tests assert that incrementally advanced snapshots
/// ([`crate::builder::SnapshotBuilder`]) are bit-identical to
/// from-scratch [`Snapshot::up_to`] builds.
#[derive(Clone, Debug)]
pub struct Snapshot {
    pub(crate) n: usize,
    pub(crate) offsets: Vec<usize>,
    pub(crate) neighbors: Vec<NodeId>,
    pub(crate) edge_times: Vec<Timestamp>,
    pub(crate) time: Timestamp,
    pub(crate) edge_count: usize,
    pub(crate) prefix_len: usize,
    /// The values derived from this CSR; emptied whenever it changes
    /// (every incremental merge).
    pub(crate) memo: Memo,
}

impl PartialEq for Snapshot {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
            && self.offsets == other.offsets
            && self.neighbors == other.neighbors
            && self.edge_times == other.edge_times
            && self.time == other.time
            && self.edge_count == other.edge_count
            && self.prefix_len == other.prefix_len
    }
}

impl Eq for Snapshot {}

impl Snapshot {
    /// Builds the snapshot containing the first `prefix_len` edges of
    /// `trace` and every node that has arrived by the last included edge's
    /// timestamp.
    ///
    /// # Panics
    /// Panics if `prefix_len` exceeds the trace length or is zero.
    pub fn up_to(trace: &TemporalGraph, prefix_len: usize) -> Self {
        assert!(prefix_len > 0, "a snapshot needs at least one edge");
        assert!(prefix_len <= trace.edge_count(), "prefix exceeds trace length");
        let edges = &trace.edges()[..prefix_len];
        // linklens-allow(unwrap-in-lib): prefix_len > 0 asserted above
        let time = edges.last().expect("non-empty prefix").t;
        let n = trace.nodes_at(time);

        let mut degree = vec![0usize; n];
        for e in edges {
            degree[e.u as usize] += 1;
            degree[e.v as usize] += 1;
        }
        let mut offsets = vec![0usize; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + degree[i];
        }
        let mut neighbors = vec![0 as NodeId; offsets[n]];
        let mut edge_times = vec![0 as Timestamp; offsets[n]];
        let mut cursor = offsets.clone();
        for e in edges {
            neighbors[cursor[e.u as usize]] = e.v;
            edge_times[cursor[e.u as usize]] = e.t;
            cursor[e.u as usize] += 1;
            neighbors[cursor[e.v as usize]] = e.u;
            edge_times[cursor[e.v as usize]] = e.t;
            cursor[e.v as usize] += 1;
        }
        // Sort each adjacency slice by neighbor id, carrying times along.
        for u in 0..n {
            let span = offsets[u]..offsets[u + 1];
            let mut zipped: Vec<(NodeId, Timestamp)> = neighbors[span.clone()]
                .iter()
                .copied()
                .zip(edge_times[span.clone()].iter().copied())
                .collect();
            zipped.sort_unstable_by_key(|&(v, _)| v);
            for (k, (v, t)) in zipped.into_iter().enumerate() {
                neighbors[offsets[u] + k] = v;
                edge_times[offsets[u] + k] = t;
            }
        }
        Snapshot {
            n,
            offsets,
            neighbors,
            edge_times,
            time,
            edge_count: prefix_len,
            prefix_len,
            memo: Memo::default(),
        }
    }

    /// Number of nodes existing in this snapshot.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The snapshot time (timestamp of the last included edge).
    pub fn time(&self) -> Timestamp {
        self.time
    }

    /// How many temporal-log edges this snapshot includes.
    pub fn prefix_len(&self) -> usize {
        self.prefix_len
    }

    /// Degree of node `u`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.offsets[u as usize + 1] - self.offsets[u as usize]
    }

    /// Sorted neighbor list of `u`.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.neighbors[self.offsets[u as usize]..self.offsets[u as usize + 1]]
    }

    /// The value `build` derives from this snapshot, built by the first
    /// call for its key and shared by every later one. The key is the
    /// deriving type `K`, the value type `T` and `params`, the bits of
    /// `K`'s fields the value depends on. Each key has its own once-cell,
    /// so concurrent first callers of one key build once; the memo's lock
    /// is held only to find or insert the cell, never while building. The
    /// memo is emptied whenever the CSR changes, and a clone starts empty.
    pub fn derived<K: 'static, T: Any + Send + Sync>(
        &self,
        params: &[u64],
        build: impl FnOnce() -> T,
    ) -> Arc<T> {
        let key = (TypeId::of::<K>(), TypeId::of::<T>(), params.to_vec());
        // A poisoned lock is recovered: the only update under it is one
        // insert, which leaves the map valid whenever it stops.
        let cell = Arc::clone(
            self.memo.0.lock().unwrap_or_else(PoisonError::into_inner).entry(key).or_default(),
        );
        let value = cell.get_or_init(|| -> Arc<dyn Any + Send + Sync> { Arc::new(build()) });
        // linklens-allow(unwrap-in-lib): the key names `T`, so its cell holds a `T`
        Arc::clone(value).downcast().expect("a memo cell holds its key's value type")
    }

    /// Empties the memo, for a caller that just changed the CSR under it.
    pub(crate) fn clear_caches(&mut self) {
        self.memo = Memo::default();
    }

    /// Creation times parallel to [`neighbors`](Self::neighbors).
    #[inline]
    pub fn neighbor_times(&self, u: NodeId) -> &[Timestamp] {
        &self.edge_times[self.offsets[u as usize]..self.offsets[u as usize + 1]]
    }

    /// Whether the undirected edge `(u, v)` exists. O(log deg u).
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let (a, b) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterates the common neighbors of `u` and `v` (sorted merge;
    /// O(deg u + deg v)).
    pub fn common_neighbors<'a>(&'a self, u: NodeId, v: NodeId) -> CommonNeighbors<'a> {
        CommonNeighbors { a: self.neighbors(u), b: self.neighbors(v) }
    }

    /// Number of common neighbors of `u` and `v`.
    pub fn common_neighbor_count(&self, u: NodeId, v: NodeId) -> usize {
        self.common_neighbors(u, v).count()
    }

    /// All undirected edges `(u, v)` with `u < v`, in node order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.n as NodeId)
            .flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
            .filter(|&(u, v)| u < v)
    }

    /// The most recent time `u` created an edge, or `None` for isolated
    /// nodes. The paper's *idle time* of a node at snapshot time `T` is
    /// `T − last_activity(u)` (§4.4).
    pub fn last_activity(&self, u: NodeId) -> Option<Timestamp> {
        self.neighbor_times(u).iter().copied().max()
    }

    /// Number of edges `u` created in the half-open window
    /// `(time − window, time]` — the paper's "d-day new edges" feature.
    pub fn recent_edge_count(&self, u: NodeId, window: Timestamp) -> usize {
        let lo = self.time.saturating_sub(window);
        self.neighbor_times(u).iter().filter(|&&t| t > lo).count()
    }

    /// The *CN time gap* of §6.1: `time − max over common neighbors w of
    /// min(t(u,w), t(v,w))` — how recently the pair most recently gained a
    /// common neighbor. `None` if the pair has no common neighbor.
    ///
    /// A common neighbor `w` "arrives" for the pair when the *second* of
    /// the two edges (u,w), (v,w) is created, hence the outer max over the
    /// later of the two times.
    pub fn cn_time_gap(&self, u: NodeId, v: NodeId) -> Option<Timestamp> {
        let (nu, tu) = (self.neighbors(u), self.neighbor_times(u));
        let (nv, tv) = (self.neighbors(v), self.neighbor_times(v));
        let (mut i, mut j) = (0usize, 0usize);
        let mut latest: Option<Timestamp> = None;
        while i < nu.len() && j < nv.len() {
            match nu[i].cmp(&nv[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let arrived = tu[i].max(tv[j]);
                    latest = Some(latest.map_or(arrived, |l| l.max(arrived)));
                    i += 1;
                    j += 1;
                }
            }
        }
        latest.map(|l| self.time - l)
    }

    /// Checks every structural invariant of the CSR representation,
    /// returning the first violation found.
    ///
    /// Invariants checked, in order:
    ///
    /// 1. `offsets.len() == node_count + 1`, starting at 0, non-decreasing,
    ///    and ending at `neighbors.len()`.
    /// 2. `neighbors` and `edge_times` are parallel arrays with exactly
    ///    `2 × edge_count` entries.
    /// 3. Every neighbor list is strictly ascending (sorted, no
    ///    duplicates), references only nodes in `0..node_count`, and never
    ///    the node itself (no self-loops).
    /// 4. Adjacency is symmetric: `v ∈ N(u)` implies `u ∈ N(v)`, with both
    ///    directions storing the same creation time.
    /// 5. No edge was created after the snapshot time.
    ///
    /// Cost is O(V + E log d): the symmetry check binary-searches the
    /// reverse entry. [`crate::builder::SnapshotBuilder`] runs this after
    /// every incremental advance when [`crate::audit::audit_enabled`].
    pub fn validate(&self) -> Result<(), InvariantViolation> {
        use InvariantViolation::*;
        if self.offsets.len() != self.n + 1 {
            return Err(OffsetsLength { expected: self.n + 1, actual: self.offsets.len() });
        }
        if self.offsets[0] != 0 {
            return Err(OffsetsStart(self.offsets[0]));
        }
        if let Some(node) = (0..self.n).find(|&i| self.offsets[i] > self.offsets[i + 1]) {
            return Err(OffsetsNotMonotonic { node });
        }
        if self.offsets[self.n] != self.neighbors.len() {
            return Err(OffsetsEndMismatch {
                expected: self.neighbors.len(),
                actual: self.offsets[self.n],
            });
        }
        if self.neighbors.len() != self.edge_times.len() {
            return Err(TimesLengthMismatch {
                neighbors: self.neighbors.len(),
                times: self.edge_times.len(),
            });
        }
        if self.neighbors.len() != 2 * self.edge_count {
            return Err(EntryCountMismatch {
                entries: self.neighbors.len(),
                edge_count: self.edge_count,
            });
        }
        // Pass 1: per-list checks. Runs over every list before any symmetry
        // lookup, so pass 2 may binary-search lists known to be sorted.
        for u in 0..self.n {
            let span = self.offsets[u]..self.offsets[u + 1];
            let (nbrs, times) = (&self.neighbors[span.clone()], &self.edge_times[span]);
            for (k, (&v, &t)) in nbrs.iter().zip(times).enumerate() {
                if (v as usize) >= self.n {
                    return Err(NeighborOutOfRange { node: u, neighbor: v });
                }
                if v as usize == u {
                    return Err(SelfLoop { node: u });
                }
                if k > 0 && nbrs[k - 1] >= v {
                    return Err(UnsortedNeighbors { node: u, position: k });
                }
                if t > self.time {
                    return Err(EdgeTimeAfterSnapshot {
                        u,
                        v,
                        edge_time: t,
                        snapshot_time: self.time,
                    });
                }
            }
        }
        // Pass 2: symmetry, checked from both endpoints so an entry present
        // in only one list is caught regardless of which one.
        for u in 0..self.n {
            let span = self.offsets[u]..self.offsets[u + 1];
            let (nbrs, times) = (&self.neighbors[span.clone()], &self.edge_times[span]);
            for (&v, &t) in nbrs.iter().zip(times) {
                let back = self.offsets[v as usize]..self.offsets[v as usize + 1];
                let u_id = u as NodeId;
                match self.neighbors[back.clone()].binary_search(&u_id) {
                    Err(_) => return Err(AsymmetricEdge { u, v }),
                    Ok(pos) => {
                        let bt = self.edge_times[back.start + pos];
                        if bt != t {
                            return Err(EdgeTimeMismatch { u, v, forward: t, backward: bt });
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Convenience test constructor: an untimed static graph (all edges at
    /// t = 0, nodes `0..n`).
    // linklens-allow(unreached-pub-fn): the fixture graphs of the graph, linalg, metrics, core and serve tests fill the private CSR from an edge list
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Snapshot {
        let mut g = TemporalGraph::new();
        for _ in 0..n {
            g.add_node(0);
        }
        let mut added = 0;
        for &(u, v) in edges {
            let (u, v) = canonical(u, v);
            if g.add_edge(u, v, 0) {
                added += 1;
            }
        }
        assert!(added > 0, "from_edges needs at least one edge");
        let mut s = Snapshot::up_to(&g, added);
        // `up_to` sizes the node set by arrival; with all arrivals at 0 it
        // already equals n, but keep the contract explicit. Nothing has
        // been derived from the new snapshot yet.
        s.n = n;
        if s.offsets.len() < n + 1 {
            // linklens-allow(unwrap-in-lib): offsets always holds at least the leading zero
            let last = *s.offsets.last().expect("non-empty offsets");
            s.offsets.resize(n + 1, last);
        }
        s
    }
}

/// Sorted-merge iterator over common neighbors. See
/// [`Snapshot::common_neighbors`].
pub struct CommonNeighbors<'a> {
    a: &'a [NodeId],
    b: &'a [NodeId],
}

impl<'a> Iterator for CommonNeighbors<'a> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        while !self.a.is_empty() && !self.b.is_empty() {
            match self.a[0].cmp(&self.b[0]) {
                std::cmp::Ordering::Less => self.a = &self.a[1..],
                std::cmp::Ordering::Greater => self.b = &self.b[1..],
                std::cmp::Ordering::Equal => {
                    let w = self.a[0];
                    self.a = &self.a[1..];
                    self.b = &self.b[1..];
                    return Some(w);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 5-node fixture: triangle 0-1-2 plus path 2-3-4, with staggered
    /// times.
    fn fixture() -> TemporalGraph {
        let mut g = TemporalGraph::new();
        for _ in 0..5 {
            g.add_node(0);
        }
        g.add_edge(0, 1, 10);
        g.add_edge(1, 2, 20);
        g.add_edge(0, 2, 30);
        g.add_edge(2, 3, 40);
        g.add_edge(3, 4, 50);
        g
    }

    #[test]
    fn snapshot_counts_and_degrees() {
        let g = fixture();
        let s = Snapshot::up_to(&g, 5);
        assert_eq!(s.node_count(), 5);
        assert_eq!(s.edge_count(), 5);
        assert_eq!(s.degree(2), 3);
        assert_eq!(s.degree(4), 1);
        assert_eq!(s.time(), 50);
    }

    #[test]
    fn prefix_snapshot_excludes_later_edges() {
        let g = fixture();
        let s = Snapshot::up_to(&g, 3);
        assert_eq!(s.edge_count(), 3);
        assert!(s.has_edge(0, 2));
        assert!(!s.has_edge(2, 3));
        assert_eq!(s.time(), 30);
    }

    #[test]
    fn neighbors_sorted_with_times() {
        let g = fixture();
        let s = Snapshot::up_to(&g, 5);
        assert_eq!(s.neighbors(2), &[0, 1, 3]);
        assert_eq!(s.neighbor_times(2), &[30, 20, 40]);
        let time_of =
            |u: NodeId, v| s.neighbors(u).binary_search(&v).ok().map(|i| s.neighbor_times(u)[i]);
        assert_eq!(time_of(2, 3), Some(40));
        assert_eq!(time_of(2, 4), None);
    }

    #[test]
    fn has_edge_both_orders() {
        let g = fixture();
        let s = Snapshot::up_to(&g, 5);
        assert!(s.has_edge(3, 2));
        assert!(s.has_edge(2, 3));
        assert!(!s.has_edge(0, 4));
    }

    #[test]
    fn common_neighbors_merge() {
        let g = fixture();
        let s = Snapshot::up_to(&g, 5);
        let cn: Vec<_> = s.common_neighbors(0, 2).collect();
        assert_eq!(cn, vec![1]);
        assert_eq!(s.common_neighbor_count(1, 3), 1); // via node 2
        assert_eq!(s.common_neighbor_count(0, 4), 0);
    }

    #[test]
    fn last_activity_and_recent_edges() {
        let g = fixture();
        let s = Snapshot::up_to(&g, 5);
        assert_eq!(s.last_activity(0), Some(30));
        assert_eq!(s.last_activity(3), Some(50));
        // Window (50-15, 50] = (35, 50]: node 2's edges at 20,30,40 → one.
        assert_eq!(s.recent_edge_count(2, 15), 1);
        assert_eq!(s.recent_edge_count(4, 100), 1);
        assert_eq!(s.recent_edge_count(0, 5), 0);
    }

    #[test]
    fn cn_time_gap_uses_second_edge_time() {
        let g = fixture();
        let s = Snapshot::up_to(&g, 5);
        // Pair (0,2): common neighbor 1 with edges (0,1)@10 and (1,2)@20 →
        // arrived at 20 → gap = 50 - 20 = 30.
        assert_eq!(s.cn_time_gap(0, 2), Some(30));
        // Pair (1,3): CN 2 via edges @20 and @40 → gap = 10.
        assert_eq!(s.cn_time_gap(1, 3), Some(10));
        assert_eq!(s.cn_time_gap(0, 4), None);
    }

    #[test]
    fn node_set_grows_with_arrivals() {
        let mut g = TemporalGraph::new();
        g.add_node(0);
        g.add_node(0);
        g.add_node(100); // arrives after the first edge
        g.add_edge(0, 1, 10);
        g.add_edge(0, 2, 200);
        let early = Snapshot::up_to(&g, 1);
        assert_eq!(early.node_count(), 2, "node 2 has not arrived yet");
        let late = Snapshot::up_to(&g, 2);
        assert_eq!(late.node_count(), 3);
    }

    #[test]
    fn equality_ignores_degree_table_cache() {
        let g = fixture();
        let a = Snapshot::up_to(&g, 5);
        let b = Snapshot::up_to(&g, 5);
        // a's memo holds a value derived from it, b's holds nothing.
        let _ = a.derived::<f64, Vec<f64>>(&[], || {
            (0..a.node_count() as NodeId).map(|u| 1.0 / a.degree(u) as f64).collect()
        });
        assert_eq!(a, b);
    }

    #[test]
    fn memo_keys_on_deriving_type_value_type_and_param_bits() {
        struct Deriver;
        let s = Snapshot::up_to(&fixture(), 5);
        let first = s.derived::<Deriver, u64>(&[1], || 1);
        assert_eq!(*s.derived::<Deriver, u64>(&[1], || unreachable!("memoized")), 1);
        assert!(Arc::ptr_eq(&first, &s.derived::<Deriver, u64>(&[1], || 0)));
        // Another deriving type, value type, parameter bit or parameter
        // count is another key.
        assert_eq!(*s.derived::<u8, u64>(&[1], || 2), 2);
        assert_eq!(*s.derived::<Deriver, u32>(&[1], || 3), 3);
        assert_eq!(*s.derived::<Deriver, u64>(&[1 | 1 << 63], || 4), 4);
        assert_eq!(*s.derived::<Deriver, u64>(&[0.5f64.to_bits()], || 5), 5);
        assert_eq!(*s.derived::<Deriver, u64>(&[1, 0], || 6), 6);
        assert_eq!(*s.derived::<Deriver, u64>(&[], || 7), 7);
        assert_eq!(*s.derived::<Deriver, u64>(&[1], || 0), 1);
    }

    #[test]
    fn a_clone_starts_with_an_empty_memo() {
        let s = Snapshot::up_to(&fixture(), 5);
        let warm = s.derived::<(), Vec<u64>>(&[], || vec![1, 2, 3]);
        let copy = s.clone();
        assert_eq!(copy, s);
        let cold = copy.derived::<(), Vec<u64>>(&[], || vec![4]);
        assert_eq!(*cold, [4]);
        assert_eq!(*s.derived::<(), Vec<u64>>(&[], || vec![5]), *warm);
    }

    #[test]
    fn from_edges_isolated_nodes_allowed() {
        let s = Snapshot::from_edges(4, &[(0, 1)]);
        assert_eq!(s.node_count(), 4);
        assert_eq!(s.degree(3), 0);
        assert!(s.neighbors(2).is_empty());
    }

    #[test]
    fn validate_accepts_well_formed_snapshots() {
        let g = fixture();
        for k in 1..=5 {
            Snapshot::up_to(&g, k).validate().expect("fixture prefixes are valid");
        }
        Snapshot::from_edges(4, &[(0, 1), (2, 3)]).validate().expect("from_edges is valid");
    }

    #[test]
    fn validate_rejects_unsorted_neighbors() {
        let mut s = Snapshot::up_to(&fixture(), 5);
        // Node 2's list is [0, 1, 3]; swap the first two entries.
        let base = s.offsets[2];
        s.neighbors.swap(base, base + 1);
        s.edge_times.swap(base, base + 1);
        let err = s.validate().expect_err("unsorted list must be rejected");
        assert_eq!(err, InvariantViolation::UnsortedNeighbors { node: 2, position: 1 });
        assert!(err.to_string().contains("not strictly ascending"), "got: {err}");
    }

    #[test]
    fn validate_rejects_bad_offsets() {
        let g = fixture();

        let mut s = Snapshot::up_to(&g, 5);
        s.offsets[0] = 1;
        assert_eq!(s.validate().expect_err("shifted start"), InvariantViolation::OffsetsStart(1));

        let mut s = Snapshot::up_to(&g, 5);
        s.offsets[2] = s.offsets[3] + 1;
        assert_eq!(
            s.validate().expect_err("decreasing offsets"),
            InvariantViolation::OffsetsNotMonotonic { node: 2 }
        );

        let mut s = Snapshot::up_to(&g, 5);
        s.offsets.pop();
        assert_eq!(
            s.validate().expect_err("truncated offsets"),
            InvariantViolation::OffsetsLength { expected: 6, actual: 5 }
        );

        let mut s = Snapshot::up_to(&g, 5);
        let last = s.offsets.len() - 1;
        s.offsets[last] -= 1;
        assert_eq!(
            s.validate().expect_err("short final offset"),
            InvariantViolation::OffsetsEndMismatch { expected: 10, actual: 9 }
        );
    }

    #[test]
    fn validate_rejects_asymmetric_edge() {
        let mut s = Snapshot::up_to(&fixture(), 5);
        // Redirect node 4's single entry (3 → 0): node 0 lists no 4, and the
        // forward direction 3 → 4 loses its reverse entry too.
        let base = s.offsets[4];
        s.neighbors[base] = 0;
        let err = s.validate().expect_err("dangling entry must be rejected");
        assert_eq!(err, InvariantViolation::AsymmetricEdge { u: 3, v: 4 });
        assert!(err.to_string().contains("no reverse entry"), "got: {err}");
    }

    #[test]
    fn validate_rejects_self_loop() {
        let mut s = Snapshot::up_to(&fixture(), 5);
        // Node 4's single neighbor (3) becomes itself.
        let base = s.offsets[4];
        s.neighbors[base] = 4;
        assert_eq!(
            s.validate().expect_err("self-loop must be rejected"),
            InvariantViolation::SelfLoop { node: 4 }
        );
    }

    #[test]
    fn validate_rejects_count_and_time_corruption() {
        let g = fixture();

        let mut s = Snapshot::up_to(&g, 5);
        s.edge_count = 4;
        assert_eq!(
            s.validate().expect_err("stale edge_count"),
            InvariantViolation::EntryCountMismatch { entries: 10, edge_count: 4 }
        );

        let mut s = Snapshot::up_to(&g, 5);
        s.edge_times.pop();
        // Reported before the per-node scans: parallel arrays diverge first.
        assert_eq!(
            s.validate().expect_err("truncated edge_times"),
            InvariantViolation::TimesLengthMismatch { neighbors: 10, times: 9 }
        );

        let mut s = Snapshot::up_to(&g, 5);
        s.edge_times[0] = s.time + 1;
        assert!(matches!(
            s.validate().expect_err("future edge time"),
            InvariantViolation::EdgeTimeAfterSnapshot { .. }
        ));

        let mut s = Snapshot::up_to(&g, 5);
        s.edge_times[0] = 11; // forward (0,1) says 11, reverse still 10
        assert_eq!(
            s.validate().expect_err("time disagreement"),
            InvariantViolation::EdgeTimeMismatch { u: 0, v: 1, forward: 11, backward: 10 }
        );

        let mut s = Snapshot::up_to(&g, 5);
        // Corrupt node 0's first entry: the range check fires before any
        // symmetry lookup can touch the bogus id.
        s.neighbors[0] = 99;
        assert_eq!(
            s.validate().expect_err("out-of-range neighbor"),
            InvariantViolation::NeighborOutOfRange { node: 0, neighbor: 99 }
        );
    }
}
