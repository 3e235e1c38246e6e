//! The timestamped edge log — the in-memory form of a growth trace.

use crate::{canonical, NodeId, Timestamp};
use std::collections::HashSet;

/// One undirected edge creation event. The pair is stored canonically
/// (`u <= v`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimedEdge {
    /// Smaller endpoint.
    pub u: NodeId,
    /// Larger endpoint.
    pub v: NodeId,
    /// Creation time (seconds since trace epoch).
    pub t: Timestamp,
}

/// An append-only log of timestamped undirected edges plus per-node arrival
/// times.
///
/// Invariants, enforced by the mutating API:
///
/// * node ids are dense and assigned in arrival order — `add_node` returns
///   `0, 1, 2, …` and arrival times are non-decreasing;
/// * edge timestamps are non-decreasing along the log;
/// * no self-loops and no duplicate edges;
/// * an edge may only reference nodes that have already arrived.
///
/// These invariants are what make [`crate::snapshot::Snapshot`] prefixes
/// meaningful: the nodes existing at time `t` are exactly `0..arrivals(t)`.
#[derive(Clone, Debug, Default)]
pub struct TemporalGraph {
    edges: Vec<TimedEdge>,
    node_arrival: Vec<Timestamp>,
    seen: HashSet<(NodeId, NodeId)>,
}

impl TemporalGraph {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a node arriving at time `t` and returns its id.
    ///
    /// # Panics
    /// Panics if `t` precedes the previous node's arrival time.
    pub fn add_node(&mut self, t: Timestamp) -> NodeId {
        if let Some(&last) = self.node_arrival.last() {
            assert!(t >= last, "node arrivals must be non-decreasing ({t} < {last})");
        }
        let id = self.node_arrival.len() as NodeId;
        self.node_arrival.push(t);
        id
    }

    /// Appends an edge creation event at time `t`.
    ///
    /// Returns `true` if the edge was new, `false` if it already existed
    /// (duplicates are silently ignored so generators can retry without
    /// bookkeeping).
    ///
    /// # Panics
    /// Panics on self-loops, on unknown endpoints, on endpoints that arrive
    /// after `t`, and on timestamps that go backwards.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, t: Timestamp) -> bool {
        assert_ne!(u, v, "self-loops are not allowed");
        let n = self.node_arrival.len() as NodeId;
        assert!(u < n && v < n, "edge references unknown node ({u},{v}) with n={n}");
        assert!(
            self.node_arrival[u as usize] <= t && self.node_arrival[v as usize] <= t,
            "edge at t={t} predates a node arrival"
        );
        if let Some(last) = self.edges.last() {
            assert!(t >= last.t, "edge timestamps must be non-decreasing");
        }
        let (u, v) = canonical(u, v);
        if !self.seen.insert((u, v)) {
            return false;
        }
        self.edges.push(TimedEdge { u, v, t });
        true
    }

    /// Builds a trace from pre-collected events. `arrivals[i]` is node `i`'s
    /// arrival time. Duplicate edges are dropped (keeping the earliest) and
    /// events are sorted by time; arrival order of nodes must already match
    /// the id order.
    pub fn from_events(
        arrivals: Vec<Timestamp>,
        mut edges: Vec<(NodeId, NodeId, Timestamp)>,
    ) -> Self {
        for w in arrivals.windows(2) {
            assert!(w[0] <= w[1], "node arrivals must be non-decreasing");
        }
        edges.sort_by_key(|&(_, _, t)| t);
        let mut g = TemporalGraph::with_capacity(arrivals, edges.len());
        for (u, v, t) in edges {
            g.add_edge(u, v, t);
        }
        g
    }

    /// An edgeless trace over `arrivals`, which the caller has checked are
    /// non-decreasing, with room for `edges` edges.
    pub(crate) fn with_capacity(arrivals: Vec<Timestamp>, edges: usize) -> Self {
        TemporalGraph {
            edges: Vec::with_capacity(edges),
            node_arrival: arrivals,
            seen: HashSet::with_capacity(edges),
        }
    }

    /// Total number of nodes ever registered.
    pub fn node_count(&self) -> usize {
        self.node_arrival.len()
    }

    /// Total number of distinct edges in the log.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The chronologically ordered edge log.
    pub fn edges(&self) -> &[TimedEdge] {
        &self.edges
    }

    /// Arrival time of node `u`.
    pub fn arrival(&self, u: NodeId) -> Timestamp {
        self.node_arrival[u as usize]
    }

    /// All node arrival times, indexed by node id.
    pub fn arrivals(&self) -> &[Timestamp] {
        &self.node_arrival
    }

    /// Number of nodes that have arrived at or before time `t`.
    /// O(log n) via binary search on the sorted arrival vector.
    pub fn nodes_at(&self, t: Timestamp) -> usize {
        self.node_arrival.partition_point(|&a| a <= t)
    }

    /// Timestamp of the first edge, if any.
    pub fn start_time(&self) -> Option<Timestamp> {
        self.edges.first().map(|e| e.t)
    }

    /// Timestamp of the last edge, if any.
    pub fn end_time(&self) -> Option<Timestamp> {
        self.edges.last().map(|e| e.t)
    }

    /// True if the pair (in either order) appears anywhere in the log.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.seen.contains(&canonical(u, v))
    }

    /// Per-day counts of new nodes and new edges over the trace span
    /// (Figure 1 of the paper). Day 0 starts at the first event.
    pub fn daily_growth(&self) -> Vec<DailyGrowth> {
        let t0 =
            self.start_time().unwrap_or(0).min(self.node_arrival.first().copied().unwrap_or(0));
        let t_end =
            self.end_time().unwrap_or(0).max(self.node_arrival.last().copied().unwrap_or(0));
        let days = ((t_end - t0) / crate::DAY + 1) as usize;
        let mut out = vec![DailyGrowth::default(); days];
        for (d, g) in out.iter_mut().enumerate() {
            g.day = d;
        }
        for &a in &self.node_arrival {
            out[((a - t0) / crate::DAY) as usize].new_nodes += 1;
        }
        for e in &self.edges {
            out[((e.t - t0) / crate::DAY) as usize].new_edges += 1;
        }
        out
    }
}

/// One day's growth counters (Figure 1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DailyGrowth {
    /// Day index since the trace start.
    pub day: usize,
    /// Nodes that arrived during this day.
    pub new_nodes: usize,
    /// Edges created during this day.
    pub new_edges: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DAY;

    fn tiny() -> TemporalGraph {
        let mut g = TemporalGraph::new();
        let a = g.add_node(0);
        let b = g.add_node(10);
        let c = g.add_node(20);
        g.add_edge(a, b, 30);
        g.add_edge(b, c, 40);
        g
    }

    #[test]
    fn nodes_and_edges_counted() {
        let g = tiny();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.start_time(), Some(30));
        assert_eq!(g.end_time(), Some(40));
    }

    #[test]
    fn duplicate_edges_ignored() {
        let mut g = tiny();
        assert!(!g.add_edge(1, 0, 50), "reverse duplicate must be ignored");
        assert_eq!(g.edge_count(), 2);
        assert!(g.add_edge(0, 2, 50));
    }

    #[test]
    fn edges_stored_canonically() {
        let mut g = TemporalGraph::new();
        g.add_node(0);
        g.add_node(0);
        g.add_edge(1, 0, 5);
        assert_eq!(g.edges()[0], TimedEdge { u: 0, v: 1, t: 5 });
        assert!(g.has_edge(1, 0));
        assert!(g.has_edge(0, 1));
    }

    #[test]
    fn nodes_at_uses_arrival_times() {
        let g = tiny();
        assert_eq!(g.nodes_at(0), 1);
        assert_eq!(g.nodes_at(9), 1);
        assert_eq!(g.nodes_at(10), 2);
        assert_eq!(g.nodes_at(100), 3);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        let mut g = TemporalGraph::new();
        g.add_node(0);
        g.add_edge(0, 0, 1);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn backwards_time_panics() {
        let mut g = tiny();
        g.add_edge(0, 2, 35); // after all arrivals but earlier than the last edge at t=40
    }

    #[test]
    #[should_panic(expected = "predates")]
    fn edge_before_arrival_panics() {
        let mut g = TemporalGraph::new();
        g.add_node(0);
        g.add_node(100);
        g.add_edge(0, 1, 50);
    }

    #[test]
    fn from_events_sorts_and_dedups() {
        let g = TemporalGraph::from_events(
            vec![0, 0, 0],
            vec![(1, 2, 30), (0, 1, 10), (2, 1, 40), (0, 2, 20)],
        );
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.edges()[0].t, 10);
        assert_eq!(g.edges()[2].t, 30, "duplicate at t=40 dropped, order preserved");
    }

    #[test]
    fn daily_growth_buckets() {
        let mut g = TemporalGraph::new();
        g.add_node(0);
        g.add_node(DAY / 2);
        g.add_node(DAY + 1);
        g.add_edge(0, 1, DAY / 2);
        g.add_edge(0, 2, 2 * DAY + 5);
        let daily = g.daily_growth();
        assert_eq!(daily.len(), 3);
        assert_eq!(daily[0].new_nodes, 2);
        assert_eq!(daily[0].new_edges, 1);
        assert_eq!(daily[1].new_nodes, 1);
        assert_eq!(daily[1].new_edges, 0);
        assert_eq!(daily[2].new_edges, 1);
    }
}
