//! Online ingest: a mutable trace advanced in place behind versioned,
//! immutable snapshot publications.
//!
//! [`crate::builder::SnapshotBuilder`] borrows an immutable
//! [`TemporalGraph`], which is the right shape for offline sweeps but not
//! for a server that keeps *appending* to the trace while answering
//! queries. [`LiveGraph`] owns both halves: the growing edge log and the
//! same double-buffered [`MergeArena`](crate::builder) merge core the
//! offline builder runs on. Ingest validates events instead of panicking
//! (a server must reject bad input, not die), and
//! [`publish`](LiveGraph::publish) folds everything ingested since the
//! last publication into the CSR with one streaming merge, returning an
//! immutable [`Publication`] — a monotonically versioned
//! [`Arc<Snapshot>`] plus the delta pairs readers need for cache
//! invalidation.
//!
//! Because publications go through the identical merge core with the
//! identical `(delta, new_n, time, prefix_len)` arguments the offline
//! builder derives, the published CSR at any prefix is **bit-identical**
//! to `SnapshotBuilder::advance_to` (and hence to `Snapshot::up_to`) at
//! that prefix, no matter how the ingest stream was batched — asserted by
//! the serve crate's equivalence tests.

use crate::builder::MergeArena;
use crate::snapshot::Snapshot;
use crate::temporal::TemporalGraph;
use crate::{NodeId, Timestamp};
use std::sync::Arc;

/// Why an ingest event was rejected. Mirrors the panics of
/// [`TemporalGraph::add_node`] / [`TemporalGraph::add_edge`] as
/// recoverable errors, so a server can refuse one malformed event and
/// keep serving.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IngestError {
    /// `u == v`.
    SelfLoop,
    /// An endpoint id has not been registered via
    /// [`LiveGraph::ingest_node`].
    UnknownNode,
    /// The event timestamp precedes a node arrival it references.
    BeforeArrival,
    /// The event timestamp precedes the last accepted event (the log is
    /// chronological).
    BackwardsTime,
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::SelfLoop => write!(f, "self-loops are not allowed"),
            IngestError::UnknownNode => write!(f, "edge references an unregistered node"),
            IngestError::BeforeArrival => write!(f, "edge predates a node arrival"),
            IngestError::BackwardsTime => write!(f, "timestamps must be non-decreasing"),
        }
    }
}

/// One published snapshot version: an immutable CSR readers can hold
/// arbitrarily long, plus what changed since the previous publication.
#[derive(Clone, Debug)]
pub struct Publication {
    /// Monotonic publication counter, starting at 1 for the first
    /// non-empty publication. Two publications with the same version are
    /// the same snapshot.
    pub version: u64,
    /// The immutable snapshot at this version.
    pub snapshot: Arc<Snapshot>,
    /// The canonical edge pairs folded in by this publication (empty for
    /// the initial empty publication). Readers use these for targeted
    /// cache invalidation.
    pub delta: Vec<(NodeId, NodeId)>,
}

/// A growing trace plus the incremental merge arena, publishing immutable
/// versioned snapshots on demand.
#[derive(Debug)]
pub struct LiveGraph {
    trace: TemporalGraph,
    arena: MergeArena,
    /// Trace edges already folded into the arena's CSR.
    published_prefix: usize,
    version: u64,
}

impl Default for LiveGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl LiveGraph {
    /// Creates an empty live graph at version 0.
    pub fn new() -> Self {
        LiveGraph {
            trace: TemporalGraph::new(),
            arena: MergeArena::new(0, 0),
            published_prefix: 0,
            version: 0,
        }
    }

    /// Registers a node arriving at `t` and returns its dense id, or
    /// rejects a backwards arrival time.
    pub fn ingest_node(&mut self, t: Timestamp) -> Result<NodeId, IngestError> {
        if let Some(last) = self.trace.arrivals().last() {
            if t < *last {
                return Err(IngestError::BackwardsTime);
            }
        }
        Ok(self.trace.add_node(t))
    }

    /// Appends an edge event at `t`. Returns `Ok(true)` for a new edge,
    /// `Ok(false)` for a silently ignored duplicate, or the validation
    /// failure.
    pub fn ingest_edge(&mut self, u: NodeId, v: NodeId, t: Timestamp) -> Result<bool, IngestError> {
        if u == v {
            return Err(IngestError::SelfLoop);
        }
        let n = self.trace.node_count() as NodeId;
        if u >= n || v >= n {
            return Err(IngestError::UnknownNode);
        }
        if self.trace.arrival(u) > t || self.trace.arrival(v) > t {
            return Err(IngestError::BeforeArrival);
        }
        if let Some(last) = self.trace.end_time() {
            if t < last {
                return Err(IngestError::BackwardsTime);
            }
        }
        Ok(self.trace.add_edge(u, v, t))
    }

    /// Edges accepted but not yet folded into a publication — the ingest
    /// lag a server reports.
    pub fn pending_edges(&self) -> usize {
        self.trace.edge_count() - self.published_prefix
    }

    /// Total nodes registered (including ones newer than the last
    /// publication).
    pub fn node_count(&self) -> usize {
        self.trace.node_count()
    }

    /// Total distinct edges accepted.
    pub fn edge_count(&self) -> usize {
        self.trace.edge_count()
    }

    /// The current publication version (0 until the first non-empty
    /// publish).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The underlying trace (read-only; the offline oracle in equivalence
    /// tests replays it through [`crate::builder::SnapshotBuilder`]).
    pub fn trace(&self) -> &TemporalGraph {
        &self.trace
    }

    /// Folds every pending edge into the CSR and returns the new
    /// publication. With nothing pending this re-publishes the current
    /// version (same snapshot contents, empty delta, version unchanged).
    ///
    /// The merge itself is the offline builder's streaming double-buffer
    /// pass; the published snapshot is a clone of the arena's CSR, so
    /// subsequent ingest never mutates what readers hold.
    pub fn publish(&mut self) -> Publication {
        let prefix = self.trace.edge_count();
        if prefix == self.published_prefix {
            return Publication {
                version: self.version,
                snapshot: Arc::new(self.arena_snapshot().clone()),
                delta: Vec::new(),
            };
        }
        let delta_edges = &self.trace.edges()[self.published_prefix..prefix];
        let delta: Vec<(NodeId, NodeId)> = delta_edges.iter().map(|e| (e.u, e.v)).collect();
        let time = self.trace.edges()[prefix - 1].t;
        let new_n = self.trace.nodes_at(time);
        let merged = self.arena.apply(delta_edges, new_n, time, prefix);
        debug_assert!(merged.is_ok(), "ingest drops repeated pairs: {merged:?}");
        self.published_prefix = prefix;
        self.version += 1;
        if crate::audit::audit_enabled() {
            if let Err(e) = self.arena_snapshot().validate() {
                panic!("snapshot invariant violated after publish at prefix {prefix}: {e}");
            }
        }
        Publication {
            version: self.version,
            snapshot: Arc::new(self.arena_snapshot().clone()),
            delta,
        }
    }

    fn arena_snapshot(&self) -> &Snapshot {
        &self.arena.snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SnapshotBuilder;

    fn grown(n: usize) -> LiveGraph {
        let mut lg = LiveGraph::new();
        lg.ingest_node(0).unwrap();
        lg.ingest_node(0).unwrap();
        lg.ingest_edge(0, 1, 1).unwrap();
        for i in 2..n {
            let t = 10 * i as u64;
            lg.ingest_node(t).unwrap();
            lg.ingest_edge((i / 2) as NodeId, i as NodeId, t).unwrap();
            if i >= 3 {
                lg.ingest_edge((i - 1) as NodeId, i as NodeId, t + 1).unwrap();
            }
        }
        lg
    }

    #[test]
    fn batched_publishes_match_offline_builder() {
        let lg_full = grown(14);
        let offline_trace = lg_full.trace().clone();
        for batch in [1usize, 3, 7] {
            let mut lg = LiveGraph::new();
            let mut offline = SnapshotBuilder::new(&offline_trace);
            for e in offline_trace.edges() {
                while lg.node_count() <= e.v as usize {
                    let arrival = offline_trace.arrival(lg.node_count() as NodeId);
                    lg.ingest_node(arrival).unwrap();
                }
                lg.ingest_edge(e.u, e.v, e.t).unwrap();
                if lg.pending_edges() >= batch {
                    let publication = lg.publish();
                    let oracle = offline.advance_to(publication.snapshot.prefix_len());
                    assert_eq!(&*publication.snapshot, oracle, "batch {batch}");
                }
            }
            let publication = lg.publish();
            if publication.snapshot.prefix_len() > 0 {
                let oracle = offline.advance_to(publication.snapshot.prefix_len());
                assert_eq!(&*publication.snapshot, oracle, "final batch {batch}");
            }
        }
    }

    #[test]
    fn versions_are_monotonic_and_empty_publish_is_stable() {
        let mut lg = grown(6);
        let p1 = lg.publish();
        assert_eq!(p1.version, 1);
        assert_eq!(p1.delta.len(), p1.snapshot.edge_count());
        let p2 = lg.publish();
        assert_eq!(p2.version, 1, "nothing pending keeps the version");
        assert!(p2.delta.is_empty());
        assert_eq!(p2.snapshot.edge_count(), p1.snapshot.edge_count());
        lg.ingest_edge(0, 3, 1000).unwrap();
        let p3 = lg.publish();
        assert_eq!(p3.version, 2);
        assert_eq!(p3.delta, vec![(0, 3)]);
    }

    #[test]
    fn ingest_rejects_malformed_events_without_panicking() {
        let mut lg = LiveGraph::new();
        lg.ingest_node(10).unwrap();
        lg.ingest_node(20).unwrap();
        assert_eq!(lg.ingest_node(5), Err(IngestError::BackwardsTime));
        assert_eq!(lg.ingest_edge(0, 0, 30), Err(IngestError::SelfLoop));
        assert_eq!(lg.ingest_edge(0, 7, 30), Err(IngestError::UnknownNode));
        assert_eq!(lg.ingest_edge(0, 1, 15), Err(IngestError::BeforeArrival));
        assert!(lg.ingest_edge(0, 1, 30).unwrap());
        assert_eq!(lg.ingest_edge(1, 0, 40), Ok(false), "duplicate ignored");
        lg.ingest_node(20).unwrap();
        assert_eq!(lg.ingest_edge(0, 2, 25), Err(IngestError::BackwardsTime));
        assert_eq!(lg.pending_edges(), 1);
    }

    #[test]
    fn published_snapshot_is_isolated_from_later_ingest() {
        let mut lg = grown(8);
        let p1 = lg.publish();
        let frozen = p1.snapshot.clone();
        let before = (frozen.node_count(), frozen.edge_count());
        lg.ingest_node(10_000).unwrap();
        lg.ingest_edge(0, (lg.node_count() - 1) as NodeId, 10_000).unwrap();
        let p2 = lg.publish();
        assert_eq!((frozen.node_count(), frozen.edge_count()), before);
        assert!(p2.snapshot.edge_count() > frozen.edge_count());
    }
}
