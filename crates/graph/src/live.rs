//! Online ingest: a mutable trace advanced in place behind versioned,
//! immutable snapshot publications.
//!
//! [`crate::builder::SnapshotBuilder`] reads an immutable trace through a
//! [`crate::io::TraceReader`], which is the right shape for offline sweeps
//! but not for a server that keeps *appending* to the trace while
//! answering queries. [`LiveGraph`] owns the growing edge log and runs the offline
//! builder's merge core ([`MergeScratch`](crate::builder)) on it. Ingest
//! validates events instead of panicking (a server must reject bad input,
//! not die), and [`publish`](LiveGraph::publish) folds everything ingested
//! since the last publication into a new CSR with one streaming merge,
//! returning an immutable [`Publication`] — a monotonically versioned
//! [`Arc<Snapshot>`] plus the delta pairs readers need for cache
//! invalidation.
//!
//! The merge reads the current publication through its `Arc` and writes
//! the next one, which is published as it is: no copy of the CSR is made.
//! It writes into the buffers of the publication before the current one
//! when no reader holds that version any more, and into fresh ones
//! otherwise, so a reader's snapshot never changes under it.
//!
//! Because publications go through the identical merge core with the
//! identical `(delta, new_n, time, prefix_len)` arguments the offline
//! builder derives, the published CSR at any prefix is **bit-identical**
//! to `SnapshotBuilder::advance_to` (and hence to `Snapshot::up_to`) at
//! that prefix, no matter how the ingest stream was batched — asserted by
//! the serve crate's equivalence tests.

use crate::builder::MergeScratch;
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

/// A growing trace plus the incremental merge core, publishing immutable
/// versioned snapshots on demand.
#[derive(Debug)]
pub struct LiveGraph {
    trace: TemporalGraph,
    /// The latest publication, shared with its readers.
    current: Arc<Snapshot>,
    /// The publication before `current`. Once no reader holds it, the
    /// next merge writes into its buffers.
    retired: Option<Arc<Snapshot>>,
    scratch: MergeScratch,
    /// Trace edges already folded into `current`.
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
            current: Arc::new(Snapshot::empty(0, 0)),
            retired: None,
            scratch: MergeScratch::default(),
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
    /// version (the same `Arc`, empty delta, version unchanged).
    ///
    /// The merge is the offline builder's streaming pass, run from the
    /// current publication into the retired one's buffers when
    /// [`Arc::try_unwrap`] finds no reader left on it, or into fresh
    /// buffers otherwise. The merged snapshot itself is published, so
    /// subsequent ingest never mutates what readers hold.
    pub fn publish(&mut self) -> Publication {
        let prefix = self.trace.edge_count();
        if prefix == self.published_prefix {
            return Publication {
                version: self.version,
                snapshot: Arc::clone(&self.current),
                delta: Vec::new(),
            };
        }
        let delta_edges = &self.trace.edges()[self.published_prefix..prefix];
        let delta: Vec<(NodeId, NodeId)> = delta_edges.iter().map(|e| (e.u, e.v)).collect();
        let time = self.trace.edges()[prefix - 1].t;
        let new_n = self.trace.nodes_at(time);
        let mut next = match self.retired.take().map(Arc::try_unwrap) {
            Some(Ok(unread)) => unread,
            _ => Snapshot::empty(0, 0),
        };
        let merged = self.scratch.merge(&self.current, delta_edges, new_n, time, prefix, &mut next);
        debug_assert!(merged.is_ok(), "ingest drops repeated pairs: {merged:?}");
        self.published_prefix = prefix;
        self.version += 1;
        if crate::audit::audit_enabled() {
            if let Err(e) = next.validate() {
                panic!("snapshot invariant violated after publish at prefix {prefix}: {e}");
            }
        }
        let next = Arc::new(next);
        self.retired = Some(std::mem::replace(&mut self.current, Arc::clone(&next)));
        Publication { version: self.version, snapshot: next, delta }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SnapshotBuilder;
    use std::ops::Range;

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

    /// Ingests `trace`'s edges `range`, registering each node just before
    /// its first edge.
    fn feed(lg: &mut LiveGraph, trace: &TemporalGraph, range: Range<usize>) {
        for e in &trace.edges()[range] {
            while lg.node_count() <= e.u.max(e.v) as usize {
                lg.ingest_node(trace.arrival(lg.node_count() as NodeId)).unwrap();
            }
            lg.ingest_edge(e.u, e.v, e.t).unwrap();
        }
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
                    let oracle = offline.advance_to(publication.snapshot.prefix_len()).unwrap();
                    assert_eq!(&*publication.snapshot, oracle, "batch {batch}");
                }
            }
            let publication = lg.publish();
            if publication.snapshot.prefix_len() > 0 {
                let oracle = offline.advance_to(publication.snapshot.prefix_len()).unwrap();
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
        assert!(Arc::ptr_eq(&p2.snapshot, &p1.snapshot), "a no-op publish hands out the same Arc");
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

    #[test]
    fn held_versions_survive_later_publishes() {
        let trace = grown(24).trace().clone();
        let m = trace.edge_count();
        let mut lg = LiveGraph::new();
        feed(&mut lg, &trace, 0..m / 4);
        let older = lg.publish();
        feed(&mut lg, &trace, m / 4..m / 2);
        let newer = lg.publish();
        let copies = [(*older.snapshot).clone(), (*newer.snapshot).clone()];
        // Two more publishes: the first would write into `older`'s buffers
        // and the second into `newer`'s, were no reader holding them.
        feed(&mut lg, &trace, m / 2..3 * m / 4);
        lg.publish();
        feed(&mut lg, &trace, 3 * m / 4..m);
        assert_eq!(lg.publish().snapshot.prefix_len(), m);
        for (held, copy) in [&older, &newer].into_iter().zip(&copies) {
            let prefix = held.snapshot.prefix_len();
            assert_eq!(&*held.snapshot, copy, "version {} changed under its reader", held.version);
            let oracle = SnapshotBuilder::new(&trace).advance_to(prefix).unwrap().clone();
            assert_eq!(&*held.snapshot, &oracle, "version {} at prefix {prefix}", held.version);
        }
    }

    #[test]
    fn unread_retired_buffers_are_reused() {
        let trace = grown(40).trace().clone();
        let m = trace.edge_count();
        let mut lg = LiveGraph::new();
        // Each version's neighbour buffer (address, capacity), by version;
        // no publication outlives its loop turn, so no reader holds one.
        let mut buffers = vec![(0usize, 0usize)];
        let mut reused = 0;
        let mut at = 0;
        for end in [m / 2, m / 2 + 1, m / 2 + 3, m / 2 + 4, m / 2 + 6, m / 2 + 7, m] {
            feed(&mut lg, &trace, at..end);
            at = end;
            let publication = lg.publish();
            let version = publication.version as usize;
            let snap = &publication.snapshot;
            assert_eq!(
                &**snap,
                SnapshotBuilder::new(&trace).advance_to(end).unwrap(),
                "version {version}"
            );
            let buffer = (snap.neighbors.as_ptr() as usize, snap.neighbors.capacity());
            // The publish before last retired version - 2; its buffer is
            // reused whenever it is large enough to hold the merge.
            if version >= 2 && buffers[version - 2].1 >= 2 * end {
                assert_eq!(buffer.0, buffers[version - 2].0, "version {version} reuses");
                reused += 1;
            }
            buffers.push(buffer);
        }
        assert!(reused >= 2, "reused {reused} buffers");
    }
}
