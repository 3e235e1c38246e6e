//! # osn-graph
//!
//! The temporal-graph substrate underlying LinkLens. It models exactly what
//! the paper's methodology needs (§3 of Liu et al., IMC 2016):
//!
//! * [`temporal::TemporalGraph`] — an append-only log of timestamped
//!   undirected edges plus node arrival times. This is the in-memory form
//!   of the paper's Facebook / Renren / YouTube traces.
//! * [`snapshot::Snapshot`] — an immutable CSR view of a temporal prefix,
//!   with per-edge creation times retained so the temporal filters of §6
//!   can be computed from any snapshot.
//! * [`sequence::SnapshotSequence`] — the constant-edge-delta snapshotting
//!   scheme of §3.2 ("snapshot delta"), including ground-truth extraction
//!   of the new edges between consecutive snapshots.
//! * [`builder::SnapshotBuilder`] — the incremental snapshot engine: one
//!   reusable CSR arena advanced boundary-to-boundary by merging only the
//!   delta edges, read in bounded windows through any [`io::TraceReader`]
//!   (an in-core `&TemporalGraph` or a cache file), so a full sequence
//!   sweep ([`sequence::SnapshotSequence::snapshots`]) costs O(E) instead
//!   of O(S·E). Bit-identical to [`snapshot::Snapshot::up_to`] at every
//!   prefix and window cap.
//! * [`live::LiveGraph`] — the online form of the same engine: an owned,
//!   growing trace with non-panicking ingest validation, publishing
//!   immutable versioned [`live::Publication`]s through the identical
//!   merge core (bit-identical CSRs at every prefix regardless of how
//!   ingest was batched).
//! * [`audit`] — runtime invariant auditing: debug builds (and release
//!   builds under `--paranoid`) run [`snapshot::Snapshot::validate`] after
//!   every incremental builder advance, catching CSR corruption at the
//!   advance that introduced it.
//! * [`stats`] — the network properties used throughout the paper: degree
//!   distribution moments and percentiles, clustering coefficient, average
//!   path length, degree assortativity, per-node triangle counts, and the
//!   2-hop edge ratio λ₂ of §4.2.
//! * [`traversal`] — BFS distances and the candidate-pair enumerators
//!   (unconnected 2-hop pairs, distance-bounded pairs), parallelized over
//!   per-source partitions with deterministic in-order merging.
//! * [`activity`] — the §6.2 [`activity::TemporalFilter`] (Table 7's
//!   thresholds) and its per-snapshot [`activity::NodeActivity`] table
//!   (idle time, recent-edge counts), which decides the filter for a
//!   given pair list and inside candidate enumeration itself.
//! * [`par`] — the shared worker pool every parallel stage runs on, with
//!   thread-count resolution (`--threads` override → `LINKLENS_THREADS` →
//!   available parallelism) and task-ordered result collection.
//! * [`sample`] — snowball (BFS) sampling at a fixed percentage from
//!   fixed seed nodes, re-applied across consecutive snapshots (§5.1).
//! * [`io`] — trace (de)serialization: the native text format plus bare
//!   timestamped edge lists, and the sectioned binary cache with streaming
//!   writers ([`io::CacheStreamWriter`]) and windowed readers
//!   ([`io::SectionedCacheReader`] behind [`io::TraceReader`]).
//! * [`stream`] — out-of-core sweeps: [`stream::StreamingSequence`] picks
//!   the sequence's boundaries and ground truth from any
//!   [`io::TraceReader`], and its [`stream::StreamingSweep`] runs the one
//!   builder over it while holding only the active delta window,
//!   bit-identical to the in-core sweep at every boundary.
//!
//! Node identifiers are dense `u32` indices assigned in arrival order; a
//! node "exists" in a snapshot iff its arrival time is at or before the
//! snapshot time. Timestamps are `u64` seconds; [`DAY`] converts to the
//! paper's day-granularity temporal features.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activity;
pub mod audit;
pub mod builder;
pub mod io;
pub mod live;
pub mod par;
pub mod sample;
pub mod sequence;
pub mod snapshot;
pub mod stats;
pub mod stream;
pub mod temporal;
pub mod traversal;

/// Dense node identifier, assigned in arrival order.
pub type NodeId = u32;

/// Timestamp in seconds since the trace epoch.
pub type Timestamp = u64;

/// One day, in trace seconds. The paper's temporal features (idle time,
/// d-day edge counts, CN time gap) are all expressed in days.
pub const DAY: Timestamp = 86_400;

/// Normalizes an undirected pair so `u <= v`. All public APIs in this
/// workspace store and compare undirected pairs in this canonical order.
#[inline]
pub fn canonical(u: NodeId, v: NodeId) -> (NodeId, NodeId) {
    if u <= v {
        (u, v)
    } else {
        (v, u)
    }
}

/// The splitmix64 finalizer: a bijection of `u64` that spreads a state's
/// bits over its output. Every seeded stream of the workspace (seed
/// picks, negative samplers, shuffles, top-k tie-break jitter, solver
/// start vectors, stream derivation) ends its step with it.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_orders_pairs() {
        assert_eq!(canonical(3, 1), (1, 3));
        assert_eq!(canonical(1, 3), (1, 3));
        assert_eq!(canonical(2, 2), (2, 2));
    }
}
