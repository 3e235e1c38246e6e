//! The version-pinned snapshot swap between ingest and query workers.
//!
//! Ingest prepares the next [`Versioned`] entirely off to the side (the
//! streaming CSR merge, the hub list, the invalidation set) and installs
//! it with one O(1) pointer swap under a write lock, never over a newer
//! version. Query workers [`pin`](SnapshotStore::current) the current
//! version by cloning the `Arc` under a read lock — after that they hold
//! the snapshot with no lock at all, so a worker mid-query never blocks a
//! publish and a publish never invalidates what a pinned reader sees. Two
//! queries answered at the same [`Versioned::version`] saw byte-identical
//! state.

use osn_graph::snapshot::Snapshot;
use osn_graph::NodeId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// One immutable published state: the snapshot, its version, and the
/// per-version derived tables the query path needs.
#[derive(Clone, Debug)]
pub struct Versioned {
    /// Monotonic publication version ([`osn_graph::live::LiveGraph`]'s
    /// counter).
    pub version: u64,
    /// The immutable CSR at this version.
    pub snapshot: Arc<Snapshot>,
    /// The `top_degree` highest-degree nodes at this version, in the
    /// exact order [`osn_metrics::candidates::CandidateSet`]'s `Global`
    /// policy enumerates them — precomputed once per publish so `Global`
    /// queries don't re-sort the degree table.
    pub hubs: Arc<Vec<NodeId>>,
}

impl Versioned {
    /// Builds the per-version derived state for `snapshot`: the hub list
    /// is the same `sort_unstable_by_key(Reverse(degree))` prefix the
    /// offline `Global` candidate builder takes, so per-source serving
    /// enumeration cannot drift from the offline candidate set.
    pub fn derive(version: u64, snapshot: Arc<Snapshot>, top_degree: usize) -> Self {
        let n = snapshot.node_count();
        let mut by_degree: Vec<NodeId> = (0..n as NodeId).collect();
        by_degree.sort_unstable_by_key(|&u| std::cmp::Reverse(snapshot.degree(u)));
        by_degree.truncate(top_degree.min(n));
        Versioned { version, snapshot, hubs: Arc::new(by_degree) }
    }
}

/// The double-buffered swap point: readers pin versions, ingest installs
/// new ones.
#[derive(Debug)]
pub struct SnapshotStore {
    current: RwLock<Arc<Versioned>>,
    /// Mirror of `current.version` readable without the lock, so worker
    /// loops can poll for staleness between queries at zero cost.
    version: AtomicU64,
}

impl SnapshotStore {
    /// Creates a store holding `initial`.
    pub fn new(initial: Versioned) -> Self {
        let version = AtomicU64::new(initial.version);
        SnapshotStore { current: RwLock::new(Arc::new(initial)), version }
    }

    /// Pins the current version: the returned `Arc` stays valid (and
    /// immutable) for as long as the caller holds it, regardless of later
    /// publishes.
    pub fn current(&self) -> Arc<Versioned> {
        match self.current.read() {
            Ok(guard) => Arc::clone(&guard),
            Err(poisoned) => Arc::clone(&poisoned.into_inner()),
        }
    }

    /// The latest published version, lock-free.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Installs `next` as the current version unless the store already
    /// holds a newer one, so the store never moves backwards: two
    /// publishes racing to the swap leave the later version current,
    /// whichever arrives last. O(1) under the write lock — all
    /// merge/derive work happens before this call.
    pub fn swap(&self, next: Versioned) {
        let next_version = next.version;
        let mut guard = match self.current.write() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        if next_version < guard.version {
            return;
        }
        *guard = Arc::new(next);
        self.version.store(next_version, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(edges: &[(NodeId, NodeId)], n: usize) -> Arc<Snapshot> {
        Arc::new(Snapshot::from_edges(n, edges))
    }

    #[test]
    fn pinned_version_survives_swap() {
        let store = SnapshotStore::new(Versioned::derive(1, snap(&[(0, 1)], 3), 2));
        let pinned = store.current();
        store.swap(Versioned::derive(2, snap(&[(0, 1), (1, 2)], 3), 2));
        assert_eq!(pinned.version, 1);
        assert_eq!(pinned.snapshot.edge_count(), 1, "pinned snapshot unchanged");
        assert_eq!(store.version(), 2);
        assert_eq!(store.current().snapshot.edge_count(), 2);
    }

    #[test]
    fn swap_never_moves_backwards() {
        let store = SnapshotStore::new(Versioned::derive(1, snap(&[(0, 1)], 3), 2));
        store.swap(Versioned::derive(3, snap(&[(0, 1), (1, 2), (0, 2)], 3), 2));
        // A publish that lost the race to the swap arrives late.
        store.swap(Versioned::derive(2, snap(&[(0, 1), (1, 2)], 3), 2));
        assert_eq!(store.version(), 3);
        assert_eq!(store.current().version, 3);
        assert_eq!(store.current().snapshot.edge_count(), 3);
    }

    #[test]
    fn hub_list_matches_offline_degree_order() {
        // Star around node 2 plus a pendant: degrees 1,1,3,1,2.
        let s = snap(&[(0, 2), (1, 2), (2, 3), (3, 4)], 5);
        let v = Versioned::derive(1, Arc::clone(&s), 2);
        let mut by_degree: Vec<NodeId> = (0..5).collect();
        by_degree.sort_unstable_by_key(|&u| std::cmp::Reverse(s.degree(u)));
        assert_eq!(&v.hubs[..], &by_degree[..2]);
    }
}
