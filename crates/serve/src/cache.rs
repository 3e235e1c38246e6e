//! The sharded per-user result cache with delta-targeted invalidation.
//!
//! Entries are keyed `(metric, source)` and stamped with the snapshot
//! version they were computed at; [`ResultCache::get`] only returns an
//! entry whose stamp equals the requested version, so a stale answer is
//! structurally unservable. On publish, [`ResultCache::advance`] walks
//! every shard once and either *promotes* an entry to the new version or
//! drops it:
//!
//! * promotion is allowed only for metrics the server marked
//!   delta-local (CN / AA / RA: score and candidate set of a source `u`
//!   depend only on `u`'s two-hop ball — witnesses sit at distance 1,
//!   candidates at distance 2, and witness degrees are read at distance
//!   1), and only when no delta endpoint landed within two hops of the
//!   source. Each entry checks its own source ([`near_delta`]): it walks
//!   the source's two-hop ball in the new snapshot, at most what the
//!   entry's own answer walked, and stops at the first endpoint;
//! * everything else (JC reads the *target's* degree one hop further
//!   out; Bayes metrics read a global normalizer; ThreeHop / Global
//!   policies read arbitrarily far) is dropped on every publish.
//!
//! Sharding keeps publish-time invalidation and query-time lookups from
//! serializing on one lock; each shard's mutex is held only for the
//! duration of one `HashMap` operation, never across scoring.

use osn_graph::snapshot::Snapshot;
use osn_graph::NodeId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// A served top-k list stamped with the version it was computed at.
#[derive(Clone, Debug)]
struct Entry {
    version: u64,
    topk: Arc<Vec<(NodeId, NodeId)>>,
}

/// Sharded `(metric, source) -> top-k` cache.
#[derive(Debug)]
pub struct ResultCache {
    shards: Vec<Mutex<HashMap<(u32, NodeId), Entry>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ResultCache {
    /// Creates a cache with `shards` lock shards (clamped to at least 1).
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        ResultCache {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, metric: u32, source: NodeId) -> MutexGuard<'_, HashMap<(u32, NodeId), Entry>> {
        // The splitmix64 finalizer over the packed key: cheap, and spreads
        // consecutive node ids across shards.
        let idx =
            osn_graph::mix64(((metric as u64) << 32) | source as u64) as usize % self.shards.len();
        match self.shards[idx].lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Returns the cached top-k for `(metric, source)` iff it was
    /// computed at exactly `version`.
    pub fn get(
        &self,
        version: u64,
        metric: u32,
        source: NodeId,
    ) -> Option<Arc<Vec<(NodeId, NodeId)>>> {
        let guard = self.shard(metric, source);
        let hit = guard
            .get(&(metric, source))
            .filter(|e| e.version == version)
            .map(|e| Arc::clone(&e.topk));
        drop(guard);
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Stores a freshly computed answer. An entry from an older version
    /// is overwritten; an entry from a newer version is kept (a late
    /// writer pinned to an old version must not clobber current state).
    pub fn put(&self, version: u64, metric: u32, source: NodeId, topk: Arc<Vec<(NodeId, NodeId)>>) {
        let mut guard = self.shard(metric, source);
        let slot = guard
            .entry((metric, source))
            .or_insert_with(|| Entry { version, topk: Arc::clone(&topk) });
        if slot.version <= version {
            *slot = Entry { version, topk };
        }
    }

    /// Publish-time invalidation: promotes every entry that provably
    /// still holds at `new_version`, drops the rest.
    ///
    /// `prev_version` is the version the promoted entries were computed
    /// at; `delta` is the new snapshot with the delta's endpoints marked
    /// in a node-indexed array over it (see [`near_delta`]);
    /// `promotable[metric]` marks the delta-local metrics (see the module
    /// docs). An entry is promoted iff its metric is promotable, it was
    /// computed at `prev_version`, and no endpoint lies within two hops of
    /// its source. Passing `delta = None` flushes everything except
    /// same-`new_version` entries (used when the delta has more endpoints
    /// than the server lets promotion check).
    pub fn advance(
        &self,
        prev_version: u64,
        new_version: u64,
        delta: Option<(&Snapshot, &[bool])>,
        promotable: &[bool],
    ) {
        for shard in &self.shards {
            let mut guard = match shard.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            guard.retain(|&(metric, source), entry| {
                if entry.version == new_version {
                    return true;
                }
                let Some((snap, endpoints)) = delta else { return false };
                let promotable = promotable.get(metric as usize).copied().unwrap_or(false);
                if promotable
                    && entry.version == prev_version
                    && !near_delta(snap, endpoints, source)
                {
                    entry.version = new_version;
                    true
                } else {
                    false
                }
            });
        }
    }

    /// Total entries across shards (test / stats visibility).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| match s.lock() {
                Ok(guard) => guard.len(),
                Err(poisoned) => poisoned.into_inner().len(),
            })
            .sum()
    }

    /// True when no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative (hits, misses) counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }
}

/// True when a node marked in `endpoints` lies within two hops of
/// `source` in `snap`. It looks at the source, then its neighbours, then
/// theirs, and stops at the first marked node. `endpoints` is indexed by
/// node over `snap`; a node outside it, the source included, counts as
/// marked, so a source the array does not cover is never promoted. In an
/// undirected graph this is exactly membership in the endpoints' two-hop
/// ball.
pub fn near_delta(snap: &Snapshot, endpoints: &[bool], source: NodeId) -> bool {
    let marked = |u: NodeId| endpoints.get(u as usize) != Some(&false);
    if marked(source) {
        return true;
    }
    let ring1 = snap.neighbors(source);
    ring1.iter().any(|&w| marked(w))
        || ring1.iter().any(|&w| snap.neighbors(w).iter().any(|&x| marked(x)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topk(v: NodeId) -> Arc<Vec<(NodeId, NodeId)>> {
        Arc::new(vec![(0, v)])
    }

    #[test]
    fn get_is_version_exact() {
        let c = ResultCache::new(4);
        c.put(3, 0, 7, topk(1));
        assert!(c.get(3, 0, 7).is_some());
        assert!(c.get(4, 0, 7).is_none(), "newer version must miss");
        assert!(c.get(2, 0, 7).is_none(), "older version must miss");
        let (hits, misses) = c.counters();
        assert_eq!((hits, misses), (1, 2));
    }

    #[test]
    fn advance_promotes_untouched_local_entries_only() {
        // Path 5-0-1-2-6 plus the edge 3-4; the delta (2, 6) marks 2 and 6.
        let snap = Snapshot::from_edges(7, &[(5, 0), (0, 1), (1, 2), (2, 6), (3, 4)]);
        let mut endpoints = vec![false; 7];
        endpoints[2] = true;
        endpoints[6] = true;
        let c = ResultCache::new(2);
        c.put(1, 0, 5, topk(1)); // promotable metric, untouched source (3 hops)
        c.put(1, 0, 6, topk(2)); // promotable metric, touched source
        c.put(1, 0, 0, topk(5)); // promotable metric, source two hops from 2
        c.put(1, 1, 5, topk(3)); // non-promotable metric
        c.put(1, 0, 7, topk(4)); // promotable metric, source outside the array
        c.advance(1, 2, Some((&snap, &endpoints)), &[true, false]);
        assert!(c.get(2, 0, 5).is_some(), "untouched local entry promoted");
        assert!(c.get(2, 0, 6).is_none(), "touched source dropped");
        assert!(c.get(2, 0, 0).is_none(), "source with an endpoint two hops out dropped");
        assert!(c.get(2, 1, 5).is_none(), "non-local metric dropped");
        assert!(c.get(2, 0, 7).is_none(), "source outside the array dropped, not promoted");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn advance_none_flushes_and_stale_writer_cannot_clobber() {
        let c = ResultCache::new(1);
        c.put(1, 0, 9, topk(1));
        c.advance(1, 2, None, &[true]);
        assert!(c.is_empty(), "flush drops promotable entries too");
        c.put(2, 0, 9, topk(2));
        c.put(1, 0, 9, topk(3)); // late writer pinned to version 1
        assert_eq!(c.get(2, 0, 9).map(|t| t[0].1), Some(2), "newer entry kept");
    }
}
