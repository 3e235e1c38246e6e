//! linklens-serve: online ingest plus bounded-latency per-user top-k
//! link-prediction serving on the batched engines.
//!
//! The server owns three moving parts:
//!
//! 1. **Ingest** — an [`osn_graph::live::LiveGraph`] behind a mutex.
//!    Edge/node events validate and append; [`Server::publish`] folds the
//!    pending delta through the offline builder's streaming merge core
//!    and installs the merged snapshot itself (no copy) in the
//!    [`store::SnapshotStore`] with one O(1) pointer swap. Readers pin
//!    versions by `Arc`-cloning, so a publish never blocks a query
//!    mid-flight and a query never blocks ingest.
//! 2. **Serving** — `workers` threads drain the bounded
//!    [`admission::Admission`] queue. Each worker pins the current
//!    [`store::Versioned`], builds the fused kernel context once for that
//!    version over the local kinds its configured metrics use, and
//!    answers queries through the targeted engine entry point
//!    ([`osn_metrics::exec::score_pairs_targeted`]) — per-source work
//!    proportional to the source's candidate neighborhood, not the
//!    snapshot. The triangle counts the Bayes kinds read are counted once
//!    per snapshot ([`Snapshot::triangle_counts`]) and shared by every
//!    worker; a server with no Bayes metric never counts them. Answers
//!    are bit-identical to the offline batch engine at the pinned version
//!    (asserted by `tests/serve_equivalence.rs`).
//! 3. **Result cache** — a sharded [`cache::ResultCache`] keyed
//!    `(version, metric, source)`. On publish, the delta's endpoints are
//!    marked in a node-indexed array, an O(delta) pass; an entry for a
//!    delta-local metric is promoted to the new version iff no endpoint
//!    lies within two hops of its source, which the entry checks by
//!    walking its own source's two-hop ball ([`cache::near_delta`]), and
//!    everything else is dropped. `get` is version-exact, so a stale
//!    answer is structurally unservable.

#![forbid(unsafe_code)]

pub mod admission;
pub mod cache;
pub mod query;
pub mod store;

use admission::{Admission, AdmissionStats, Query, QueryResult};
use cache::ResultCache;
use osn_graph::live::{IngestError, LiveGraph};
use osn_graph::snapshot::Snapshot;
use osn_graph::{NodeId, Timestamp};
use osn_metrics::fused::{FusedCtx, FusedScratch, LocalKind};
use osn_metrics::solver::SolverCache;
use osn_metrics::traits::CandidatePolicy;
use query::EnumScratch;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use store::{SnapshotStore, Versioned};

/// How long an idle worker waits in the queue before re-checking the
/// published version and the shutdown flag.
const IDLE_POLL: Duration = Duration::from_millis(5);

/// Server construction parameters.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Metric names to serve, in index order (query requests address
    /// metrics by index into this list). Every name must resolve via
    /// [`osn_metrics::metric_by_name`].
    pub metrics: Vec<String>,
    /// Scoring worker threads.
    pub workers: usize,
    /// Admission queue capacity (submits beyond this are rejected).
    pub queue_capacity: usize,
    /// Result-cache lock shards.
    pub cache_shards: usize,
    /// Top-k size every query is answered with.
    pub k: usize,
    /// Tie-break seed for top-k selection (the evaluator's seed keeps
    /// served answers comparable with offline sweeps).
    pub seed: u64,
    /// Hub-list size for `Global`-policy candidate enumeration (the
    /// offline `top_degree` parameter).
    pub top_degree: usize,
    /// Upper bound on the publish-time invalidation work: the most
    /// distinct delta endpoints a publish lets promotion check cached
    /// entries against. A delta with more endpoints flushes the result
    /// cache with no check.
    pub promote_limit: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            metrics: osn_metrics::all_metrics().iter().map(|m| m.name().to_string()).collect(),
            workers: 2,
            queue_capacity: 1024,
            cache_shards: 16,
            k: 10,
            seed: 0x11A5,
            top_degree: 64,
            promote_limit: 1 << 16,
        }
    }
}

/// A point-in-time view of the server's counters.
#[derive(Clone, Copy, Debug)]
pub struct ServeStats {
    /// Latest published snapshot version.
    pub version: u64,
    /// Nodes registered in the live trace (including unpublished ones).
    pub nodes: usize,
    /// Distinct edges accepted.
    pub edges: usize,
    /// Edges accepted but not yet published — the ingest lag.
    pub pending_edges: usize,
    /// Publications performed.
    pub publishes: u64,
    /// Result-cache entries resident.
    pub cache_entries: usize,
    /// Result-cache hits since start.
    pub cache_hits: u64,
    /// Result-cache misses since start.
    pub cache_misses: u64,
    /// Admission queue counters.
    pub admission: AdmissionStats,
}

/// What a call to [`Server::publish`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PublishOutcome {
    /// The version now current (unchanged if nothing was pending).
    pub version: u64,
    /// Edges folded in by this publish.
    pub delta_edges: usize,
    /// Whether the result cache was flushed wholesale instead of
    /// delta-invalidated (the delta's distinct endpoints exceeded
    /// `promote_limit`).
    pub flushed: bool,
}

/// Errors surfaced to callers of the query API.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// The metric index is outside the configured metric list.
    UnknownMetric,
    /// The admission queue was full or the server is shutting down.
    Rejected,
    /// The response channel closed or timed out before an answer arrived.
    NoAnswer,
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::UnknownMetric => write!(f, "unknown metric index"),
            QueryError::Rejected => write!(f, "query rejected (queue full or shutting down)"),
            QueryError::NoAnswer => write!(f, "no answer (worker gone or timeout)"),
        }
    }
}

/// The serving process: live ingest, versioned snapshot store, worker
/// pool, result cache.
pub struct Server {
    cfg: ServeConfig,
    live: Mutex<LiveGraph>,
    store: Arc<SnapshotStore>,
    cache: Arc<ResultCache>,
    admission: Arc<Admission>,
    promotable: Arc<Vec<bool>>,
    publishes: AtomicU64,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Server {
    /// Builds the server and starts its worker pool. Fails if any
    /// configured metric name does not resolve.
    pub fn start(cfg: ServeConfig) -> Result<Arc<Self>, String> {
        if cfg.metrics.is_empty() {
            return Err("ServeConfig.metrics must name at least one metric".into());
        }
        let mut promotable = Vec::with_capacity(cfg.metrics.len());
        for name in &cfg.metrics {
            let m = osn_metrics::metric_by_name(name)
                .ok_or_else(|| format!("unknown metric name {name:?}"))?;
            // Promotion across publishes is sound only for metrics whose
            // answer for a source depends solely on the source's two-hop
            // ball: the plain TwoHop-policy fused kinds CN / AA / RA
            // (witnesses at distance 1, candidates at distance 2, witness
            // degrees read at distance 1). JC reads the *target's* degree
            // one hop further out; Bayes kinds read a global normalizer;
            // ThreeHop/Global policies reach arbitrarily far.
            promotable.push(
                m.candidate_policy() == CandidatePolicy::TwoHop
                    && matches!(
                        m.fused_kind(),
                        Some(LocalKind::Cn | LocalKind::Aa | LocalKind::Ra)
                    ),
            );
        }
        let mut live = LiveGraph::new();
        // Version 0: the empty snapshot (a no-op publish hands out its `Arc`).
        let empty = live.publish();
        let initial = Versioned::derive(empty.version, empty.snapshot, cfg.top_degree);
        let server = Arc::new(Server {
            live: Mutex::new(live),
            store: Arc::new(SnapshotStore::new(initial)),
            cache: Arc::new(ResultCache::new(cfg.cache_shards)),
            admission: Arc::new(Admission::new(cfg.queue_capacity)),
            promotable: Arc::new(promotable),
            publishes: AtomicU64::new(0),
            workers: Mutex::new(Vec::new()),
            cfg,
        });
        let mut handles = Vec::with_capacity(server.cfg.workers.max(1));
        for wi in 0..server.cfg.workers.max(1) {
            let store = Arc::clone(&server.store);
            let cache = Arc::clone(&server.cache);
            let admission = Arc::clone(&server.admission);
            let cfg = server.cfg.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("linklens-serve-{wi}"))
                    .spawn(move || worker_loop(&cfg, &store, &cache, &admission))
                    .map_err(|e| format!("spawning worker {wi}: {e}"))?,
            );
        }
        *lock_workers(&server.workers) = handles;
        Ok(server)
    }

    /// Registers a node arriving at `t`; returns its dense id.
    pub fn ingest_node(&self, t: Timestamp) -> Result<NodeId, IngestError> {
        lock_live(&self.live).ingest_node(t)
    }

    /// Appends an edge event. `Ok(false)` means a silently ignored
    /// duplicate.
    pub fn ingest_edge(&self, u: NodeId, v: NodeId, t: Timestamp) -> Result<bool, IngestError> {
        lock_live(&self.live).ingest_edge(u, v, t)
    }

    /// Folds all pending ingest into a new published version, marks the
    /// delta's endpoints, invalidates the result cache for sources within
    /// two hops of one (each cached entry checks its own source, see
    /// [`cache::ResultCache::advance`]), and swaps the new snapshot in for
    /// subsequent queries. A delta with more than `promote_limit` distinct
    /// endpoints flushes the cache instead. Two publishes racing past the
    /// ingest lock may reach the swap out of order; the store keeps the
    /// newer version ([`SnapshotStore::swap`]). A late invalidation can
    /// only cost hits: `get` is version-exact, so no entry it leaves
    /// behind is served at the newer version.
    pub fn publish(&self) -> PublishOutcome {
        let (prev_version, publication) = {
            let mut live = lock_live(&self.live);
            (live.version(), live.publish())
        };
        if publication.version == prev_version {
            return PublishOutcome { version: prev_version, delta_edges: 0, flushed: false };
        }
        let next = Versioned::derive(
            publication.version,
            Arc::clone(&publication.snapshot),
            self.cfg.top_degree,
        );
        // Invalidate before swap: a worker that re-pins early sees the new
        // version only after its cache entries are consistent with it.
        // (Entries written at the *new* version by such a worker survive
        // `advance` by the version == new_version arm.)
        let endpoints =
            delta_endpoints(&publication.snapshot, &publication.delta, self.cfg.promote_limit);
        let flushed = endpoints.is_none();
        self.cache.advance(
            prev_version,
            publication.version,
            endpoints.as_deref().map(|e| (&*publication.snapshot, e)),
            &self.promotable,
        );
        self.store.swap(next);
        self.publishes.fetch_add(1, Ordering::Relaxed);
        PublishOutcome {
            version: publication.version,
            delta_edges: publication.delta.len(),
            flushed,
        }
    }

    /// Submits a query; the answer arrives on the returned channel.
    pub fn query_async(
        &self,
        metric: u32,
        source: NodeId,
    ) -> Result<Receiver<QueryResult>, QueryError> {
        if metric as usize >= self.cfg.metrics.len() {
            return Err(QueryError::UnknownMetric);
        }
        let (tx, rx) = channel();
        self.admission
            .submit(Query { metric, source, resp: tx })
            .map_err(|_| QueryError::Rejected)?;
        Ok(rx)
    }

    /// Submits a query and waits up to `timeout` for the answer.
    pub fn query_blocking(
        &self,
        metric: u32,
        source: NodeId,
        timeout: Duration,
    ) -> Result<QueryResult, QueryError> {
        let rx = self.query_async(metric, source)?;
        rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => QueryError::NoAnswer,
            RecvTimeoutError::Disconnected => QueryError::NoAnswer,
        })
    }

    /// The latest published version.
    pub fn version(&self) -> u64 {
        self.store.version()
    }

    /// Pins and returns the current published state (snapshot + derived
    /// tables). Used by equivalence tests and the serving benchmark to
    /// compute offline oracle answers at an exact version.
    pub fn current(&self) -> Arc<Versioned> {
        self.store.current()
    }

    /// The configured metric names, in query-index order.
    pub fn metric_names(&self) -> &[String] {
        &self.cfg.metrics
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> ServeStats {
        let (nodes, edges, pending_edges) = {
            let live = lock_live(&self.live);
            (live.node_count(), live.edge_count(), live.pending_edges())
        };
        let (cache_hits, cache_misses) = self.cache.counters();
        ServeStats {
            version: self.store.version(),
            nodes,
            edges,
            pending_edges,
            publishes: self.publishes.load(Ordering::Relaxed),
            cache_entries: self.cache.len(),
            cache_hits,
            cache_misses,
            admission: self.admission.stats(),
        }
    }

    /// Stops admitting queries, drains the queue, and joins the workers.
    /// Idempotent.
    pub fn shutdown(&self) {
        self.admission.close();
        let handles = std::mem::take(&mut *lock_workers(&self.workers));
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn lock_live(m: &Mutex<LiveGraph>) -> std::sync::MutexGuard<'_, LiveGraph> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn lock_workers(m: &Mutex<Vec<JoinHandle<()>>>) -> std::sync::MutexGuard<'_, Vec<JoinHandle<()>>> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Marks the delta's endpoints in a node-indexed array over `snap`, the
/// array [`cache::ResultCache::advance`] checks each cached source's
/// two-hop ball against. `None` once the delta has more than `limit`
/// distinct endpoints, signalling the caller to flush instead.
fn delta_endpoints(snap: &Snapshot, delta: &[(NodeId, NodeId)], limit: usize) -> Option<Vec<bool>> {
    let mut endpoints = vec![false; snap.node_count()];
    let mut distinct = 0usize;
    for &(u, v) in delta {
        for e in [u, v] {
            if let Some(slot @ false) = endpoints.get_mut(e as usize) {
                *slot = true;
                distinct += 1;
                if distinct > limit {
                    return None;
                }
            }
        }
    }
    Some(endpoints)
}

/// One scoring worker: pin the current version, build the fused kernel
/// context and solver state for it once, then drain queries until the
/// version moves or the server shuts down.
fn worker_loop(
    cfg: &ServeConfig,
    store: &SnapshotStore,
    cache: &ResultCache,
    admission: &Admission,
) {
    // `Box<dyn Metric>` is Sync but not Send, so each worker constructs
    // its own instances from the configured names (validated at start).
    let metrics: Vec<_> =
        cfg.metrics.iter().filter_map(|name| osn_metrics::metric_by_name(name)).collect();
    if metrics.len() != cfg.metrics.len() {
        return;
    }
    let kinds: Vec<LocalKind> = metrics.iter().filter_map(|m| m.fused_kind()).collect();
    let mut carried: Option<Query> = None;
    'repin: loop {
        let pinned = store.current();
        let snap: &Snapshot = &pinned.snapshot;
        // Per-version kernel state: one fused context over the served
        // metrics' local kinds (scoring one kind out of it is
        // bit-identical to a dedicated context; the Bayes kinds read the
        // snapshot's shared triangle counts, so only the first worker to
        // pin a version counts them), one scratch pair, and a solver cache
        // that keeps this version's Rescal fit for later misses. The cache
        // holds nothing else, so global-metric answers are bit-identical
        // to an offline solve at this snapshot.
        let ctx = FusedCtx::build(snap, &kinds);
        let mut fused_scratch = FusedScratch::new(snap.node_count());
        let mut enum_scratch = EnumScratch::new(snap.node_count());
        let mut solver = SolverCache::transient();
        loop {
            let q = match carried.take() {
                Some(q) => q,
                None => match admission.pop(IDLE_POLL) {
                    Some(q) => q,
                    None => {
                        if admission.is_drained() {
                            return;
                        }
                        if store.version() != pinned.version {
                            continue 'repin;
                        }
                        continue;
                    }
                },
            };
            // A query admitted after a publish must not be answered at
            // the pre-publish version: re-pin first, carrying the query.
            if store.version() != pinned.version {
                carried = Some(q);
                continue 'repin;
            }
            let metric = &metrics[q.metric as usize];
            if let Some(topk) = cache.get(pinned.version, q.metric, q.source) {
                let _ = q.resp.send(QueryResult { version: pinned.version, topk, cache_hit: true });
                continue;
            }
            let topk = Arc::new(query::answer_query(
                metric.as_ref(),
                snap,
                &ctx,
                &mut fused_scratch,
                &mut enum_scratch,
                &mut solver,
                &pinned.hubs,
                q.source,
                cfg.k,
                cfg.seed,
            ));
            cache.put(pinned.version, q.metric, q.source, Arc::clone(&topk));
            let _ = q.resp.send(QueryResult { version: pinned.version, topk, cache_hit: false });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> ServeConfig {
        ServeConfig {
            metrics: vec!["CN".into(), "JC".into(), "AA".into(), "PA".into()],
            workers: 2,
            queue_capacity: 64,
            cache_shards: 4,
            k: 5,
            seed: 0x11A5,
            top_degree: 8,
            promote_limit: 1 << 12,
        }
    }

    fn grow(server: &Server, n: usize) {
        server.ingest_node(0).unwrap();
        server.ingest_node(0).unwrap();
        server.ingest_edge(0, 1, 1).unwrap();
        for i in 2..n {
            let t = 10 * i as u64;
            server.ingest_node(t).unwrap();
            server.ingest_edge((i / 2) as NodeId, i as NodeId, t).unwrap();
            if i >= 3 {
                server.ingest_edge((i - 1) as NodeId, i as NodeId, t + 1).unwrap();
            }
        }
    }

    #[test]
    fn start_rejects_unknown_metric_names() {
        let cfg = ServeConfig { metrics: vec!["no_such_metric".into()], ..small_cfg() };
        assert!(Server::start(cfg).is_err());
    }

    #[test]
    fn serves_queries_and_publishes_concurrently() {
        let server = Server::start(small_cfg()).unwrap();
        grow(&server, 20);
        let out = server.publish();
        assert_eq!(out.version, 1);
        assert!(out.delta_edges > 0);
        let r = server.query_blocking(0, 4, Duration::from_secs(10)).unwrap();
        assert_eq!(r.version, 1);
        assert!(!r.cache_hit);
        assert!(!r.topk.is_empty());
        assert!(r.topk.iter().all(|&(a, b)| a == 4 || b == 4));
        // Same query again: served from cache, identical answer.
        let r2 = server.query_blocking(0, 4, Duration::from_secs(10)).unwrap();
        assert!(r2.cache_hit);
        assert_eq!(r2.topk, r.topk);
        // Ingest + publish advances the version; the next answer is
        // stamped with it.
        server.ingest_edge(0, 19, 10_000).unwrap();
        let out2 = server.publish();
        assert_eq!(out2.version, 2);
        let r3 = server.query_blocking(0, 4, Duration::from_secs(10)).unwrap();
        assert_eq!(r3.version, 2, "post-publish answers use the new version");
        let stats = server.stats();
        assert_eq!(stats.version, 2);
        assert_eq!(stats.pending_edges, 0);
        assert!(stats.cache_hits >= 1);
        server.shutdown();
    }

    #[test]
    fn unknown_metric_index_and_shutdown_reject() {
        let server = Server::start(small_cfg()).unwrap();
        grow(&server, 6);
        server.publish();
        assert_eq!(server.query_async(99, 0).err(), Some(QueryError::UnknownMetric));
        server.shutdown();
        assert_eq!(
            server.query_blocking(0, 0, Duration::from_millis(100)).err(),
            Some(QueryError::Rejected)
        );
    }

    #[test]
    fn endpoint_count_bounds_and_flush() {
        let snap = Snapshot::from_edges(7, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]);
        // Three distinct endpoints: 1, 2 and 3.
        let delta = [(1, 2), (2, 3)];
        let advance = |limit: usize| {
            let cache = ResultCache::new(2);
            cache.put(1, 0, 6, Arc::new(vec![(5, 6)])); // 3 hops from 3: promotable
            cache.put(1, 0, 0, Arc::new(vec![(0, 1)])); // 1 hop from 1: touched
            cache.put(2, 0, 4, Arc::new(vec![(3, 4)])); // already at the new version
            let endpoints = delta_endpoints(&snap, &delta, limit);
            let flushed = endpoints.is_none();
            cache.advance(1, 2, endpoints.as_deref().map(|e| (&snap, e)), &[true]);
            let kept = [6, 0, 4].map(|source| cache.get(2, 0, source).is_some());
            (flushed, kept)
        };
        assert_eq!(advance(2), (true, [false, false, true]), "a limit below 3 flushes");
        assert_eq!(advance(0), (true, [false, false, true]), "limit 0 flushes any delta");
        assert_eq!(advance(3), (false, [true, false, true]), "a limit of 3 promotes");
        assert_eq!(advance(1 << 12), (false, [true, false, true]), "a larger limit promotes");
        let marked = delta_endpoints(&snap, &delta, 3).unwrap();
        assert_eq!(marked, [false, true, true, true, false, false, false], "one flag per node");
    }

    /// The oracle for `cache::near_delta`: a two-ring BFS from every delta
    /// endpoint at once, so `ball[u]` is true for a node within two hops
    /// of an endpoint.
    fn touched_two_ball(snap: &Snapshot, delta: &[(NodeId, NodeId)]) -> Vec<bool> {
        let mut ball = vec![false; snap.node_count()];
        let mut frontier: Vec<NodeId> = Vec::new();
        for &(u, v) in delta {
            for e in [u, v] {
                if let Some(slot @ false) = ball.get_mut(e as usize) {
                    *slot = true;
                    frontier.push(e);
                }
            }
        }
        // Two BFS rings from every endpoint at once.
        for _ in 0..2 {
            let mut next: Vec<NodeId> = Vec::new();
            for &w in &frontier {
                for &x in snap.neighbors(w) {
                    if !ball[x as usize] {
                        ball[x as usize] = true;
                        next.push(x);
                    }
                }
            }
            frontier = next;
        }
        ball
    }

    #[test]
    fn promotion_check_is_membership_in_the_two_hop_ball() {
        // splitmix64: a fixed stream of random snapshots and deltas.
        let mut state = 0x5EED_u64;
        let mut draw = |bound: usize| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % bound as u64) as usize
        };
        let mut checked = [0usize; 2];
        for trial in 0..400 {
            let n = 2 + draw(40);
            let edges: Vec<(NodeId, NodeId)> = (0..1 + draw(3 * n))
                .map(|_| (draw(n) as NodeId, draw(n) as NodeId))
                .filter(|&(u, v)| u != v)
                .collect();
            if edges.is_empty() {
                continue;
            }
            let snap = Snapshot::from_edges(n, &edges);
            let keep = 1 + draw(8);
            let delta: Vec<(NodeId, NodeId)> =
                edges.iter().copied().filter(|_| draw(keep) == 0).collect();
            let ball = touched_two_ball(&snap, &delta);
            let endpoints = delta_endpoints(&snap, &delta, usize::MAX).unwrap();
            // Every node, plus one past the array (touched by convention).
            for u in 0..=n as NodeId {
                let in_ball = ball.get(u as usize) != Some(&false);
                assert_eq!(
                    cache::near_delta(&snap, &endpoints, u),
                    in_ball,
                    "trial {trial}, node {u}, delta {delta:?}"
                );
                checked[usize::from(in_ball)] += 1;
            }
        }
        assert!(checked.iter().all(|&c| c > 1000), "both outcomes exercised: {checked:?}");
    }
}
