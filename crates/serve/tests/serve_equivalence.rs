//! The serving guarantees, asserted end to end against the offline
//! pipeline:
//!
//! 1. Snapshots advanced through streaming ingest are **identical**
//!    (full CSR equality, not just a digest) to the offline
//!    [`SnapshotBuilder`] at the same prefix, at every published
//!    version, for worker counts 1, 2, and 4.
//! 2. The result cache never serves a stale answer: after every
//!    ingest+publish round, every served top-k — cache hit or not — is
//!    bit-identical to a fresh offline compute (candidate set + batch
//!    engine + seeded top-k) at the server's current snapshot, for every
//!    configured metric. The offline side scores a clone of that
//!    snapshot, whose memo starts empty, so it derives its own factors
//!    and tables instead of reading the ones the workers built. This exercises promotion (CN/AA/RA entries
//!    outside the delta's two-hop ball survive publishes) as well as
//!    invalidation.

use linklens_serve::{ServeConfig, Server};
use osn_graph::builder::SnapshotBuilder;
use osn_graph::snapshot::Snapshot;
use osn_graph::temporal::TemporalGraph;
use osn_graph::NodeId;
use osn_metrics::candidates::CandidateSet;
use osn_metrics::exec;
use osn_metrics::topk;
use osn_trace::config::TraceConfig;
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 0x11A5;
const TIMEOUT: Duration = Duration::from_secs(60);

fn test_trace() -> TemporalGraph {
    TraceConfig::renren_like().scaled(0.02).with_days(25).generate(7)
}

/// Replays `trace` into `server`, publishing every `batch` edges, and
/// calls `at_publish` with the server right after each publish.
fn replay_with(
    server: &Arc<Server>,
    trace: &TemporalGraph,
    batch: usize,
    mut at_publish: impl FnMut(&Arc<Server>),
) {
    let mut next_node = 0usize;
    let arrivals = trace.arrivals();
    let mut since = 0usize;
    for e in trace.edges() {
        while next_node < arrivals.len() && arrivals[next_node] <= e.t {
            server.ingest_node(arrivals[next_node]).unwrap();
            next_node += 1;
        }
        server.ingest_edge(e.u, e.v, e.t).unwrap();
        since += 1;
        if since >= batch {
            server.publish();
            since = 0;
            at_publish(server);
        }
    }
    while next_node < arrivals.len() {
        server.ingest_node(arrivals[next_node]).unwrap();
        next_node += 1;
    }
    server.publish();
    at_publish(server);
}

#[test]
fn streamed_snapshots_match_offline_builder_across_worker_counts() {
    let trace = test_trace();
    for workers in [1usize, 2, 4] {
        osn_graph::par::set_thread_override(Some(workers));
        let cfg = ServeConfig { metrics: vec!["CN".into()], workers, ..ServeConfig::default() };
        let server = Server::start(cfg).unwrap();
        let mut offline = SnapshotBuilder::new(&trace);
        let mut published = 0usize;
        replay_with(&server, &trace, 31, |server| {
            let pinned = server.current();
            let oracle = offline.advance_to(pinned.snapshot.prefix_len()).unwrap();
            assert_eq!(
                &*pinned.snapshot, oracle,
                "version {} diverged from the offline builder (workers={workers})",
                pinned.version
            );
            published += 1;
        });
        assert!(published > 10, "expected many publications, got {published}");
        let last = server.current();
        assert_eq!(
            last.snapshot.prefix_len(),
            trace.edge_count(),
            "final publish covers the trace"
        );
        server.shutdown();
        osn_graph::par::set_thread_override(None);
    }
}

/// Offline oracle for one `(metric, source)` at `snap`: the full
/// candidate set filtered to the source, scored by the batch engine,
/// selected with the evaluator's seeded top-k.
fn oracle_topk(
    metric_name: &str,
    snap: &Snapshot,
    top_degree: usize,
    source: NodeId,
    k: usize,
) -> Vec<(NodeId, NodeId)> {
    let m = osn_metrics::metric_by_name(metric_name).unwrap();
    let pairs: Vec<(NodeId, NodeId)> = CandidateSet::build(snap, m.candidate_policy(), top_degree)
        .pairs()
        .iter()
        .copied()
        .filter(|&(a, b)| a == source || b == source)
        .collect();
    let scores = exec::score_pairs_t(m.as_ref(), snap, &pairs, 1);
    topk::top_k_pairs(&pairs, &scores, k, SEED)
}

#[test]
fn served_topk_is_never_stale_across_ingest_rounds() {
    let every: Vec<String> =
        osn_metrics::all_metrics().iter().map(|m| m.name().to_string()).collect();
    let every: Vec<&str> = every.iter().map(String::as_str).collect();
    // Every metric; the benchmark's fused local six, whose workers build a
    // context for those kinds only; and the walk and path metrics, which
    // have no fused kind, so their workers build an empty context.
    for metrics in [&every[..], &["CN", "JC", "AA", "RA", "PA", "BCN"], &["LP", "LRW", "PPR"]] {
        served_topk_is_never_stale(metrics);
    }
}

/// Serves `metrics` while the test trace is ingested in rounds, and holds
/// every answer to the fresh offline compute at the server's current
/// snapshot after each publish.
fn served_topk_is_never_stale(metrics: &[&str]) {
    let trace = test_trace();
    let cfg = ServeConfig {
        metrics: metrics.iter().map(|m| m.to_string()).collect(),
        workers: 2,
        k: 8,
        top_degree: 16,
        ..ServeConfig::default()
    };
    let k = cfg.k;
    let top_degree = cfg.top_degree;
    let server = Server::start(cfg).unwrap();

    // Check a fixed probe set every round: answers must always equal the
    // fresh offline compute at the server's current snapshot, whether
    // they came from the cache (hit), from promotion, or fresh.
    let probes: &[NodeId] = &[0, 1, 5, 17, 40];
    let mut rounds = 0usize;
    replay_with(&server, &trace, 150, |server| {
        rounds += 1;
        let pinned = server.current();
        let offline = (*pinned.snapshot).clone();
        for (mi, &name) in metrics.iter().enumerate() {
            for &source in probes {
                let r = server.query_blocking(mi as u32, source, TIMEOUT).unwrap();
                assert_eq!(
                    r.version, pinned.version,
                    "{name} answer stamped with a version other than the current one"
                );
                let oracle = oracle_topk(name, &offline, top_degree, source, k);
                assert_eq!(
                    *r.topk, oracle,
                    "{name} source {source} at version {}: served != fresh offline compute \
                     (hit={}, served {metrics:?})",
                    r.version, r.cache_hit
                );
            }
        }
    });
    assert!(rounds >= 3, "expected several ingest rounds, got {rounds}");
    server.shutdown();
}

/// Two disconnected communities pin the promotion path deterministically:
/// a delta confined to community B leaves community A outside its two-hop
/// ball, so A's CN entries must survive the publish as cache hits — and
/// still match the offline oracle at the *new* version — while entries
/// for B sources and for non-promotable metrics must be recomputed.
#[test]
fn promotion_serves_hits_that_match_fresh_compute() {
    // Community A: nodes 0..5 (triangle + tail), community B: nodes 5..10.
    let cfg = ServeConfig {
        metrics: vec!["CN".into(), "JC".into()],
        workers: 1,
        k: 4,
        ..ServeConfig::default()
    };
    let top_degree = cfg.top_degree;
    let server = Server::start(cfg).unwrap();
    for _ in 0..10 {
        server.ingest_node(0).unwrap();
    }
    for (i, &(u, v)) in
        [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (5, 6), (6, 7), (5, 7), (7, 8), (8, 9)]
            .iter()
            .enumerate()
    {
        server.ingest_edge(u, v, i as u64 + 1).unwrap();
    }
    server.publish();
    let warm = server.query_blocking(0, 0, TIMEOUT).unwrap();
    assert!(!warm.cache_hit);
    let warm_jc = server.query_blocking(1, 0, TIMEOUT).unwrap();
    let b_side = server.query_blocking(0, 9, TIMEOUT).unwrap();
    assert!(!b_side.cache_hit);

    // Delta entirely inside community B: two-hop ball of {6, 9} never
    // reaches community A.
    server.ingest_edge(6, 9, 100).unwrap();
    let out = server.publish();
    assert!(!out.flushed, "small delta must not flush the cache");
    let pinned = server.current();

    let promoted = server.query_blocking(0, 0, TIMEOUT).unwrap();
    assert!(promoted.cache_hit, "untouched CN entry must be promoted, not recomputed");
    assert_eq!(promoted.version, pinned.version);
    assert_eq!(*promoted.topk, oracle_topk("CN", &pinned.snapshot, top_degree, 0, 4));
    assert_eq!(promoted.topk, warm.topk);

    let recomputed = server.query_blocking(0, 9, TIMEOUT).unwrap();
    assert!(!recomputed.cache_hit, "touched source must be recomputed");
    assert_eq!(*recomputed.topk, oracle_topk("CN", &pinned.snapshot, top_degree, 9, 4));

    let jc = server.query_blocking(1, 0, TIMEOUT).unwrap();
    assert!(!jc.cache_hit, "JC is not delta-local; its entries drop on every publish");
    assert_eq!(*jc.topk, oracle_topk("JC", &pinned.snapshot, top_degree, 0, 4));
    drop(warm_jc);
    server.shutdown();
}
