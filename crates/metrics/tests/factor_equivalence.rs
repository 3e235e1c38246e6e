//! Blocked-vs-serial equivalence for the ALS factorization core: the
//! blocked fit (`spmm_into_t` products) must reproduce the serial
//! reference in `linklens_bench::oracles::rescal` **bit for bit** at
//! every thread count — the blocked row fold is arithmetic-identical to
//! the reference's serial one, so no tolerance is needed — and one cache
//! reused across randomized monotone snapshot sequences must score every
//! snapshot bit for bit as a fresh cache does.
//! Singular systems must surface as structured errors, never silent
//! stale-factor fits. Batched bilinear scoring must agree with the
//! per-pair model score in the same module to reassociation tolerance.

mod common;

use common::harness::bits;
use common::{arb_graph, arb_sweep, candidate_pairs};
use linklens_bench::oracles;
use osn_graph::snapshot::Snapshot;
use osn_graph::NodeId;
use osn_metrics::exec;
use osn_metrics::rescal::Rescal;
use osn_metrics::solver::{bilinear_scores_t, SolverCache, SolverError};
use osn_metrics::traits::Metric;
use proptest::prelude::*;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// A deterministic graph large enough to cross the CSR kernel's
/// parallel-row threshold (256 rows) and the residual reduction's
/// 1024-row chunking, so the blocked fit genuinely runs multi-block.
fn big_ring_with_chords() -> Snapshot {
    let n = 1500usize;
    let mut edges = Vec::new();
    for i in 0..n {
        edges.push((i as NodeId, ((i + 1) % n) as NodeId));
        if i % 3 == 0 {
            edges.push((i as NodeId, ((i + n / 2) % n) as NodeId));
        }
        if i % 97 == 0 && i != 0 {
            // A few hubs so the factorization has supernode structure.
            edges.push((0, i as NodeId));
        }
    }
    Snapshot::from_edges(n, &edges)
}

#[test]
fn blocked_fit_bit_identical_above_parallel_threshold() {
    let snap = big_ring_with_chords();
    let rescal = Rescal { iterations: 8, ..Default::default() };
    let dense = oracles::rescal::fit_dense(&rescal, &snap).expect("dense reference fit");
    for threads in THREADS {
        let blocked = rescal.fit_t(&snap, threads).expect("blocked fit");
        assert_eq!(
            dense.x.max_abs_diff(&blocked.x),
            0.0,
            "X diverged from dense reference at {threads} threads"
        );
        assert_eq!(
            dense.r.max_abs_diff(&blocked.r),
            0.0,
            "R diverged from dense reference at {threads} threads"
        );
    }
}

/// Two 4-cliques sharing no edge, bridged 3-4.
fn two_cliques() -> Snapshot {
    let mut edges = Vec::new();
    for a in 0..4u32 {
        for b in a + 1..4 {
            edges.push((a, b));
        }
    }
    for a in 4..8u32 {
        for b in a + 1..8 {
            edges.push((a, b));
        }
    }
    edges.push((3, 4));
    Snapshot::from_edges(8, &edges)
}

#[test]
fn scores_symmetric() {
    let model = Rescal::default().fit(&two_cliques()).expect("fit");
    let score = |u, v| oracles::rescal::model_score(&model, u, v);
    assert!((score(0, 5) - score(5, 0)).abs() < 1e-12);
}

#[test]
fn batched_path_matches_per_pair_oracle() {
    let s = two_cliques();
    let r = Rescal { rank: 4, ..Default::default() };
    let model = r.fit(&s).expect("fit");
    let pairs: Vec<(NodeId, NodeId)> = vec![(0, 2), (0, 7), (3, 4), (1, 6)];
    let batched = exec::score_pairs_t(&r, &s, &pairs, 1);
    assert_eq!(
        batched,
        exec::score_pairs_t(&r, &s, &pairs, 3),
        "engine must not depend on workers"
    );
    for (i, &(u, v)) in pairs.iter().enumerate() {
        let oracle = oracles::rescal::model_score(&model, u, v);
        assert!(
            (batched[i] - oracle).abs() <= 1e-9,
            "pair ({u},{v}): batched {} vs oracle {oracle}",
            batched[i]
        );
    }
}

#[test]
fn bilinear_scores_match_model_oracle_at_every_thread_count() {
    // A 24-node ring with a chord from every third node across the ring.
    let n = 24;
    let mut edges = Vec::new();
    for i in 0..n {
        edges.push((i as NodeId, ((i + 1) % n) as NodeId));
        if i % 3 == 0 {
            edges.push((i as NodeId, ((i + n / 2) % n) as NodeId));
        }
    }
    let snap = Snapshot::from_edges(n, &edges);
    let model = Rescal { rank: 4, ..Default::default() }.fit(&snap).expect("fit");
    let pairs: Vec<(NodeId, NodeId)> =
        (0..n as NodeId).flat_map(|u| (u + 1..n as NodeId).map(move |v| (u, v))).collect();
    let base = bilinear_scores_t(&model.x, &model.r, &pairs, 1);
    for (i, &(u, v)) in pairs.iter().enumerate() {
        let oracle = oracles::rescal::model_score(&model, u, v);
        assert!(
            (base[i] - oracle).abs() <= 1e-9 * oracle.abs().max(1.0),
            "pair ({u},{v}): batched {} vs oracle {oracle}",
            base[i]
        );
    }
    for threads in [2usize, 4, 8] {
        assert_eq!(
            bilinear_scores_t(&model.x, &model.r, &pairs, threads),
            base,
            "bilinear scoring diverged at {threads} threads"
        );
    }
}

#[test]
fn singular_system_recovery_is_deterministic() {
    // Rank-deficient snapshot: one edge among four nodes at rank 3 with
    // no ridge. The first X update collapses the embedding to rank ≤ 1,
    // so the unregularized R normal equations are singular. This used to
    // be a silent `solve_many == None` skip; now both fit paths must
    // return the same structured error, deterministically.
    let snap = Snapshot::from_edges(4, &[(0, 1)]);
    let bad = Rescal { rank: 3, iterations: 5, lambda: 0.0, ..Default::default() };
    let blocked = bad.fit(&snap).expect_err("blocked fit must surface the singular system");
    let dense = oracles::rescal::fit_dense(&bad, &snap)
        .expect_err("dense fit must surface the singular system");
    assert_eq!(blocked, dense, "both paths must report the identical structured error");
    assert!(matches!(blocked, SolverError::Singular { metric: "Rescal", .. }), "got {blocked:?}");
    // Recovery: the same system with any positive ridge fits cleanly and
    // both paths still agree bit for bit.
    let good = Rescal { lambda: 0.01, ..bad };
    let b = good.fit(&snap).expect("regularized blocked fit");
    let d = oracles::rescal::fit_dense(&good, &snap).expect("regularized dense fit");
    assert_eq!(b.x.max_abs_diff(&d.x), 0.0);
    assert_eq!(b.r.max_abs_diff(&d.r), 0.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The blocked ALS fit must equal the serial dense reference bit for
    /// bit at every thread count.
    #[test]
    fn blocked_fit_equals_dense_reference_bit_identical((n, edges) in arb_graph(8..=24, 4..50)) {
        let snap = Snapshot::from_edges(n, &edges);
        let rescal = Rescal::default();
        let dense = oracles::rescal::fit_dense(&rescal, &snap).expect("dense reference fit");
        for threads in THREADS {
            let blocked = rescal.fit_t(&snap, threads).expect("blocked fit");
            prop_assert_eq!(dense.x.max_abs_diff(&blocked.x), 0.0, "X diverged at {} threads", threads);
            prop_assert_eq!(dense.r.max_abs_diff(&blocked.r), 0.0, "R diverged at {} threads", threads);
        }
    }

    /// The engine entry points (whole-batch dispatch, a caller's cache)
    /// are pure plumbing around the same fit: every path must reproduce
    /// the direct scoring bit for bit at every thread count, and a cache
    /// must fit exactly once per snapshot.
    #[test]
    fn engine_paths_match_direct_scoring((n, edges) in arb_graph(8..=24, 4..50)) {
        let snap = Snapshot::from_edges(n, &edges);
        let pairs = candidate_pairs(&snap);
        prop_assume!(!pairs.is_empty());
        let rescal = Rescal::default();
        let base = rescal.score_pairs_cached(&snap, &pairs, 1, &mut SolverCache::transient());
        for threads in THREADS {
            let engine = exec::score_pairs_t(&rescal, &snap, &pairs, threads);
            prop_assert_eq!(&engine, &base, "engine diverged at {} threads", threads);
            let mut cache = SolverCache::transient();
            let cached = exec::score_matrix_cached_t(&[&rescal], &snap, &pairs, threads, &mut cache).remove(0);
            prop_assert_eq!(&cached, &base, "cached path diverged at {} threads", threads);
            prop_assert_eq!(cache.stats.rescal_fits, 1);
            // Re-scoring the same snapshot must reuse the registered
            // model: no second fit, bit-identical scores.
            let again = exec::score_matrix_cached_t(&[&rescal], &snap, &pairs, threads, &mut cache).remove(0);
            prop_assert_eq!(&again, &base, "model reuse diverged at {} threads", threads);
            prop_assert_eq!(cache.stats.rescal_fits, 1, "cached model was refit");
        }
    }

    /// One cache reused across a randomized monotone snapshot sweep
    /// scores Rescal on every snapshot bit for bit as a fresh cache does:
    /// every fit starts from the seeded init and runs the fixed sweep
    /// count, and the model the cache keeps is keyed on the content of
    /// the snapshot it was fitted on.
    #[test]
    fn reused_cache_scores_rescal_as_a_fresh_one_across_sweep((n, snapshots) in arb_sweep()) {
        prop_assume!(snapshots.len() >= 2);
        let rescal = Rescal::default();
        let first = Snapshot::from_edges(n, &snapshots[0]);
        let pairs = candidate_pairs(&first);
        prop_assume!(!pairs.is_empty());

        let mut reused = SolverCache::transient();
        for edges in &snapshots {
            let snap = Snapshot::from_edges(n, edges);
            let again = exec::score_matrix_cached_t(&[&rescal], &snap, &pairs, 2, &mut reused).remove(0);
            let once = exec::score_matrix_cached_t(&[&rescal], &snap, &pairs, 2, &mut SolverCache::transient()).remove(0);
            prop_assert_eq!(bits(&again), bits(&once));
        }
    }
}
