//! Blocked-vs-dense equivalence for the ALS factorization core: the
//! blocked fit (CSR `spmm_into_t` products, sparse residual
//! certification) must reproduce the serial dense reference in
//! `linklens_bench::oracles::rescal`
//! **bit for bit** at every thread count — the per-row CSR fold is
//! arithmetic-identical to `matmul_dense`, so no tolerance is needed —
//! and certified warm-started sweeps must agree with cold starts on
//! certification outcome across randomized monotone snapshot sequences.
//! Singular systems must surface as structured errors, never silent
//! stale-factor fits. Batched bilinear scoring must agree with the
//! per-pair model score in the same module to reassociation tolerance.

use linklens_bench::oracles;
use osn_graph::snapshot::Snapshot;
use osn_graph::NodeId;
use osn_metrics::candidates::CandidateSet;
use osn_metrics::exec;
use osn_metrics::rescal::Rescal;
use osn_metrics::solver::{bilinear_scores_t, SolverCache, SolverError};
use osn_metrics::traits::{CandidatePolicy, Metric};
use proptest::prelude::*;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Random graphs in the global_equivalence size band. Small graphs stay
/// under the kernel's parallel-row threshold (the serial fallback), so
/// the large-fixture test below covers the genuinely threaded path.
fn arb_graph() -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId)>)> {
    (8usize..=24).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32)
            .prop_filter("no loop", |(a, b)| a != b)
            .prop_map(|(a, b)| osn_graph::canonical(a, b));
        proptest::collection::vec(edge, 4..50).prop_map(move |mut e| {
            e.sort_unstable();
            e.dedup();
            (n, e)
        })
    })
}

/// A monotone snapshot sweep: a base edge set plus 2 growth batches, each
/// adding at least one new edge (distinct `(nodes, edges)` cache keys).
fn arb_sweep() -> impl Strategy<Value = (usize, Vec<Vec<(NodeId, NodeId)>>)> {
    fn edge(n: usize) -> impl Strategy<Value = (NodeId, NodeId)> {
        (0..n as u32, 0..n as u32)
            .prop_filter("no loop", |(a, b)| a != b)
            .prop_map(|(a, b)| osn_graph::canonical(a, b))
    }
    (10usize..=20).prop_flat_map(|n| {
        (
            proptest::collection::vec(edge(n), 6..30),
            proptest::collection::vec(proptest::collection::vec(edge(n), 1..8), 2..=2),
        )
            .prop_map(move |(base, extras)| {
                let mut snapshots = Vec::new();
                let mut acc = base;
                acc.sort_unstable();
                acc.dedup();
                snapshots.push(acc.clone());
                for batch in extras {
                    acc.extend(batch);
                    acc.sort_unstable();
                    acc.dedup();
                    if acc.len() > snapshots.last().unwrap().len() {
                        snapshots.push(acc.clone());
                    }
                }
                (n, snapshots)
            })
    })
}

fn candidate_pairs(snap: &Snapshot) -> Vec<(NodeId, NodeId)> {
    CandidateSet::build(snap, CandidatePolicy::ThreeHop, 0).pairs().to_vec()
}

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
        assert_eq!(dense.residual, blocked.residual);
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
    /// bit — factors and certified residual — at every thread count, in
    /// both fixed-sweep and certified early-stop mode.
    #[test]
    fn blocked_fit_equals_dense_reference_bit_identical((n, edges) in arb_graph()) {
        let snap = Snapshot::from_edges(n, &edges);
        let fixed = Rescal::default();
        let certified = Rescal { iterations: 500, tol: 1e-6, ..Default::default() };
        for rescal in [&fixed, &certified] {
            let dense = oracles::rescal::fit_dense(rescal, &snap).expect("dense reference fit");
            for threads in THREADS {
                let blocked = rescal.fit_t(&snap, threads).expect("blocked fit");
                prop_assert_eq!(
                    dense.x.max_abs_diff(&blocked.x), 0.0,
                    "X diverged (tol={}) at {} threads", rescal.tol, threads
                );
                prop_assert_eq!(
                    dense.r.max_abs_diff(&blocked.r), 0.0,
                    "R diverged (tol={}) at {} threads", rescal.tol, threads
                );
                prop_assert_eq!(dense.residual, blocked.residual);
                prop_assert_eq!(dense.iterations, blocked.iterations);
            }
        }
    }

    /// The engine entry points (whole-batch dispatch, transient or fresh
    /// sweep cache) are pure plumbing around the same fit: every path
    /// must reproduce the direct scoring bit for bit at every thread
    /// count, and a persistent cache must fit exactly once per snapshot.
    #[test]
    fn engine_paths_match_direct_scoring((n, edges) in arb_graph()) {
        let snap = Snapshot::from_edges(n, &edges);
        let pairs = candidate_pairs(&snap);
        prop_assume!(!pairs.is_empty());
        let rescal = Rescal::default();
        let base = rescal.score_pairs_cached(&snap, &pairs, 1, &mut SolverCache::transient());
        for threads in THREADS {
            let engine = exec::score_pairs_t(&rescal, &snap, &pairs, threads);
            prop_assert_eq!(&engine, &base, "engine diverged at {} threads", threads);
            let mut cache = SolverCache::sweep();
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

    /// Certified warm starts across a randomized monotone snapshot
    /// sweep: with one persistent cache the fit must (a) actually
    /// warm-start from the second snapshot on, and (b) certify a
    /// residual in the same plateau band as an independent cold fit.
    /// Warm-starting changes the ALS trajectory, so neither factors nor
    /// sweep counts are pinned — on adversarial random growth a warm
    /// start can even take *longer* to re-plateau than a cold one — but
    /// the residual certification must agree. Iteration savings on
    /// realistic growth traces are measured by scalecheck, not asserted
    /// here.
    #[test]
    fn certified_warm_starts_match_cold_across_sweep((n, snapshots) in arb_sweep()) {
        prop_assume!(snapshots.len() >= 2);
        let rescal = Rescal { iterations: 500, tol: 1e-6, ..Default::default() };
        let first = Snapshot::from_edges(n, &snapshots[0]);
        let pairs = candidate_pairs(&first);
        prop_assume!(!pairs.is_empty());

        let mut warm_cache = SolverCache::sweep();
        let mut cold_iters = 0u64;
        let mut prev_cold = None;
        for edges in &snapshots {
            let snap = Snapshot::from_edges(n, edges);
            let warm = exec::score_matrix_cached_t(&[&rescal], &snap, &pairs, 2, &mut warm_cache).remove(0);
            prop_assert!(warm.iter().all(|s| s.is_finite()));
            let cold = rescal.fit_t(&snap, 2).expect("cold fit");
            cold_iters += cold.iterations as u64;
            // Both paths certified a plateau on the same snapshot; their
            // residuals must sit in the same band (factor 2 is generous —
            // ALS from different starts can land on different local
            // plateaus, but not wildly different ones on these graphs).
            if let Some(prev) = &prev_cold {
                let seeded: &osn_metrics::rescal::RescalModel = prev;
                let wm = rescal
                    .fit_warm_t(&snap, Some((&seeded.x, &seeded.r)), 2)
                    .expect("warm fit");
                prop_assert!(wm.warm_started);
                prop_assert!(
                    wm.residual <= cold.residual * 2.0 + 1e-9
                        && cold.residual <= wm.residual * 2.0 + 1e-9,
                    "warm/cold certified residuals diverged: {} vs {}",
                    wm.residual, cold.residual
                );
            }
            prev_cold = Some(cold);
        }
        prop_assert!(
            warm_cache.stats.rescal_warm_starts > 0,
            "persistent cache never warm-started across {} snapshots",
            snapshots.len()
        );
        prop_assert!(warm_cache.stats.rescal_iterations > 0);
        prop_assert!(cold_iters > 0);
    }
}
