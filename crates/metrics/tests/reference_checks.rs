//! Randomized reference checks: the approximate metric implementations
//! (Katz-lr, Katz-sc, PPR, LRW) against brute-force/dense computations on
//! small random graphs.

use osn_graph::snapshot::Snapshot;
use osn_graph::NodeId;
use osn_metrics::katz::{exact_katz_truncated, KatzLr, KatzSc};
use osn_metrics::traits::Metric;
use osn_metrics::walk::LocalRandomWalk;
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId)>)> {
    (5usize..=12).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32)
            .prop_filter("no loop", |(a, b)| a != b)
            .prop_map(|(a, b)| osn_graph::canonical(a, b));
        proptest::collection::vec(edge, 2..25).prop_map(move |mut e| {
            e.sort_unstable();
            e.dedup();
            (n, e)
        })
    })
}

fn unconnected_pairs(snap: &Snapshot) -> Vec<(NodeId, NodeId)> {
    let n = snap.node_count() as NodeId;
    let mut out = Vec::new();
    for u in 0..n {
        for v in u + 1..n {
            if !snap.has_edge(u, v) {
                out.push((u, v));
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn katz_lr_small_graphs_are_exact((n, edges) in arb_graph()) {
        // For n ≤ 256 KatzLr takes the dense-eigen path: full rank must be
        // numerically exact against (I − βA)⁻¹ − I truncated to many terms.
        let snap = Snapshot::from_edges(n, &edges);
        let pairs = unconnected_pairs(&snap);
        prop_assume!(!pairs.is_empty());
        let beta = 0.05;
        let lr = KatzLr { beta, rank: n, max_iter: 50, seed: 2 };
        let got = lr.score_pairs(&snap, &pairs);
        // 30 series terms converge far below tolerance for βλ ≤ 0.6.
        let reference = exact_katz_truncated(&snap, beta, 30);
        for (i, &(u, v)) in pairs.iter().enumerate() {
            let want = reference[(u as usize, v as usize)];
            prop_assert!((got[i] - want).abs() < 1e-6,
                "pair {:?}: got {} want {}", (u, v), got[i], want);
        }
    }

    #[test]
    fn katz_sc_full_landmarks_match_series((n, edges) in arb_graph()) {
        let snap = Snapshot::from_edges(n, &edges);
        let pairs = unconnected_pairs(&snap);
        prop_assume!(!pairs.is_empty());
        let beta = 0.05;
        let terms = 4;
        let sc = KatzSc { beta, landmarks: n, series_terms: terms, ridge: 1e-12 };
        let got = sc.score_pairs(&snap, &pairs);
        let reference = exact_katz_truncated(&snap, beta, terms);
        for (i, &(u, v)) in pairs.iter().enumerate() {
            let want = reference[(u as usize, v as usize)];
            // Nyström with all landmarks is exact up to the ridge + solver
            // conditioning; allow a loose absolute tolerance.
            prop_assert!((got[i] - want).abs() < 1e-4,
                "pair {:?}: got {} want {}", (u, v), got[i], want);
        }
    }

    #[test]
    fn lrw_matches_dense_power_iteration((n, edges) in arb_graph()) {
        let snap = Snapshot::from_edges(n, &edges);
        let pairs = unconnected_pairs(&snap);
        prop_assume!(!pairs.is_empty());
        let steps = 3;
        let lrw = LocalRandomWalk { steps, prune: 0.0 };
        let got = lrw.score_pairs(&snap, &pairs);

        // Dense reference: P = D⁻¹A row-stochastic (dangling rows absorb),
        // π(m) = eᵤ Pᵐ.
        let mut p = vec![vec![0.0f64; n]; n];
        for (x, row) in p.iter_mut().enumerate() {
            let d = snap.degree(x as NodeId);
            if d == 0 {
                row[x] = 1.0;
            } else {
                for &y in snap.neighbors(x as NodeId) {
                    row[y as usize] = 1.0 / d as f64;
                }
            }
        }
        let walk = |src: usize| -> Vec<f64> {
            let mut v = vec![0.0; n];
            v[src] = 1.0;
            for _ in 0..steps {
                let mut next = vec![0.0; n];
                for (x, row) in p.iter().enumerate() {
                    if v[x] == 0.0 { continue; }
                    for (y, &px) in row.iter().enumerate() {
                        next[y] += v[x] * px;
                    }
                }
                v = next;
            }
            v
        };
        let two_e = (2 * snap.edge_count()) as f64;
        for (i, &(u, v)) in pairs.iter().enumerate() {
            let puv = walk(u as usize)[v as usize];
            let pvu = walk(v as usize)[u as usize];
            let want = (snap.degree(u) as f64 / two_e) * puv
                + (snap.degree(v) as f64 / two_e) * pvu;
            prop_assert!((got[i] - want).abs() < 1e-10,
                "pair {:?}: got {} want {}", (u, v), got[i], want);
        }
    }

    #[test]
    fn predict_top_k_consistent_with_score_pairs((n, edges) in arb_graph(), k in 1usize..6) {
        use osn_metrics::candidates::CandidateSet;
        use osn_metrics::traits::CandidatePolicy;
        let snap = Snapshot::from_edges(n, &edges);
        let cands = CandidateSet::build(&snap, CandidatePolicy::TwoHop, 0);
        prop_assume!(!cands.is_empty());
        let metric = osn_metrics::local::ResourceAllocation;
        let threads = osn_graph::par::max_threads();
        let mut cache = osn_metrics::solver::SolverCache::transient();
        let top = osn_metrics::exec::predict_top_k_many_cached_t(
            &[&metric], &snap, &cands, k, 7, threads, &mut cache,
        )
        .remove(0);
        let scores = metric.score_pairs(&snap, cands.pairs());
        let expected = osn_metrics::topk::top_k_pairs(cands.pairs(), &scores, k, 7);
        prop_assert_eq!(top, expected);
    }
}
