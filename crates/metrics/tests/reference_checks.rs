//! Reference checks: every metric on a fixed graph through the engine
//! harness (`common/harness.rs`), and the approximate metric
//! implementations (Katz-lr, Katz-sc, LRW), scored through the engine,
//! against brute-force/dense computations on small random graphs.

mod common;

use common::arb_graph;
use common::harness::{self, every, fixture};
use linklens_bench::oracles::katz::exact_katz_truncated;
use osn_graph::snapshot::Snapshot;
use osn_graph::NodeId;
use osn_metrics::candidates::CandidateSet;
use osn_metrics::exec::score_pairs_t;
use osn_metrics::katz::{KatzLr, KatzSc};
use osn_metrics::traits::CandidatePolicy;
use osn_metrics::walk::LocalRandomWalk;
use proptest::prelude::*;

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

/// Every metric through every entry point on the fixture's `ThreeHop`
/// and `Global` (2 hubs) lists, sorted, shuffled and with duplicates,
/// against its reference, or its one-worker scores without one.
#[test]
fn engine_scores_match_direct_scoring() {
    let snap = fixture();
    for (policy, top_degree) in [(CandidatePolicy::ThreeHop, 0), (CandidatePolicy::Global, 2)] {
        let cands = CandidateSet::build(&snap, policy, top_degree);
        harness::check(&snap, cands.pairs(), every, &harness::ALL, None)
            .unwrap_or_else(|e| panic!("{policy:?}: {e}"));
    }
}

#[test]
fn katz_sc_all_landmarks_matches_truncated_series() {
    // With every node a landmark, the Nyström identity C W⁻¹ Cᵀ = K_T
    // holds exactly (K_T = truncated Katz) when W is invertible.
    // Two triangles bridged: 0-1-2 triangle, 3-4-5 triangle, bridge 2-3.
    let s = Snapshot::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]);
    let beta = 0.05;
    let terms = 5;
    let sc = KatzSc { beta, landmarks: 6, series_terms: terms, ridge: 1e-12 };
    let exact = exact_katz_truncated(&s, beta, terms);
    let pairs = [(0, 3), (0, 4), (1, 5)];
    let got = score_pairs_t(&sc, &s, &pairs, 1);
    for (i, &(u, v)) in pairs.iter().enumerate() {
        let want = exact[(u as usize, v as usize)];
        assert!((got[i] - want).abs() < 1e-6, "pair ({u},{v}): got {} want {want}", got[i]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn katz_lr_small_graphs_are_exact((n, edges) in arb_graph(5..=12, 2..25)) {
        // For n ≤ 256 KatzLr takes the dense-eigen path: full rank must be
        // numerically exact against (I − βA)⁻¹ − I truncated to many terms.
        let snap = Snapshot::from_edges(n, &edges);
        let pairs = unconnected_pairs(&snap);
        prop_assume!(!pairs.is_empty());
        let beta = 0.05;
        let lr = KatzLr { beta, rank: n, max_iter: 50, seed: 2 };
        let got = score_pairs_t(&lr, &snap, &pairs, 1);
        // 30 series terms converge far below tolerance for βλ ≤ 0.6.
        let reference = exact_katz_truncated(&snap, beta, 30);
        for (i, &(u, v)) in pairs.iter().enumerate() {
            let want = reference[(u as usize, v as usize)];
            prop_assert!((got[i] - want).abs() < 1e-6,
                "pair {:?}: got {} want {}", (u, v), got[i], want);
        }
    }

    #[test]
    fn katz_sc_full_landmarks_match_series((n, edges) in arb_graph(5..=12, 2..25)) {
        let snap = Snapshot::from_edges(n, &edges);
        let pairs = unconnected_pairs(&snap);
        prop_assume!(!pairs.is_empty());
        let beta = 0.05;
        let terms = 4;
        let sc = KatzSc { beta, landmarks: n, series_terms: terms, ridge: 1e-12 };
        let got = score_pairs_t(&sc, &snap, &pairs, 1);
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
    fn lrw_matches_dense_power_iteration((n, edges) in arb_graph(5..=12, 2..25)) {
        let snap = Snapshot::from_edges(n, &edges);
        let pairs = unconnected_pairs(&snap);
        prop_assume!(!pairs.is_empty());
        let steps = 3;
        let lrw = LocalRandomWalk { steps, prune: 0.0 };
        let got = score_pairs_t(&lrw, &snap, &pairs, 1);

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

}
