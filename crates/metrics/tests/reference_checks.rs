//! Randomized reference checks: the approximate metric implementations
//! (Katz-lr, Katz-sc, LRW), scored through the engine, against
//! brute-force/dense computations on small random graphs.

use linklens_bench::oracles;
use linklens_bench::oracles::katz::exact_katz_truncated;
use osn_graph::snapshot::Snapshot;
use osn_graph::NodeId;
use osn_metrics::exec::score_pairs_t;
use osn_metrics::katz::{KatzLr, KatzSc};
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
    fn katz_lr_small_graphs_are_exact((n, edges) in arb_graph()) {
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
    fn katz_sc_full_landmarks_match_series((n, edges) in arb_graph()) {
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
    fn lrw_matches_dense_power_iteration((n, edges) in arb_graph()) {
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
        let scores = oracles::local::resource_allocation(&snap, cands.pairs());
        let expected = osn_metrics::topk::top_k_pairs(cands.pairs(), &scores, k, 7);
        prop_assert_eq!(top, expected);
    }
}

/// Fisher–Yates shuffle driven by a fixed-seed splitmix64 stream.
fn shuffled(pairs: &[(NodeId, NodeId)], seed: u64) -> Vec<(NodeId, NodeId)> {
    let mut out = pairs.to_vec();
    let mut state = seed;
    for i in (1..out.len()).rev() {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        out.swap(i, (z % (i as u64 + 1)) as usize);
    }
    out
}

/// The engine on sorted candidates, and on the same list in caller order
/// (the shape AUC positives/negatives and time-series windows arrive in),
/// at 1, 2 and 4 workers, against each metric's reference: bit for bit
/// for the per-pair local references and the SP, LP and Katz-sc
/// per-source ones; LRW and PPR within the bounds `global_equivalence`
/// derives for their two-sided references. Katz-lr and Rescal have no
/// separate reference, so their scores must equal the one-worker scores.
#[test]
fn engine_scores_match_direct_scoring() {
    use osn_metrics::candidates::CandidateSet;
    use osn_metrics::traits::CandidatePolicy;
    use osn_metrics::walk::PersonalizedPageRank;

    // Two bridged triangles plus a pendant path.
    let snap = Snapshot::from_edges(
        8,
        &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5), (5, 6), (6, 7)],
    );
    let cands = CandidateSet::build(&snap, CandidatePolicy::ThreeHop, 0);
    let inputs = [cands.pairs().to_vec(), shuffled(cands.pairs(), 0x5EED)];
    assert_ne!(inputs[0], inputs[1], "the shuffle must reorder the pairs");
    let (lrw, ppr) = (LocalRandomWalk::default(), PersonalizedPageRank::default());
    for pairs in &inputs {
        for m in osn_metrics::all_metrics() {
            let name = m.name();
            let reference = match oracles::local::per_pair(name) {
                Some(oracle) => Some(oracle(&snap, pairs)),
                None => oracles::per_source(name, &snap, pairs, 1),
            };
            let one = score_pairs_t(m.as_ref(), &snap, pairs, 1);
            for threads in [1, 2, 4] {
                let engine = score_pairs_t(m.as_ref(), &snap, pairs, threads);
                match (name, &reference) {
                    ("LRW" | "PPR", Some(reference)) => {
                        for (i, &(u, v)) in pairs.iter().enumerate() {
                            let (du, dv) = (snap.degree(u) as f64, snap.degree(v) as f64);
                            let bound = if name == "LRW" {
                                3.0 * lrw.steps as f64 * lrw.prune * (du + dv) + 1e-12
                            } else {
                                let side = if du.min(dv) == 0.0 {
                                    1.0
                                } else {
                                    1.0 + du.max(dv) / du.min(dv)
                                };
                                ppr.epsilon * (du + dv) + ppr.solver_tol() / ppr.alpha * side
                            };
                            let dev = (engine[i] - reference[i]).abs();
                            assert!(dev <= bound, "{name} pair {:?} threads={threads}", pairs[i]);
                        }
                    }
                    (_, Some(reference)) => {
                        assert_eq!(&engine, reference, "{name} threads={threads}")
                    }
                    (_, None) => assert_eq!(engine, one, "{name} threads={threads}"),
                }
            }
        }
    }
}
