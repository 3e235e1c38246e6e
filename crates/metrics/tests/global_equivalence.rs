//! Batched-vs-reference equivalence for the global metrics: the batched
//! frontier/SpMV engine (multi-source BFS for SP, epoch-stamped 2-walk
//! scans for LP, blocked multi-source iteration for LRW/PPR, SpMM landmark
//! columns for Katz-sc) must reproduce its per-source oracle from
//! `linklens_bench::oracles` —
//! bit for bit where the algorithm is exact (SP, LP, Katz-sc), within the
//! documented analytic tolerance where it is iterative (LRW, PPR) — at
//! every thread count, and warm-started sweeps must agree with cold
//! starts across a randomized snapshot sequence.

use linklens_bench::oracles;
use osn_graph::snapshot::Snapshot;
use osn_graph::NodeId;
use osn_metrics::candidates::CandidateSet;
use osn_metrics::exec;
use osn_metrics::katz::KatzSc;
use osn_metrics::path::{LocalPath, ShortestPath};
use osn_metrics::solver::SolverCache;
use osn_metrics::traits::CandidatePolicy;
use osn_metrics::walk::{LocalRandomWalk, PersonalizedPageRank};
use proptest::prelude::*;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Random graphs in the fused_equivalence size band: large enough to give
/// multi-source batches wider than one MS-BFS word is not feasible at this
/// size, but the batching/grouping machinery (solve sides, source-aligned
/// chunks, block widths) is fully exercised.
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
/// adding at least one new edge (so every snapshot has a distinct
/// `(nodes, edges)` cache key, as in a real growth trace).
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

/// `1 + d_max/d_min` for a pair: the most the one-sided PPR factor
/// `1 + d_s/d_t` can scale a solved column's error, whichever endpoint is
/// the side. 1 when an endpoint is isolated: the factor is 1 there.
fn side_factor(snap: &Snapshot, (u, v): (NodeId, NodeId)) -> f64 {
    let (du, dv) = (snap.degree(u) as f64, snap.degree(v) as f64);
    if du.min(dv) == 0.0 {
        1.0
    } else {
        1.0 + du.max(dv) / du.min(dv)
    }
}

/// Katz-sc's batched SpMM landmark columns equal the per-landmark SpMV
/// oracle's bit for bit, column by column, at every thread count.
#[test]
fn landmark_columns_batched_matches_per_source_bitwise() {
    // Two triangles bridged: 0-1-2 triangle, 3-4-5 triangle, bridge 2-3.
    let s = Snapshot::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]);
    let tv = SolverCache::transient().ensure_snapshot(&s);
    let a = tv.adjacency();
    let sc = KatzSc { landmarks: 4, ..Default::default() };
    let lm = sc.pick_landmarks(&s);
    let want = oracles::katz::landmark_columns(&sc, a, &lm);
    for threads in [1, 2, 4] {
        let got = sc.landmark_columns(a, &lm, threads);
        assert_eq!(got.data(), want.data(), "threads={threads}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// SP and LP: the batched frontier walkers (MS-BFS / Walk2Scan) are
    /// exact algorithms, so they must equal their per-source references
    /// bit for bit through the engine at every thread count.
    #[test]
    fn sp_lp_batched_equal_per_source_bit_identical((n, edges) in arb_graph()) {
        let snap = Snapshot::from_edges(n, &edges);
        let pairs = candidate_pairs(&snap);
        prop_assume!(!pairs.is_empty());

        let sp = ShortestPath::default();
        let sp_ref = oracles::path::shortest_path(&sp, &snap, &pairs);
        let lp = LocalPath::default();
        let lp_ref = oracles::path::local_path(&lp, &snap, &pairs);

        for threads in THREADS {
            let sp_t = exec::score_pairs_t(&sp, &snap, &pairs, threads);
            prop_assert_eq!(&sp_t, &sp_ref, "SP engine diverged at {} threads", threads);
            let lp_t = exec::score_pairs_t(&lp, &snap, &pairs, threads);
            prop_assert_eq!(&lp_t, &lp_ref, "LP engine diverged at {} threads", threads);
        }
    }

    /// LRW: with pruning disabled both paths compute the exact truncated
    /// walk distribution and differ only by summation order, so they must
    /// agree to reassociation noise at every thread count.
    #[test]
    fn lrw_batched_equals_per_source((n, edges) in arb_graph()) {
        let snap = Snapshot::from_edges(n, &edges);
        let pairs = candidate_pairs(&snap);
        prop_assume!(!pairs.is_empty());
        let lrw = LocalRandomWalk { steps: 3, prune: 0.0 };
        let reference = oracles::walk::local_random_walk(&lrw, &snap, &pairs, 1);
        for threads in THREADS {
            let batched = exec::score_pairs_t(&lrw, &snap, &pairs, threads);
            for i in 0..pairs.len() {
                prop_assert!(
                    (batched[i] - reference[i]).abs() <= 1e-9,
                    "LRW pair {:?} diverged at {} threads: {} vs {}",
                    pairs[i], threads, batched[i], reference[i]
                );
            }
        }
    }

    /// LRW at the default prune: the engine scores a pair one-sided,
    /// `2·(d_s/2E)·π̃_st(m)` from its side `s`, the reference two-sided,
    /// `(d_u/2E)·π̃_uv(m) + (d_v/2E)·π̃_vu(m)`, both from pruned walks π̃.
    /// A pruned step drops the mass of every node whose share is below
    /// `prune`, at most `Σ_x prune·d_x = prune·2E`, and propagation never
    /// grows an L1 deficit, so after `m` steps every entry of π̃ is within
    /// `m·prune·2E` of the exact walk π. The exact walk is reversible, so
    /// both forms equal the same exact score: the engine within
    /// `2·(d_s/2E)·m·prune·2E = 2·m·prune·d_s`, the reference within
    /// `m·prune·(d_u+d_v)`. Hence the bound `3·m·prune·(d_u+d_v)`, plus
    /// `1e-12` of float reassociation — at every thread count.
    #[test]
    fn lrw_pruned_within_bound_of_two_sided_reference((n, edges) in arb_graph()) {
        let snap = Snapshot::from_edges(n, &edges);
        let pairs = candidate_pairs(&snap);
        prop_assume!(!pairs.is_empty());
        let lrw = LocalRandomWalk::default();
        prop_assert!(lrw.prune > 0.0, "the default must prune for this test to mean anything");
        let reference = oracles::walk::local_random_walk(&lrw, &snap, &pairs, 1);
        for threads in THREADS {
            let batched = exec::score_pairs_t(&lrw, &snap, &pairs, threads);
            for (i, &(u, v)) in pairs.iter().enumerate() {
                let bound = 3.0 * lrw.steps as f64 * lrw.prune
                    * (snap.degree(u) + snap.degree(v)) as f64
                    + 1e-12;
                prop_assert!(
                    (batched[i] - reference[i]).abs() <= bound,
                    "LRW pair {:?} out of bound at {} threads: {} vs {} (bound {})",
                    pairs[i], threads, batched[i], reference[i], bound
                );
            }
        }
    }

    /// PPR: the engine scores a pair one-sided, `p̂_s[t]·(1 + d_s/d_t)`
    /// from its side's column, which the Chebyshev solve certifies within
    /// `‖p - p̂‖₁ ≤ tol/α` of the exact column; by reversibility the exact
    /// one-sided score is the exact two-sided one, so the engine is within
    /// `(tol/α)·(1 + d_s/d_t) ≤ (tol/α)·(1 + d_max/d_min)` of it (factor 1
    /// when `d_min = 0`). The forward-push reference has per-entry error
    /// ≤ ε·deg, `ε·(d_u + d_v)` for its two terms. So each pair may differ
    /// by at most `ε·(d_u + d_v) + (tol/α)·(1 + d_max/d_min)` — at every
    /// thread count. With `d_u = d_v` that is `ε·(d_u + d_v) + 2·tol/α`.
    #[test]
    fn ppr_batched_within_bound_of_per_source((n, edges) in arb_graph()) {
        let snap = Snapshot::from_edges(n, &edges);
        let pairs = candidate_pairs(&snap);
        prop_assume!(!pairs.is_empty());
        let ppr = PersonalizedPageRank::default();
        let reference = oracles::walk::personalized_pagerank(&ppr, &snap, &pairs, 1);
        for threads in THREADS {
            let batched = exec::score_pairs_t(&ppr, &snap, &pairs, threads);
            for (i, &(u, v)) in pairs.iter().enumerate() {
                let bound = ppr.epsilon * (snap.degree(u) + snap.degree(v)) as f64
                    + ppr.solver_tol() / ppr.alpha * side_factor(&snap, (u, v));
                prop_assert!(
                    (batched[i] - reference[i]).abs() <= bound,
                    "PPR pair {:?} out of bound at {} threads: {} vs {} (bound {})",
                    pairs[i], threads, batched[i], reference[i], bound
                );
            }
        }
    }

    /// Katz-sc: the batched SpMM landmark build folds each row in the same
    /// ascending-neighbor order as the per-landmark SpMV loop, so the
    /// engine's scores must be bit-identical to the oracle's, which run
    /// the same mixing stage on per-landmark columns, at every thread
    /// count.
    #[test]
    fn katz_sc_batched_equals_per_source((n, edges) in arb_graph()) {
        let snap = Snapshot::from_edges(n, &edges);
        let pairs = candidate_pairs(&snap);
        prop_assume!(!pairs.is_empty());
        let katz = KatzSc::default();
        let reference = oracles::katz::katz_sc(&katz, &snap, &pairs);
        for threads in THREADS {
            let engine = exec::score_pairs_t(&katz, &snap, &pairs, threads);
            prop_assert_eq!(&engine, &reference, "Katz-sc engine diverged at {} threads", threads);
        }
    }

    /// The cached engine entry points (shared TransitionView, adjacency
    /// reuse) are pure plumbing on a fresh cache: for every global metric
    /// and thread count, a fresh sweep cache must reproduce the transient
    /// path bit for bit.
    #[test]
    fn cached_exec_paths_match_uncached((n, edges) in arb_graph()) {
        let snap = Snapshot::from_edges(n, &edges);
        let pairs = candidate_pairs(&snap);
        prop_assume!(!pairs.is_empty());
        for name in ["SP", "LP", "LRW", "PPR", "Katz-lr", "Katz-sc"] {
            let m = osn_metrics::metric_by_name(name).expect("known metric");
            let base = exec::score_pairs_t(m.as_ref(), &snap, &pairs, 1);
            for threads in THREADS {
                let mut cache = SolverCache::sweep();
                let cached =
                    exec::score_matrix_cached_t(&[m.as_ref()], &snap, &pairs, threads, &mut cache).remove(0);
                prop_assert_eq!(
                    &cached, &base,
                    "{} cached path diverged at {} threads", name, threads
                );
            }
        }
    }

    /// Warm starts across a randomized monotone snapshot sweep: scoring
    /// the same pairs on each snapshot with one persistent cache must (a)
    /// actually warm-start from the second snapshot on, (b) spend no more
    /// iterations than the cold path, and (c) agree with independent
    /// cold-start solves within `2·(tol/α)·(1 + d_max/d_min)` per pair.
    /// Both runs score the same pair list, so each pair takes the same
    /// side `s` in both; each solve certifies `‖p - p̂‖₁ ≤ tol/α`, which
    /// the one-sided factor `1 + d_s/d_t ≤ 1 + d_max/d_min` scales, and the
    /// two runs each land that close to the same exact score. With
    /// `d_u = d_v` that is `4·tol/α`.
    #[test]
    fn warm_start_matches_cold_start_across_sweep((n, snapshots) in arb_sweep()) {
        prop_assume!(snapshots.len() >= 2);
        let ppr = PersonalizedPageRank::default();
        let first = Snapshot::from_edges(n, &snapshots[0]);
        let pairs = candidate_pairs(&first);
        prop_assume!(!pairs.is_empty());

        let mut warm_cache = SolverCache::sweep();
        let mut cold_iters = 0u64;
        for edges in &snapshots {
            let snap = Snapshot::from_edges(n, edges);
            let warm = exec::score_matrix_cached_t(&[&ppr], &snap, &pairs, 2, &mut warm_cache).remove(0);
            let mut cold_cache = SolverCache::transient();
            let cold = exec::score_matrix_cached_t(&[&ppr], &snap, &pairs, 2, &mut cold_cache).remove(0);
            cold_iters += cold_cache.stats.ppr_iterations;
            for i in 0..pairs.len() {
                let bound = 2.0 * ppr.solver_tol() / ppr.alpha * side_factor(&snap, pairs[i]);
                prop_assert!(
                    (warm[i] - cold[i]).abs() <= bound,
                    "warm/cold diverged on pair {:?}: {} vs {} (bound {})",
                    pairs[i], warm[i], cold[i], bound
                );
            }
        }
        prop_assert!(
            warm_cache.stats.ppr_warm_starts > 0,
            "persistent cache never warm-started across {} snapshots",
            snapshots.len()
        );
        prop_assert!(
            warm_cache.stats.ppr_iterations <= cold_iters,
            "warm sweep spent more iterations ({}) than cold ({})",
            warm_cache.stats.ppr_iterations, cold_iters
        );
    }
}
