//! Batched-vs-reference checks of the global metrics. Through the engine
//! harness (`common/harness.rs`), on the `ThreeHop` lists of random graphs:
//! SP, LP and Katz-sc equal their per-source references bit for bit, LRW
//! and PPR stay within their `oracles::walk` bounds, at every worker count
//! of `score_pairs_t` and on `score_pairs_targeted`'s per-source slices,
//! and the cached batch entry points reproduce the transient scores.
//! Beside it: Katz-sc's SpMM landmark columns against the per-landmark
//! SpMV columns, the unpruned LRW walk against the two-sided reference at
//! a non-default prune of 0, and warm-started PPR sweeps against cold
//! starts across a randomized snapshot sequence. Every tolerance comes
//! from `linklens_bench::oracles`.

mod common;

use common::harness::{self, every, named, Entry};
use common::{arb_graph, arb_sweep, candidate_pairs};
use linklens_bench::oracles;
use osn_graph::snapshot::Snapshot;
use osn_graph::NodeId;
use osn_metrics::exec;
use osn_metrics::katz::KatzSc;
use osn_metrics::solver::SolverCache;
use osn_metrics::traits::CandidatePolicy;
use osn_metrics::walk::{LocalRandomWalk, PersonalizedPageRank};
use proptest::prelude::*;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Katz-sc's batched SpMM landmark columns equal the per-landmark SpMV
/// oracle's bit for bit, column by column, at every thread count: on two
/// bridged triangles, and on a 400-node ring with chords, whose 400 rows
/// put the SpMM past its 256-row serial threshold onto the worker pool.
#[test]
fn landmark_columns_batched_matches_per_source_bitwise() {
    // Two triangles bridged: 0-1-2 triangle, 3-4-5 triangle, bridge 2-3.
    let bridged =
        Snapshot::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]);
    let mut ring: Vec<(NodeId, NodeId)> = Vec::new();
    for i in 0..400 {
        ring.push((i, (i + 1) % 400));
        if i % 3 == 0 {
            ring.push((i, (i + 7) % 400));
        }
    }
    let ring = Snapshot::from_edges(400, &ring);
    for (s, landmarks) in [(&bridged, 4), (&ring, KatzSc::default().landmarks)] {
        let sc = KatzSc { landmarks, ..Default::default() };
        let lm = sc.pick_landmarks(s);
        let want = oracles::katz::landmark_columns(&sc, s, &lm);
        for threads in [1, 2, 4] {
            let got = sc.landmark_columns(s, &lm, threads);
            let n = s.node_count();
            assert_eq!(got.data(), want.data(), "{n} nodes, threads={threads}");
        }
    }
}

/// The `ThreeHop` list.
const LIST: [(CandidatePolicy, usize); 1] = [(CandidatePolicy::ThreeHop, 0)];

/// `score_pairs_t` at every worker count, and the served slices.
const SERVED: [Entry; 2] = [Entry::Scores, Entry::Targeted];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// SP and LP: the batched frontier walkers (MS-BFS / Walk2Scan) are
    /// exact algorithms, so they equal their per-source references bit
    /// for bit.
    #[test]
    fn sp_lp_batched_equal_per_source_bit_identical(graph in arb_graph(8..=24, 4..50)) {
        harness::check_lists(&graph, &LIST, named(&["SP", "LP"]), &SERVED, None)?;
    }

    /// LRW at the default prune: the engine's one-sided score stays
    /// within `oracles::walk::lrw_bound` of the two-sided reference.
    #[test]
    fn lrw_pruned_within_bound_of_two_sided_reference(graph in arb_graph(8..=24, 4..50)) {
        harness::check_lists(&graph, &LIST, named(&["LRW"]), &SERVED, None)?;
    }

    /// PPR: the engine's one-sided score from its side's Chebyshev-solved
    /// column stays within `oracles::walk::ppr_bound` of the two-sided
    /// forward-push reference.
    #[test]
    fn ppr_batched_within_bound_of_per_source(graph in arb_graph(8..=24, 4..50)) {
        harness::check_lists(&graph, &LIST, named(&["PPR"]), &SERVED, None)?;
    }

    /// Katz-sc: the batched SpMM landmark build folds each row in the
    /// per-landmark SpMV loop's order, so the engine's scores equal the
    /// reference's bit for bit.
    #[test]
    fn katz_sc_batched_equals_per_source(graph in arb_graph(8..=24, 4..50)) {
        harness::check_lists(&graph, &LIST, named(&["Katz-sc"]), &SERVED, None)?;
    }

    /// The cached batch entry points are pure plumbing: the mixed
    /// 15-metric matrix on a fresh sweep cache, and the grouped top-k,
    /// reproduce the transient one-worker scores bit for bit at every
    /// worker count.
    #[test]
    fn cached_exec_paths_match_uncached(graph in arb_graph(8..=24, 4..50)) {
        harness::check_lists(&graph, &LIST, every, &[Entry::Matrix, Entry::TopK], None)?;
    }

    /// LRW: with pruning disabled both paths compute the exact truncated
    /// walk distribution and differ only by summation order, so they must
    /// agree within `lrw_bound`'s reassociation term at every thread count.
    #[test]
    fn lrw_batched_equals_per_source((n, edges) in arb_graph(8..=24, 4..50)) {
        let snap = Snapshot::from_edges(n, &edges);
        let pairs = candidate_pairs(&snap);
        prop_assume!(!pairs.is_empty());
        let lrw = LocalRandomWalk { steps: 3, prune: 0.0 };
        let reference = oracles::walk::local_random_walk(&lrw, &snap, &pairs, 1);
        for threads in THREADS {
            let batched = exec::score_pairs_t(&lrw, &snap, &pairs, threads);
            for (i, &pair) in pairs.iter().enumerate() {
                let bound = oracles::walk::lrw_bound(&lrw, &snap, pair);
                prop_assert!(
                    (batched[i] - reference[i]).abs() <= bound,
                    "LRW pair {:?} diverged at {} threads: {} vs {} (bound {})",
                    pair, threads, batched[i], reference[i], bound
                );
            }
        }
    }

    /// Warm starts across a randomized monotone snapshot sweep: scoring
    /// the same pairs on each snapshot with one persistent cache must (a)
    /// actually warm-start from the second snapshot on, (b) spend no more
    /// iterations than the cold path, and (c) agree with independent
    /// cold-start solves within twice `ppr_solve_bound` per pair: both
    /// runs score the same pair list, so each pair takes the same side in
    /// both, and each lands within the solve bound of the exact score.
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
                let bound = 2.0 * oracles::walk::ppr_solve_bound(&ppr, &snap, pairs[i]);
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
