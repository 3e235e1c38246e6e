//! The fused scoring kernel through the engine harness
//! (`common/harness.rs`): the eight `LocalKind` metrics (CN, JC, AA, RA,
//! PA, BCN, BAA, BRA) at every engine entry point and worker count give
//! the same bits as their per-pair references in
//! `linklens_bench::oracles::local` — same scores, same top-k pairs in the
//! same order — and the mixed batch of all 15 metrics, where fused
//! columns sit between the other metrics', reproduces each metric's own
//! scores.

mod common;

use common::arb_graph;
use common::harness::{self, every, fixture, local, Entry};
use osn_metrics::candidates::CandidateSet;
use osn_metrics::traits::CandidatePolicy;
use proptest::prelude::*;

/// The fixture's `ThreeHop` list through the two paths that score every
/// kind's column out of one kernel context: the eight-metric matrix (one
/// fused pass) and per-source targeted slices out of a `LocalKind::ALL`
/// context.
#[test]
fn fused_columns_match_per_pair_scoring() {
    let snap = fixture();
    let cands = CandidateSet::build(&snap, CandidatePolicy::ThreeHop, 0);
    harness::check(&snap, cands.pairs(), local, &[Entry::Matrix, Entry::Targeted], None)
        .unwrap_or_else(|e| panic!("{e}"));
}

/// Duplicates, a reversed pair and an existing edge: the engine scores
/// whatever pairs it is handed, for every metric, like the per-pair
/// references do. The reversed pair skips only the top-k entry point,
/// which takes a canonical `CandidateSet`.
#[test]
fn fused_handles_duplicate_and_noncanonical_pairs() {
    let snap = fixture();
    let pairs = [(0, 4), (0, 4), (4, 0), (0, 1), (1, 7)];
    harness::check(&snap, &pairs, every, &harness::ALL, Some(2)).unwrap_or_else(|e| panic!("{e}"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// `score_pairs_t` (fused dispatch) equals the per-pair references
    /// bit for bit at every worker count, on a `TwoHop` and a `Global`
    /// list (the latter holds distance-3 and hub pairs the kernel must
    /// score as zero-witness).
    #[test]
    fn fused_scores_are_bit_identical(graph in arb_graph(8..=20, 4..40)) {
        let lists = [(CandidatePolicy::TwoHop, 3), (CandidatePolicy::Global, 3)];
        harness::check_lists(&graph, &lists, local, &[Entry::Scores], None)?;
    }

    /// The engine's top-k (fused dispatch, streaming per-chunk heaps)
    /// returns exactly the pairs, and the tie-break order, of the serial
    /// selection over the per-pair scores, at every worker count.
    #[test]
    fn fused_top_k_is_bit_identical(graph in arb_graph(8..=20, 4..40)) {
        let lists = [(CandidatePolicy::TwoHop, 0)];
        harness::check_lists(&graph, &lists, local, &[Entry::TopK], None)?;
    }

    /// The multi-metric paths (feature matrix, grouped top-k) on the
    /// mixed 15-metric batch, fused metrics interleaved with the others,
    /// reproduce every metric's own scores and top-k column for column.
    #[test]
    fn fused_group_paths_are_bit_identical(graph in arb_graph(8..=20, 4..40)) {
        let lists = [(CandidatePolicy::Global, 2)];
        harness::check_lists(&graph, &lists, every, &[Entry::Matrix, Entry::TopK], None)?;
    }
}
