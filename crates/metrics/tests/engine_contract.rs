//! The engine harness (`common/harness.rs`) on every metric at once:
//! every metric has a contract row, every entry point holds on small
//! random graphs, and the batch entry points hold across chunks. The
//! per-family checks in `fused_equivalence.rs`, `global_equivalence.rs`,
//! `parallel_determinism.rs` and `reference_checks.rs` run the same
//! harness on their own bands.

mod common;

use common::arb_graph;
use common::harness::{self, every};
use linklens_bench::oracles;
use osn_graph::snapshot::Snapshot;
use osn_metrics::candidates::CandidateSet;
use osn_metrics::traits::CandidatePolicy;
use osn_metrics::walk::LocalRandomWalk;
use proptest::prelude::*;
use proptest::TestCaseError;

/// A metric missing from the contract table fails the harness. LRW's
/// row holds the default walk to its pruning bound, which only means
/// something when the default prunes.
#[test]
fn every_metric_has_a_contract_row() {
    assert!(oracles::contract("no-such-metric").is_none());
    for m in osn_metrics::all_metrics() {
        assert!(oracles::contract(m.name()).is_some(), "{} has no contract row", m.name());
    }
    assert!(LocalRandomWalk::default().prune > 0.0, "the default LRW must prune");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// 5–12 nodes, the `TwoHop` list, every metric through every entry
    /// point, top-k at a drawn k of 1–5.
    #[test]
    fn contracts_hold_on_5_to_12_nodes(graph in arb_graph(5..=12, 2..25), k in 1usize..6) {
        let lists = [(CandidatePolicy::TwoHop, 0)];
        harness::check_lists(&graph, &lists, every, &harness::ALL, Some(k))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// 70–90 nodes of average degree 7–11, whose `Global` list (3 hubs)
    /// holds more than 2,048 pairs, so every batch spans at least two of
    /// the engine's 1,024-pair chunks: fused columns, `score_chunked`
    /// fan-out and per-chunk top-k merges are compared pair by pair.
    /// `score_pairs_targeted` scores one source's list and never chunks,
    /// so this band runs the three batch entry points.
    #[test]
    fn contracts_hold_across_chunks((n, edges) in arb_graph(70..=90, 320..400)) {
        let snap = Snapshot::from_edges(n, &edges);
        let cands = CandidateSet::build(&snap, CandidatePolicy::Global, 3);
        prop_assert!(cands.len() > 2048, "{} pairs: fewer than two chunks", cands.len());
        harness::check(&snap, cands.pairs(), every, &harness::BATCHED, None)
            .map_err(TestCaseError::Fail)?;
    }
}
