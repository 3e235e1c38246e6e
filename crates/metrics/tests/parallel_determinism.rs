//! Determinism properties of the parallel engine: for every metric, every
//! candidate-enumeration path and every worker count, the engine must
//! produce *bit-identical* predictions — the same pairs in the same order
//! — as the serial execution (through the engine harness,
//! `common/harness.rs`); enumeration must give the serial scan's pair
//! lists; and chunked top-k selection must equal the one-pass selection.
//! This is the engine's core contract (DESIGN.md, "parallel execution
//! model") and what lets bench runs at different `--threads` settings be
//! compared directly.

mod common;

use common::arb_graph;
use common::harness::{self, every, Entry};
use osn_graph::snapshot::Snapshot;
use osn_graph::{traversal, NodeId};
use osn_metrics::topk::{top_k_pairs, TopKAcc};
use osn_metrics::traits::CandidatePolicy;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Every metric's scores, served slices and top-k at 1, 2 and 4
    /// workers, on both enumeration-backed candidate policies (`TwoHop`
    /// and `Global`, which routes through `within3_pairs` and the hub
    /// merge), reproduce the serial scores that meet its contract.
    #[test]
    fn predictions_are_thread_count_invariant(graph in arb_graph(8..=20, 4..40)) {
        let lists = [(CandidatePolicy::TwoHop, 3), (CandidatePolicy::Global, 3)];
        let entries = [Entry::Scores, Entry::TopK, Entry::Targeted];
        harness::check_lists(&graph, &lists, every, &entries, None)?;
    }

    /// Candidate enumeration itself is worker-count invariant: the merged
    /// per-source partitions equal the serial scan, in order.
    #[test]
    fn enumeration_is_thread_count_invariant((n, edges) in arb_graph(8..=20, 4..40)) {
        let snap = Snapshot::from_edges(n, &edges);
        let two_serial = traversal::two_hop_pairs(&snap, None, 1);
        let within_serial = traversal::within3_pairs(&snap, None, 1);
        for threads in [2usize, 3, 5, 8] {
            prop_assert_eq!(&two_serial, &traversal::two_hop_pairs(&snap, None, threads));
            prop_assert_eq!(&within_serial, &traversal::within3_pairs(&snap, None, threads));
        }
    }

    /// The sampled pipeline's subset enumeration is the whole-graph
    /// two-hop list filtered to member pairs, in the same order. With
    /// `star` set, an extra non-member node is adjacent to every member, so
    /// one witness list holds the whole sample.
    #[test]
    fn two_hop_among_is_the_member_filter_of_two_hop(
        (n, mut edges) in arb_graph(8..=20, 4..40),
        picks in proptest::collection::vec(0u32..2, 20),
        star in 0u8..2,
    ) {
        let members: Vec<NodeId> = (0..n as NodeId).filter(|&v| picks[v as usize] == 1).collect();
        let n = if star == 1 {
            edges.extend(members.iter().map(|&m| (m, n as NodeId)));
            n + 1
        } else {
            n
        };
        let snap = Snapshot::from_edges(n, &edges);
        let filtered: Vec<(NodeId, NodeId)> = traversal::two_hop_pairs(&snap, None, 1)
            .into_iter()
            .filter(|&(u, v)| members.contains(&u) && members.contains(&v))
            .collect();
        prop_assert_eq!(traversal::two_hop_pairs_among(&snap, &members), filtered);
    }

    /// Chunked top-k (per-chunk heaps with global indices, merged) selects
    /// exactly the pairs — and the order — of the one-pass serial
    /// selection, for arbitrary score vectors and chunk layouts.
    #[test]
    fn chunked_topk_merge_equals_serial(
        scores in proptest::collection::vec(0u32..6, 20..200),
        k in 1usize..25,
        parts in 1usize..7,
        seed in 0u64..1000,
    ) {
        // Many duplicate scores on purpose: ties exercise the jitter arm
        // of the total order.
        let scores: Vec<f64> = scores.into_iter().map(f64::from).collect();
        let pairs: Vec<(NodeId, NodeId)> =
            (0..scores.len() as u32).map(|i| (i, i + 1)).collect();

        let serial = top_k_pairs(&pairs, &scores, k, seed);

        let mut accs = Vec::new();
        let chunk = scores.len().div_ceil(parts);
        for start in (0..scores.len()).step_by(chunk) {
            let end = (start + chunk).min(scores.len());
            let mut acc = TopKAcc::new(k, seed);
            for i in start..end {
                acc.push(pairs[i], scores[i]);
            }
            accs.push(acc);
        }
        // Merge in reverse so ordering never leans on chunk arrival order.
        let mut merged = accs.pop().expect("at least one chunk");
        while let Some(acc) = accs.pop() {
            merged.merge(acc);
        }
        prop_assert_eq!(serial, merged.finish());
    }
}
