//! Determinism properties of the parallel scoring engine: for every
//! metric, every candidate-enumeration path, and every worker count, the
//! engine must produce *bit-identical* predictions — the same pairs in the
//! same order — as the serial execution. This is the engine's core
//! contract (DESIGN.md, "parallel execution model") and what lets bench
//! runs at different `--threads` settings be compared directly.

use osn_graph::snapshot::Snapshot;
use osn_graph::{traversal, NodeId};
use osn_metrics::candidates::CandidateSet;
use osn_metrics::exec;
use osn_metrics::solver::SolverCache;
use osn_metrics::topk::{top_k_pairs, TopKAcc};
use osn_metrics::traits::{CandidatePolicy, Metric};
use proptest::prelude::*;

/// One metric's top-k through the engine at `threads` workers.
fn top_k(
    m: &dyn Metric,
    snap: &Snapshot,
    cands: &CandidateSet,
    k: usize,
    threads: usize,
) -> Vec<(NodeId, NodeId)> {
    let mut cache = SolverCache::transient();
    exec::predict_top_k_many_cached_t(&[m], snap, cands, k, 0x5EED, threads, &mut cache).remove(0)
}

/// Random graphs big enough to give multi-source candidate sets but small
/// enough that all 15 metrics (including the RESCAL/Katz fits) stay fast.
fn arb_graph() -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId)>)> {
    (8usize..=20).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32)
            .prop_filter("no loop", |(a, b)| a != b)
            .prop_map(|(a, b)| osn_graph::canonical(a, b));
        proptest::collection::vec(edge, 4..40).prop_map(move |mut e| {
            e.sort_unstable();
            e.dedup();
            (n, e)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// predict_top_k with 1 worker == with N workers, for all metrics and
    /// both enumeration-backed candidate policies (TwoHop and Global,
    /// which routes through `within3_pairs` + the hub merge).
    #[test]
    fn predictions_are_thread_count_invariant((n, edges) in arb_graph()) {
        let snap = Snapshot::from_edges(n, &edges);
        for policy in [CandidatePolicy::TwoHop, CandidatePolicy::Global] {
            let cands = CandidateSet::build(&snap, policy, 3);
            prop_assume!(!cands.is_empty());
            let k = (cands.len() / 2).max(1);
            for m in osn_metrics::all_metrics() {
                let serial = top_k(m.as_ref(), &snap, &cands, k, 1);
                for threads in [2usize, 4, 8] {
                    let par = top_k(m.as_ref(), &snap, &cands, k, threads);
                    prop_assert_eq!(
                        &serial, &par,
                        "{} with {} threads diverged ({:?} policy)", m.name(), threads, policy
                    );
                }
            }
        }
    }

    /// Candidate enumeration itself is worker-count invariant: the merged
    /// per-source partitions equal the serial scan, in order.
    #[test]
    fn enumeration_is_thread_count_invariant((n, edges) in arb_graph()) {
        let snap = Snapshot::from_edges(n, &edges);
        let two_serial = traversal::two_hop_pairs(&snap, None, 1);
        let within_serial = traversal::within3_pairs(&snap, None, 1);
        for threads in [2usize, 3, 5, 8] {
            prop_assert_eq!(&two_serial, &traversal::two_hop_pairs(&snap, None, threads));
            prop_assert_eq!(&within_serial, &traversal::within3_pairs(&snap, None, threads));
        }
    }

    /// The sampled pipeline's subset enumeration is the whole-graph
    /// two-hop list filtered to member pairs, in the same order.
    #[test]
    fn two_hop_among_is_the_member_filter_of_two_hop(
        (n, edges) in arb_graph(),
        picks in proptest::collection::vec(0u32..2, 20),
    ) {
        let snap = Snapshot::from_edges(n, &edges);
        let members: Vec<NodeId> = (0..n as NodeId).filter(|&v| picks[v as usize] == 1).collect();
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
        // Many duplicate scores on purpose: ties exercise the
        // jitter-then-index arm of the total order.
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
                acc.push(pairs[i], scores[i], i);
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
