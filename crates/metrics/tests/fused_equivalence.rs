//! Bit-identity of the source-batched fused scoring kernel: for every
//! local metric (CN, JC, AA, RA, PA, BCN, BAA, BRA), every engine entry
//! point, and every worker count, the fused path must produce *the same
//! bits* as the per-pair references in `linklens_bench::oracles::local` —
//! same scores, same top-k pairs in the same order. Runs with audits
//! forced on (the same checks `--paranoid` enables in release), so the
//! kernel also satisfies every metric's score contract along the way.

use linklens_bench::oracles;
use osn_graph::snapshot::Snapshot;
use osn_graph::NodeId;
use osn_metrics::candidates::CandidateSet;
use osn_metrics::exec;
use osn_metrics::fused::{self, FusedCtx, FusedScratch, LocalKind};
use osn_metrics::solver::SolverCache;
use osn_metrics::topk::top_k_pairs;
use osn_metrics::traits::{CandidatePolicy, Metric};
use proptest::prelude::*;

/// The fused kernel's metrics, paired with their kernel kinds.
fn fused_metrics() -> Vec<(Box<dyn Metric>, LocalKind)> {
    [
        ("CN", LocalKind::Cn),
        ("JC", LocalKind::Jc),
        ("AA", LocalKind::Aa),
        ("RA", LocalKind::Ra),
        ("PA", LocalKind::Pa),
        ("BCN", LocalKind::Bcn),
        ("BAA", LocalKind::Baa),
        ("BRA", LocalKind::Bra),
    ]
    .into_iter()
    .map(|(name, kind)| {
        let m = osn_metrics::metric_by_name(name).expect("known metric");
        assert_eq!(m.fused_kind(), Some(kind), "{name} must advertise its kernel kind");
        (m, kind)
    })
    .collect()
}

/// The per-pair path: a fused metric's reference from the oracle module
/// in source-aligned chunks over `threads` workers, as the engine chunks
/// a batch; any other metric through its own hook.
fn per_pair(
    m: &dyn Metric,
    snap: &Snapshot,
    pairs: &[(NodeId, NodeId)],
    threads: usize,
) -> Vec<f64> {
    match oracles::local::per_pair(m.name()) {
        Some(oracle) => exec::score_chunked(pairs, threads, |chunk| oracle(snap, chunk)),
        None => m.score_pairs_cached(snap, pairs, threads, &mut SolverCache::transient()),
    }
}

/// The serial per-pair reference of a fused metric, over the whole batch.
fn direct(m: &dyn Metric, snap: &Snapshot, pairs: &[(NodeId, NodeId)]) -> Vec<f64> {
    oracles::local::per_pair(m.name()).expect("fused metric")(snap, pairs)
}

/// Two bridged triangles plus a pendant path.
fn fixture() -> Snapshot {
    Snapshot::from_edges(
        8,
        &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5), (5, 6), (6, 7)],
    )
}

/// The kernel's columns for every kind at once, out of one context.
fn all_columns(snap: &Snapshot, pairs: &[(NodeId, NodeId)]) -> Vec<Vec<f64>> {
    let ctx = FusedCtx::build(snap, &LocalKind::ALL);
    let mut scratch = FusedScratch::new(snap.node_count());
    fused::score_columns(&ctx, &mut scratch, pairs, &LocalKind::ALL)
}

#[test]
fn fused_columns_match_per_pair_scoring() {
    let snap = fixture();
    let cands = CandidateSet::build(&snap, CandidatePolicy::ThreeHop, 0);
    let cols = all_columns(&snap, cands.pairs());
    for ((m, kind), col) in fused_metrics().into_iter().zip(cols) {
        assert_eq!(col, direct(m.as_ref(), &snap, cands.pairs()), "{kind:?}");
    }
}

#[test]
fn fused_handles_duplicate_and_noncanonical_pairs() {
    let snap = fixture();
    // Duplicates, a reversed pair, and an existing edge — the kernel
    // must score whatever it is handed, like the per-pair path does.
    let pairs = [(0u32, 4u32), (0, 4), (4, 0), (0, 1), (1, 7)];
    let cols = all_columns(&snap, &pairs);
    for ((m, kind), col) in fused_metrics().into_iter().zip(cols) {
        assert_eq!(col, direct(m.as_ref(), &snap, &pairs), "{kind:?}");
    }
}

/// Random graphs big enough to give multi-source, multi-witness candidate
/// sets but small enough to keep 10 cases × 8 metrics × 4 thread counts
/// fast (the parallel_determinism idiom).
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

    /// score_pairs_t (fused dispatch) == the serial per-pair reference ==
    /// the chunked per-pair reference, bit for bit, at every thread count, on
    /// both a TwoHop and a Global candidate set (the latter includes
    /// distance-3 and hub pairs the walk must score as zero-witness).
    #[test]
    fn fused_scores_are_bit_identical((n, edges) in arb_graph()) {
        let snap = Snapshot::from_edges(n, &edges);
        for policy in [CandidatePolicy::TwoHop, CandidatePolicy::Global] {
            let cands = CandidateSet::build(&snap, policy, 3);
            prop_assume!(!cands.is_empty());
            for (m, _) in fused_metrics() {
                let direct = direct(m.as_ref(), &snap, cands.pairs());
                for threads in [1usize, 2, 4, 8] {
                    let fused = exec::score_pairs_t(m.as_ref(), &snap, cands.pairs(), threads);
                    prop_assert_eq!(
                        &fused, &direct,
                        "{} fused != direct at {} threads ({:?})", m.name(), threads, policy
                    );
                    let per_pair = per_pair(m.as_ref(), &snap, cands.pairs(), threads);
                    prop_assert_eq!(
                        &fused, &per_pair,
                        "{} fused != per-pair at {} threads ({:?})", m.name(), threads, policy
                    );
                }
            }
        }
    }

    /// The engine's top-k (fused dispatch, streaming per-chunk heaps)
    /// returns exactly the pairs — and the tie-break order — of the
    /// per-pair path, at every thread count.
    #[test]
    fn fused_top_k_is_bit_identical((n, edges) in arb_graph()) {
        let snap = Snapshot::from_edges(n, &edges);
        let cands = CandidateSet::build(&snap, CandidatePolicy::TwoHop, 0);
        prop_assume!(!cands.is_empty());
        let k = (cands.len() / 2).max(1);
        for (m, _) in fused_metrics() {
            let scores = per_pair(m.as_ref(), &snap, cands.pairs(), 1);
            let baseline = top_k_pairs(cands.pairs(), &scores, k, 0x5EED);
            for threads in [1usize, 2, 4, 8] {
                let mut cache = SolverCache::transient();
                let fused = exec::predict_top_k_many_cached_t(
                    &[m.as_ref()], &snap, &cands, k, 0x5EED, threads, &mut cache,
                )
                .remove(0);
                prop_assert_eq!(
                    &fused, &baseline,
                    "{} top-k diverged at {} threads", m.name(), threads
                );
            }
        }
    }

    /// The multi-metric engine paths (feature matrix, grouped top-k) with
    /// a mixed batch — fused metrics interleaved with non-fused ones —
    /// equal the per-pair baselines column for column.
    #[test]
    fn fused_group_paths_are_bit_identical((n, edges) in arb_graph()) {
        let snap = Snapshot::from_edges(n, &edges);
        let cands = CandidateSet::build(&snap, CandidatePolicy::Global, 2);
        prop_assume!(!cands.is_empty());
        let metrics = osn_metrics::all_metrics();
        let refs: Vec<&dyn Metric> = metrics.iter().map(|m| m.as_ref()).collect();
        let k = (cands.len() / 2).max(1);
        let matrix_base: Vec<Vec<f64>> =
            refs.iter().map(|&m| per_pair(m, &snap, cands.pairs(), 1)).collect();
        let topk_base: Vec<Vec<(NodeId, NodeId)>> =
            matrix_base.iter().map(|col| top_k_pairs(cands.pairs(), col, k, 0x11A5)).collect();
        for threads in [1usize, 3] {
            let mut cache = SolverCache::transient();
            let matrix = exec::score_matrix_cached_t(&refs, &snap, cands.pairs(), threads, &mut cache);
            let topk = exec::predict_top_k_many_cached_t(
                &refs, &snap, &cands, k, 0x11A5, threads, &mut SolverCache::transient(),
            );
            for (i, m) in refs.iter().enumerate() {
                prop_assert_eq!(
                    &matrix[i], &matrix_base[i],
                    "{} matrix column diverged at {} threads", m.name(), threads
                );
                prop_assert_eq!(
                    &topk[i], &topk_base[i],
                    "{} grouped top-k diverged at {} threads", m.name(), threads
                );
            }
        }
    }
}
