//! Property-based tests over the metric implementations, scored through
//! the engine on randomized small graphs: symmetry, bounds, cross-metric
//! consistency, and agreement with brute-force reference implementations.

use linklens::graph::snapshot::Snapshot;
use linklens::graph::NodeId;
use linklens::metrics::exec::score_pairs_t;
use linklens::metrics::fused::LocalKind;
use linklens::metrics::path::LocalPath;
use proptest::prelude::*;

/// Strategy: a random graph of 4..=16 nodes with random edges, guaranteed
/// at least one edge.
fn arb_graph() -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId)>)> {
    (4usize..=16).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32)
            .prop_filter("no self loop", |(a, b)| a != b)
            .prop_map(|(a, b)| linklens::graph::canonical(a, b));
        proptest::collection::vec(edge, 1..40).prop_map(move |mut edges| {
            edges.sort_unstable();
            edges.dedup();
            (n, edges)
        })
    })
}

/// All unconnected pairs of the graph, canonical.
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
    #[test]
    fn metric_scores_symmetric_and_finite((n, edges) in arb_graph()) {
        let snap = Snapshot::from_edges(n, &edges);
        let pairs = unconnected_pairs(&snap);
        if pairs.is_empty() { return Ok(()); }
        let reversed: Vec<_> = pairs.iter().map(|&(u, v)| (v, u)).collect();
        for metric in linklens::metrics::all_metrics() {
            // Skip stochastic-precision metrics whose two-pass grouping is
            // still deterministic; all metrics must be pair-order invariant.
            let a = score_pairs_t(metric.as_ref(), &snap, &pairs, 1);
            let b = score_pairs_t(metric.as_ref(), &snap, &reversed, 1);
            for i in 0..pairs.len() {
                prop_assert!(a[i].is_finite(), "{} produced non-finite score", metric.name());
                prop_assert!((a[i] - b[i]).abs() < 1e-9,
                    "{} not symmetric on {:?}: {} vs {}", metric.name(), pairs[i], a[i], b[i]);
            }
        }
    }

    #[test]
    fn jc_bounded_and_consistent_with_cn((n, edges) in arb_graph()) {
        let snap = Snapshot::from_edges(n, &edges);
        let pairs = unconnected_pairs(&snap);
        if pairs.is_empty() { return Ok(()); }
        let jc = score_pairs_t(&LocalKind::Jc, &snap, &pairs, 1);
        let cn = score_pairs_t(&LocalKind::Cn, &snap, &pairs, 1);
        for i in 0..pairs.len() {
            prop_assert!((0.0..=1.0).contains(&jc[i]));
            prop_assert_eq!(jc[i] == 0.0, cn[i] == 0.0, "JC and CN must vanish together");
        }
    }

    #[test]
    fn ra_and_aa_bounded_by_cn((n, edges) in arb_graph()) {
        let snap = Snapshot::from_edges(n, &edges);
        let pairs = unconnected_pairs(&snap);
        if pairs.is_empty() { return Ok(()); }
        let cn = score_pairs_t(&LocalKind::Cn, &snap, &pairs, 1);
        let ra = score_pairs_t(&LocalKind::Ra, &snap, &pairs, 1);
        let aa = score_pairs_t(&LocalKind::Aa, &snap, &pairs, 1);
        for i in 0..pairs.len() {
            // Witness degree ≥ 2 ⇒ RA ≤ CN/2 and AA ≤ CN/ln 2.
            prop_assert!(ra[i] <= cn[i] / 2.0 + 1e-9);
            prop_assert!(aa[i] <= cn[i] / 2.0f64.ln() + 1e-9);
            prop_assert!(ra[i] >= 0.0 && aa[i] >= 0.0);
        }
    }

    #[test]
    fn cn_matches_brute_force((n, edges) in arb_graph()) {
        let snap = Snapshot::from_edges(n, &edges);
        let pairs = unconnected_pairs(&snap);
        if pairs.is_empty() { return Ok(()); }
        let cn = score_pairs_t(&LocalKind::Cn, &snap, &pairs, 1);
        for (i, &(u, v)) in pairs.iter().enumerate() {
            let brute = (0..n as NodeId)
                .filter(|&w| w != u && w != v && snap.has_edge(u, w) && snap.has_edge(v, w))
                .count() as f64;
            prop_assert_eq!(cn[i], brute);
        }
    }

    #[test]
    fn lp_reduces_to_cn_at_zero_epsilon((n, edges) in arb_graph()) {
        let snap = Snapshot::from_edges(n, &edges);
        let pairs = unconnected_pairs(&snap);
        if pairs.is_empty() { return Ok(()); }
        let lp = score_pairs_t(&LocalPath { epsilon: 0.0 }, &snap, &pairs, 1);
        let cn = score_pairs_t(&LocalKind::Cn, &snap, &pairs, 1);
        prop_assert_eq!(lp, cn);
    }

    #[test]
    fn pa_is_exactly_degree_product((n, edges) in arb_graph()) {
        let snap = Snapshot::from_edges(n, &edges);
        let pairs = unconnected_pairs(&snap);
        if pairs.is_empty() { return Ok(()); }
        let pa = score_pairs_t(&LocalKind::Pa, &snap, &pairs, 1);
        for (i, &(u, v)) in pairs.iter().enumerate() {
            prop_assert_eq!(pa[i], (snap.degree(u) * snap.degree(v)) as f64);
        }
    }

    #[test]
    fn top_k_is_a_sorted_prefix((n, edges) in arb_graph(), k in 1usize..10) {
        let snap = Snapshot::from_edges(n, &edges);
        let pairs = unconnected_pairs(&snap);
        if pairs.is_empty() { return Ok(()); }
        let scores = score_pairs_t(&LocalKind::Cn, &snap, &pairs, 1);
        let top = linklens::metrics::topk::top_k_pairs(&pairs, &scores, k, 1);
        prop_assert!(top.len() == k.min(pairs.len()));
        // Every selected pair's score must be ≥ every unselected pair's.
        let sel: std::collections::HashSet<_> = top.iter().collect();
        let min_sel = top.iter()
            .map(|p| scores[pairs.iter().position(|q| q == p).unwrap()])
            .fold(f64::INFINITY, f64::min);
        for (i, p) in pairs.iter().enumerate() {
            if !sel.contains(p) {
                prop_assert!(scores[i] <= min_sel + 1e-12);
            }
        }
    }
}
