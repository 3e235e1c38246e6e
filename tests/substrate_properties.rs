//! Property-based tests over the substrates: snapshot construction against
//! a naive reference, sequence invariants, sampling invariants, and
//! evaluation accounting.

use linklens::graph::sample::snowball;
use linklens::graph::sequence::SnapshotSequence;
use linklens::graph::snapshot::Snapshot;
use linklens::graph::temporal::TemporalGraph;
use linklens::graph::NodeId;
use proptest::prelude::*;
use std::collections::HashSet;

/// Strategy: a random temporal trace (all nodes at t = 0, increasing edge
/// times) with at least 4 edges.
fn arb_trace() -> impl Strategy<Value = TemporalGraph> {
    (5usize..=14).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32).prop_filter("no loop", |(a, b)| a != b);
        proptest::collection::vec(edge, 4..40).prop_map(move |raw| {
            let mut g = TemporalGraph::new();
            for _ in 0..n {
                g.add_node(0);
            }
            for (t, (a, b)) in (1u64..).zip(raw) {
                g.add_edge(a, b, t);
            }
            g
        })
    })
}

proptest! {
    #[test]
    fn snapshot_matches_naive_edge_set(g in arb_trace()) {
        let len = g.edge_count();
        let snap = Snapshot::up_to(&g, len);
        // Naive reference: collect prefix edges into a set.
        let reference: HashSet<(NodeId, NodeId)> =
            g.edges()[..len].iter().map(|e| (e.u, e.v)).collect();
        prop_assert_eq!(snap.edge_count(), reference.len());
        for &(u, v) in &reference {
            prop_assert!(snap.has_edge(u, v));
            prop_assert!(snap.has_edge(v, u));
        }
        // Degree sum = 2|E|.
        let degree_sum: usize = (0..snap.node_count() as NodeId).map(|u| snap.degree(u)).sum();
        prop_assert_eq!(degree_sum, 2 * snap.edge_count());
        // Neighbor lists sorted, no self loops.
        for u in 0..snap.node_count() as NodeId {
            let nbrs = snap.neighbors(u);
            prop_assert!(nbrs.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(!nbrs.contains(&u));
        }
    }

    #[test]
    fn snapshot_prefixes_are_monotone(g in arb_trace()) {
        let full = g.edge_count();
        let half = (full / 2).max(1);
        let early = Snapshot::up_to(&g, half);
        let late = Snapshot::up_to(&g, full);
        // Every early edge survives; every early edge time is preserved.
        for (u, v) in early.edges() {
            prop_assert!(late.has_edge(u, v));
            prop_assert_eq!(early.edge_time(u, v), late.edge_time(u, v));
        }
        prop_assert!(late.edge_count() >= early.edge_count());
    }

    #[test]
    fn sequence_partitions_the_trace(g in arb_trace()) {
        prop_assume!(g.edge_count() >= 6);
        let seq = SnapshotSequence::by_edge_delta(&g, 2);
        // Boundaries strictly increase and end at the full trace.
        for i in 1..seq.len() {
            prop_assert!(seq.boundary(i) > seq.boundary(i - 1));
        }
        prop_assert_eq!(seq.boundary(seq.len() - 1), g.edge_count());
        // Ground truth edges really are new and between existing nodes.
        for t in 1..seq.len() {
            let prev = seq.snapshot(t - 1);
            for (u, v) in seq.new_edges(t) {
                prop_assert!(!prev.has_edge(u, v), "truth edge already present");
                prop_assert!((u as usize) < prev.node_count());
                prop_assert!((v as usize) < prev.node_count());
            }
        }
    }

    #[test]
    fn snowball_size_and_membership(g in arb_trace(), p in 0.1f64..1.0) {
        let snap = Snapshot::up_to(&g, g.edge_count());
        let nodes = snowball(&snap, 0, p);
        let target = ((p * snap.node_count() as f64).ceil() as usize).min(snap.node_count());
        prop_assert_eq!(nodes.len(), target);
        prop_assert!(nodes.windows(2).all(|w| w[0] < w[1]), "sorted unique output");
        prop_assert!(nodes.iter().all(|&u| (u as usize) < snap.node_count()));
    }

    #[test]
    fn accuracy_ratio_accounting(g in arb_trace()) {
        prop_assume!(g.edge_count() >= 8);
        let seq = SnapshotSequence::by_edge_delta(&g, g.edge_count() / 3);
        let eval = linklens::core::framework::SequenceEvaluator::new(&seq);
        for t in 1..seq.len() {
            let out = eval.evaluate_metric(&linklens::metrics::fused::LocalKind::Cn, t);
            // correct ≤ k, ratio = correct / (k²/U).
            prop_assert!(out.correct <= out.k);
            if out.k > 0 && out.random_expected > 0.0 {
                let expect = out.correct as f64 / out.random_expected;
                prop_assert!((out.accuracy_ratio - expect).abs() < 1e-9);
            }
        }
    }
}
