//! Graph strategies shared by the metrics crate's integration tests, and
//! the engine harness ([`harness`]). Each test file passes its own size
//! band, so its generated cases stay the ones it has always drawn.

// Each test binary compiles this module and uses part of it.
#![allow(dead_code)]

pub mod harness;

use osn_graph::snapshot::Snapshot;
use osn_graph::NodeId;
use osn_metrics::candidates::CandidateSet;
use osn_metrics::traits::CandidatePolicy;
use proptest::prelude::*;
use std::ops::{Range, RangeInclusive};

/// A random simple graph: a node count drawn from `nodes`, then a draw
/// of `edges` random non-loop edges, canonical, sorted and deduplicated.
pub fn arb_graph(
    nodes: RangeInclusive<usize>,
    edges: Range<usize>,
) -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId)>)> {
    nodes.prop_flat_map(move |n| {
        proptest::collection::vec(arb_edge(n), edges.clone()).prop_map(move |mut e| {
            e.sort_unstable();
            e.dedup();
            (n, e)
        })
    })
}

/// A monotone snapshot sweep on 10–20 nodes: a base edge set plus 2
/// growth batches, each kept only when it adds at least one new edge, so
/// every snapshot has a distinct `(nodes, edges)` cache key, as in a real
/// growth trace.
pub fn arb_sweep() -> impl Strategy<Value = (usize, Vec<Vec<(NodeId, NodeId)>>)> {
    (10usize..=20).prop_flat_map(|n| {
        (
            proptest::collection::vec(arb_edge(n), 6..30),
            proptest::collection::vec(proptest::collection::vec(arb_edge(n), 1..8), 2..=2),
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

/// A random canonical non-loop edge on `n` nodes.
fn arb_edge(n: usize) -> impl Strategy<Value = (NodeId, NodeId)> {
    (0..n as u32, 0..n as u32)
        .prop_filter("no loop", |(a, b)| a != b)
        .prop_map(|(a, b)| osn_graph::canonical(a, b))
}

/// The snapshot's `ThreeHop` candidate pairs.
pub fn candidate_pairs(snap: &Snapshot) -> Vec<(NodeId, NodeId)> {
    CandidateSet::build(snap, CandidatePolicy::ThreeHop, 0).pairs().to_vec()
}
