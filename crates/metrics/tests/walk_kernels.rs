//! Bitwise oracle for the batched walk kernels: every LRW and PPR score,
//! at every block width and thread count, equals the one-column
//! reference's entry for the pair's solve side times the one-sided
//! factor, on random graphs with isolated (dangling) nodes; and one cache
//! reused from a prefix graph to the full graph reproduces the reference's
//! iteration counts and scores exactly on both.

#[path = "oracle/walk_columns.rs"]
mod walk_columns;

use std::collections::BTreeMap;

use osn_graph::snapshot::Snapshot;
use osn_graph::{canonical, NodeId};
use osn_metrics::solver::{lrw_scores_with_width, ppr_scores_with_width, SolverCache};
use proptest::prelude::*;
use proptest::TestCaseError;
use walk_columns::{lrw_column, ppr_column, PprColumn};

const WIDTHS: [usize; 7] = [1, 2, 7, 8, 9, 17, 64];
const THREADS: [usize; 2] = [1, 2];
const ALPHA: f64 = 0.15;
const TOL: f64 = 1e-6;
const STEPS: usize = 3;

/// A graph of 2–40 nodes: random edges with a drawn set of nodes kept
/// isolated, so most graphs hold dangling rows.
fn arb_graph() -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId)>)> {
    (2usize..=40)
        .prop_flat_map(|n| {
            let edge = (0..n as u32, 0..n as u32).prop_filter("no loop", |(a, b)| a != b);
            (
                Just(n),
                proptest::collection::vec(edge, 1..3 * n),
                proptest::collection::vec(0..n as u32, 0..=n / 3),
            )
        })
        .prop_map(|(n, edges, isolated)| {
            let mut edges: Vec<(NodeId, NodeId)> = edges
                .into_iter()
                .filter(|(a, b)| !isolated.contains(a) && !isolated.contains(b))
                .map(|(a, b)| canonical(a, b))
                .collect();
            edges.sort_unstable();
            edges.dedup();
            (n, edges)
        })
        .prop_filter("at least one edge", |(_, edges)| !edges.is_empty())
}

fn all_pairs(n: usize) -> Vec<(NodeId, NodeId)> {
    let n = n as NodeId;
    (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v))).collect()
}

/// Each pair as `(side, partner)`: the endpoint in more of the batch's
/// pairs is the side, the lower id on a tie.
fn orient(pairs: &[(NodeId, NodeId)]) -> Vec<(NodeId, NodeId)> {
    let mut count = BTreeMap::new();
    for &(u, v) in pairs {
        *count.entry(u).or_insert(0) += 1;
        *count.entry(v).or_insert(0) += 1;
    }
    pairs
        .iter()
        .map(|&(u, v)| {
            let (cu, cv) = (count[&u], count[&v]);
            if cu > cv || (cu == cv && u <= v) {
                (u, v)
            } else {
                (v, u)
            }
        })
        .collect()
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// The reference PPR columns of the batch's sides.
fn ppr_columns(snap: &Snapshot, oriented: &[(NodeId, NodeId)]) -> BTreeMap<NodeId, PprColumn> {
    let mut cols = BTreeMap::new();
    for &(side, _) in oriented {
        cols.entry(side).or_insert_with(|| ppr_column(snap, side, ALPHA, TOL));
    }
    cols
}

/// `π_st·(1 + d_s/d_t)` from each pair's side column (factor 1 when
/// `d_t = 0`).
fn ppr_want(
    snap: &Snapshot,
    oriented: &[(NodeId, NodeId)],
    cols: &BTreeMap<NodeId, PprColumn>,
) -> Vec<f64> {
    oriented
        .iter()
        .map(|&(s, t)| {
            let d_t = snap.degree(t);
            let factor = if d_t == 0 { 1.0 } else { 1.0 + snap.degree(s) as f64 / d_t as f64 };
            cols[&s].x[t as usize] * factor
        })
        .collect()
}

/// Checks both kernels on one batch at every width and thread count.
fn check_batch(
    snap: &Snapshot,
    pairs: &[(NodeId, NodeId)],
    prune: f64,
) -> Result<(), TestCaseError> {
    let oriented = orient(pairs);
    let cols = ppr_columns(snap, &oriented);
    let ppr_want = bits(&ppr_want(snap, &oriented, &cols));
    let ppr_iterations: u64 = cols.values().map(|c| c.iterations).sum();
    let two_e = (2 * snap.edge_count()).max(1) as f64;
    let mut walks = BTreeMap::new();
    let lrw_want: Vec<f64> = oriented
        .iter()
        .map(|&(s, t)| {
            let x = walks.entry(s).or_insert_with(|| lrw_column(snap, s, STEPS, prune));
            2.0 * (snap.degree(s) as f64 / two_e) * x[t as usize]
        })
        .collect();
    let lrw_want = bits(&lrw_want);
    for width in WIDTHS {
        for threads in THREADS {
            let mut cache = SolverCache::transient();
            let ppr =
                ppr_scores_with_width(snap, pairs, ALPHA, TOL, threads, width, &mut cache, "PPR")
                    .expect("PPR converges");
            prop_assert_eq!(bits(&ppr), ppr_want, "PPR width {} threads {}", width, threads);
            prop_assert_eq!(cache.stats.ppr_iterations, ppr_iterations);
            prop_assert_eq!(cache.stats.ppr_sources, cols.len() as u64);
            let lrw = lrw_scores_with_width(snap, pairs, STEPS, prune, threads, width, "LRW")
                .expect("LRW stays finite");
            prop_assert_eq!(bits(&lrw), lrw_want, "LRW width {} threads {}", width, threads);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All pairs: every node ties, so side `u` scores `(u, v)`, and a
    /// batch spans several blocks at the narrow widths.
    #[test]
    fn all_pair_scores_equal_the_one_column_reference(
        (n, edges) in arb_graph(),
        prune in 0.0f64..0.05,
    ) {
        check_batch(&Snapshot::from_edges(n, &edges), &all_pairs(n), prune)?;
    }

    /// Every pair holding one node: the served query's one-column shape.
    #[test]
    fn one_source_scores_equal_the_one_column_reference(
        (n, edges, source) in arb_graph().prop_flat_map(|(n, edges)| {
            (Just(n), Just(edges), 0..n as u32)
        }),
        prune in 0.0f64..0.05,
    ) {
        let mut pairs: Vec<(NodeId, NodeId)> =
            (0..n as u32).filter(|&v| v != source).map(|v| canonical(source, v)).collect();
        pairs.sort_unstable();
        check_batch(&Snapshot::from_edges(n, &edges), &pairs, prune)?;
    }

    /// One cache reused from a prefix graph to the full graph: each
    /// graph's scores, iterations and sources are the reference's, so
    /// nothing the prefix solved reaches the full graph's columns.
    #[test]
    fn reused_cache_sweep_equals_the_cold_reference(
        (n, edges, cut) in arb_graph().prop_flat_map(|(n, edges)| {
            (Just(n), Just(edges), 0.0f64..1.0)
        }),
        width in 0..WIDTHS.len(),
        threads in 1usize..=2,
    ) {
        prop_assume!(n >= 3);
        let prefix_n = 2 + ((n - 2) as f64 * cut) as usize;
        prop_assume!(prefix_n < n);
        let prefix_edges: Vec<(NodeId, NodeId)> =
            edges.iter().copied().filter(|&(_, v)| (v as usize) < prefix_n).collect();
        prop_assume!(!prefix_edges.is_empty());
        let width = WIDTHS[width];
        let (prefix, full) =
            (Snapshot::from_edges(prefix_n, &prefix_edges), Snapshot::from_edges(n, &edges));

        let mut cache = SolverCache::transient();
        let mut want_iterations = 0;
        let mut want_sources = 0;
        for snap in [&prefix, &full] {
            let pairs = all_pairs(snap.node_count());
            let got =
                ppr_scores_with_width(snap, &pairs, ALPHA, TOL, threads, width, &mut cache, "PPR")
                    .expect("PPR converges");
            let oriented = orient(&pairs);
            let cols = ppr_columns(snap, &oriented);
            prop_assert_eq!(bits(&got), bits(&ppr_want(snap, &oriented, &cols)));
            want_iterations += cols.values().map(|c| c.iterations).sum::<u64>();
            want_sources += cols.len() as u64;
            prop_assert_eq!(cache.stats.ppr_iterations, want_iterations);
            prop_assert_eq!(cache.stats.ppr_sources, want_sources);
        }
    }
}
