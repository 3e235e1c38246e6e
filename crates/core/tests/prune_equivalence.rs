//! Equivalence of the §6.2 temporal filter's node-activity predicate
//! with the per-pair feature scan oracle
//! (`linklens_bench::oracles::candidates`). For every Table 7 preset and
//! for threshold sets with infinite bounds, [`TemporalFilter::filter_pairs`]
//! over every unordered pair of a snapshot keeps exactly the pairs the
//! scan keeps, isolated nodes and pairs beyond 3 hops included: the pairs
//! a sampled universe passes. For every candidate policy and worker count,
//! pruning the criteria *inside* candidate enumeration yields exactly the
//! pairs — in exactly the order — that the scan keeps on the unpruned set
//! (`posthoc`), and the batched top-k over those survivors is
//! bit-identical to the oracle path's. This is the property that lets the
//! framework sweep route every filtered evaluation through the pruned
//! walks without ever re-checking a pair.

use linklens_bench::oracles;
use linklens_core::filters::TemporalFilter;
use linklens_core::framework::SequenceEvaluator;
use osn_graph::activity::NodeActivity;
use osn_graph::sequence::SnapshotSequence;
use osn_graph::snapshot::Snapshot;
use osn_graph::temporal::TemporalGraph;
use osn_graph::NodeId;
use osn_metrics::candidates::CandidateSet;
use osn_metrics::exec;
use osn_metrics::solver::SolverCache;
use osn_metrics::traits::{CandidatePolicy, Metric};
use proptest::prelude::*;

const PRESETS: &[&str] = &["facebook", "youtube", "renren"];

/// Table 7's rows, plus two sets with infinite bounds, as
/// `PositiveFeatureStats::thresholds_at(1.0)` derives them when a
/// positive's endpoint has no edge: one admits any inactive endpoint and
/// any CN gap, one admits every idle time with no recent-edge floor.
fn filters() -> Vec<(&'static str, TemporalFilter)> {
    let mut all: Vec<(&'static str, TemporalFilter)> = PRESETS
        .iter()
        .map(|&p| (p, TemporalFilter::for_preset(p).expect("known preset")))
        .collect();
    all.push((
        "facebook, unbounded inactive idle and CN gap",
        TemporalFilter {
            inactive_idle_days: f64::INFINITY,
            cn_gap_days: f64::INFINITY,
            ..TemporalFilter::facebook()
        },
    ));
    all.push((
        "youtube, unbounded idle times",
        TemporalFilter {
            active_idle_days: f64::INFINITY,
            inactive_idle_days: f64::INFINITY,
            min_recent_edges: 0,
            ..TemporalFilter::youtube()
        },
    ));
    all
}

/// Random temporal traces: all nodes arrive at t = 0, edges carry
/// day-granular timestamps spread over ~60 days (so every Table 7
/// threshold — idle cutoffs up to 40 days, windows up to 21 — can both
/// pass and reject pairs), applied in non-decreasing time order.
fn arb_trace() -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId, osn_graph::Timestamp)>)> {
    (10usize..=22).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32, 0u64..60)
            .prop_filter("no loop", |(a, b, _)| a != b)
            .prop_map(|(a, b, day)| {
                let (u, v) = osn_graph::canonical(a, b);
                (u, v, day * osn_graph::DAY)
            });
        proptest::collection::vec(edge, 10..60).prop_map(move |e| (n, e))
    })
}

fn build_trace(n: usize, edges: &[(NodeId, NodeId, osn_graph::Timestamp)]) -> TemporalGraph {
    let mut g = TemporalGraph::new();
    for _ in 0..n {
        g.add_node(0);
    }
    let mut timed = edges.to_vec();
    timed.sort_by_key(|&(_, _, t)| t);
    for (a, b, t) in timed {
        // Duplicate (and reverse-duplicate) edges are ignored by the
        // trace; the first timestamp wins, matching real trace ingestion.
        g.add_edge(a, b, t);
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Candidate-level identity: for each filter, `filter_pairs` over
    /// every unordered pair equals the per-pair scan, and for each policy
    /// the pruned enumeration equals the scan's filtering of the unpruned
    /// enumeration — same pairs, same order.
    #[test]
    fn pruned_candidates_equal_posthoc_for_all_presets((n, edges) in arb_trace()) {
        let trace = build_trace(n, &edges);
        prop_assume!(trace.edge_count() >= 4);
        let snap = Snapshot::up_to(&trace, trace.edge_count());
        let nodes = snap.node_count() as NodeId;
        let every_pair: Vec<(NodeId, NodeId)> =
            (0..nodes).flat_map(|u| (u + 1..nodes).map(move |v| (u, v))).collect();
        for (name, f) in filters() {
            let scan = |pairs: &[(NodeId, NodeId)]| -> Vec<(NodeId, NodeId)> {
                pairs
                    .iter()
                    .copied()
                    .filter(|&(u, v)| oracles::candidates::passes(&f, &snap, u, v))
                    .collect()
            };
            prop_assert_eq!(
                f.filter_pairs(&snap, &every_pair), scan(&every_pair),
                "{}: filter_pairs over every pair != per-pair scan", name
            );
            let act = NodeActivity::build(&snap, &f);
            for policy in
                [CandidatePolicy::TwoHop, CandidatePolicy::ThreeHop, CandidatePolicy::Global]
            {
                let full = CandidateSet::build(&snap, policy, 3);
                let pruned = CandidateSet::build_pruned(&snap, policy, 3, Some(&act));
                prop_assert_eq!(
                    pruned.pairs(), &scan(full.pairs())[..],
                    "{} {:?}: pruned enumeration != post-hoc filter", name, policy
                );
            }
        }
    }

    /// Framework-level identity: the evaluator's pruned candidate build
    /// equals its post-hoc oracle, and the batched multi-metric top-k over
    /// the pruned set is bit-identical — pairs and tie-break order — to
    /// the oracle set's at every worker count. Each worker count scores a
    /// clone, whose memo starts empty, so it factors at that count.
    #[test]
    fn pruned_topk_bit_identical_across_threads((n, edges) in arb_trace()) {
        let trace = build_trace(n, &edges);
        prop_assume!(trace.edge_count() >= 4);
        let seq = SnapshotSequence::by_edge_delta(&trace, trace.edge_count() / 2);
        let eval = SequenceEvaluator::new(&seq);
        let snap = Snapshot::up_to(&trace, trace.edge_count());
        let metrics = osn_metrics::all_metrics();
        let refs: Vec<&dyn Metric> = metrics.iter().map(|m| m.as_ref()).collect();
        for preset in PRESETS {
            let f = TemporalFilter::for_preset(preset).expect("known preset");
            let pruned = eval.candidates_for(&snap, &refs, Some(&f));
            let posthoc = oracles::candidates::posthoc(&eval, &snap, &refs, Some(&f));
            prop_assert_eq!(pruned.pairs(), posthoc.pairs(), "{}: candidate drift", preset);
            if pruned.is_empty() {
                continue;
            }
            let k = (pruned.len() / 2).max(1);
            let mut cache = SolverCache::transient();
            let base =
                exec::predict_top_k_many_cached_t(&refs, &snap, &posthoc, k, 0x11A5, 1, &mut cache);
            for threads in [1usize, 2, 4, 8] {
                let mut cache = SolverCache::transient();
                let got = exec::predict_top_k_many_cached_t(
                    &refs, &snap.clone(), &pruned, k, 0x11A5, threads, &mut cache,
                );
                for (i, m) in refs.iter().enumerate() {
                    prop_assert_eq!(
                        &got[i], &base[i],
                        "{} {}: top-k diverged at {} threads", preset, m.name(), threads
                    );
                }
            }
        }
    }

    /// End-to-end: `SequenceEvaluator::predictions_many` (the batched,
    /// pruned route) returns, for each metric, exactly the top-k the
    /// oracle path computes from that metric's own post-hoc-filtered
    /// candidate set (the sweep groups metrics by candidate policy, so
    /// each metric is judged on its policy's set, not the loosest one).
    #[test]
    fn framework_predictions_match_posthoc_oracle((n, edges) in arb_trace()) {
        let trace = build_trace(n, &edges);
        prop_assume!(trace.edge_count() >= 8);
        let seq = SnapshotSequence::by_edge_delta(&trace, trace.edge_count() / 2);
        prop_assume!(seq.len() >= 2);
        let eval = SequenceEvaluator::new(&seq);
        let prev = seq.snapshot(0);
        let truth = eval.ground_truth(1);
        prop_assume!(!truth.is_empty());
        let metrics = osn_metrics::all_metrics();
        let refs: Vec<&dyn Metric> = metrics.iter().map(|m| m.as_ref()).collect();
        for preset in PRESETS {
            let f = TemporalFilter::for_preset(preset).expect("known preset");
            let (batched, _) = eval.predictions_many(&refs, 1, Some(&f));
            for (i, &m) in refs.iter().enumerate() {
                let posthoc = oracles::candidates::posthoc(&eval, &prev, &[m], Some(&f));
                let mut cache = SolverCache::transient();
                let oracle = exec::predict_top_k_many_cached_t(
                    &[m], &prev, &posthoc, truth.len(), eval.seed, 1, &mut cache,
                );
                prop_assert_eq!(
                    &batched[i], &oracle[0],
                    "{} {}: sweep route != oracle route", preset, m.name()
                );
            }
        }
    }
}
