//! Properties of the sampled-evaluation mode (DESIGN.md §16): the
//! estimate is bit-identical for a fixed seed across worker counts,
//! cache section sizes, and reader window sizes; snowball draws handle
//! multi-component graphs by documented restart; the candidate-restricted
//! universe equals its whole-list oracle; and the sampled mean accuracy
//! ratio tracks the full evaluation on a small preset in the regime where
//! the full evaluation is itself statistically meaningful.
//!
//! The sampled estimate's draws are memoized on the snapshot: metrics
//! estimated on one snapshot with one spec and filter share one set, each
//! estimate equals the metric's on a fresh snapshot, and another spec or
//! filter gets its own draws.
//!
//! Also the §5 sampled instance the classification rows read: repeated
//! `cells` calls equal calls on fresh instances, `metric_outcome` does not
//! depend on whether `cells` ran, and a filtered instance scores exactly
//! the unfiltered pairs that pass the filter, with the same truth and
//! universe.

use linklens_bench::oracles;
use linklens_core::classify::{ClassificationConfig, ClassificationPipeline, ClassifierKind};
use linklens_core::filters::TemporalFilter;
use linklens_core::framework::SequenceEvaluator;
use linklens_core::sampling::{self, SampleSpec};
use osn_graph::builder::SnapshotBuilder;
use osn_graph::io::{CacheStreamWriter, SectionedCacheReader};
use osn_graph::sample::snowball;
use osn_graph::sequence::SnapshotSequence;
use osn_graph::snapshot::Snapshot;
use osn_graph::stream::StreamingSequence;
use osn_graph::{traversal, NodeId};
use osn_metrics::fused::LocalKind;
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

/// One streaming-path sampled estimate: generate with the streaming
/// generator into a sectioned cache (at `section_bytes`), then evaluate
/// through the windowed reader (at `max_window` edges) on transition
/// `t_eval` of an 8-snapshot sequence.
fn streaming_estimate(
    section_bytes: usize,
    max_window: usize,
    tag: &str,
) -> linklens_core::sampling::SampledEstimate {
    let cfg = osn_trace::presets::TraceConfig::renren_like().scaled(0.08).with_days(30);
    let mut sink =
        CacheStreamWriter::with_section_bytes(Vec::new(), section_bytes).expect("vec writer");
    osn_trace::stream::generate_streaming(&cfg, 7, &mut sink).expect("streaming generation");
    let (bytes, _) = sink.finish().expect("finish cache");
    let path = std::env::temp_dir()
        .join(format!("linklens_sampled_eval_{}_{tag}.lltc", std::process::id()));
    std::fs::write(&path, bytes).expect("write cache file");

    let t_eval = 5usize;
    let reader = SectionedCacheReader::open(&path).expect("open cache");
    let mut seq = StreamingSequence::with_count(reader, 8);
    seq.set_max_window(max_window);
    let truth: HashSet<(NodeId, NodeId)> =
        seq.new_edges(t_eval).expect("windowed truth").into_iter().collect();
    let boundary = seq.boundary(t_eval - 1);
    let mut builder = SnapshotBuilder::with_max_window(seq.into_reader(), max_window);
    let prev = builder.advance_to(boundary).expect("advance");
    let est = sampling::evaluate_metric_sampled_on(
        &LocalKind::Cn,
        prev,
        &truth,
        t_eval,
        None,
        &SampleSpec::default(),
    );
    std::fs::remove_file(&path).ok();
    est
}

/// Tentpole determinism property: the sampled streaming evaluation is
/// bit-identical for a fixed seed across worker counts, cache section
/// sizes, and delta-window sizes. Thread override is process-global, so
/// every variation lives inside this one test, run sequentially.
#[test]
fn sampled_streaming_eval_bit_identical_across_threads_sections_windows() {
    let reference = streaming_estimate(1 << 20, 1 << 20, "ref");
    assert!(!reference.per_draw_ratios.is_empty(), "reference must have draws");
    for threads in [1usize, 2, 4] {
        osn_graph::par::set_thread_override(Some(threads));
        for section_bytes in [1 << 12, 1 << 20] {
            for max_window in [64usize, 1 << 20] {
                let tag = format!("t{threads}s{section_bytes}w{max_window}");
                let est = streaming_estimate(section_bytes, max_window, &tag);
                let same_bits = est
                    .per_draw_ratios
                    .iter()
                    .zip(&reference.per_draw_ratios)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(
                    same_bits
                        && est.per_draw_ratios.len() == reference.per_draw_ratios.len()
                        && est.mean_accuracy_ratio.to_bits()
                            == reference.mean_accuracy_ratio.to_bits()
                        && est.mean_k.to_bits() == reference.mean_k.to_bits()
                        && est.mean_sample_size.to_bits() == reference.mean_sample_size.to_bits(),
                    "threads={threads} section_bytes={section_bytes} max_window={max_window}: \
                     {est:?} != {reference:?}"
                );
            }
        }
    }
    osn_graph::par::set_thread_override(None);
}

/// Satellite agreement property: on a small renren-like preset at a
/// transition where the full evaluation lands a meaningful number of
/// correct predictions, the repeat-averaged sampled accuracy ratio is
/// within a factor 2 of the full-universe ratio. (Transitions where the
/// full evaluator itself only gets 1–3 hits are tie-break noise and are
/// exactly the regime the `large_trace` scenario gates its assert on.)
#[test]
fn sampled_mean_ratio_tracks_full_evaluation_on_small_preset() {
    let cfg = osn_trace::presets::TraceConfig::renren_like().scaled(0.1).with_days(45);
    let trace = cfg.generate(42);
    let seq = SnapshotSequence::with_count(&trace, 12);
    let eval = SequenceEvaluator::new(&seq);
    let cn = LocalKind::Cn;
    let t = 6;
    let full = &eval.evaluate_metrics_at(&[&cn], t, None)[0];
    let full_correct = (full.absolute_accuracy * full.k as f64).round();
    assert!(
        full_correct >= 4.0,
        "test premise broke: full eval only got {full_correct} correct — pick another transition"
    );
    let spec = SampleSpec { p: 0.5, draws: 6, ..SampleSpec::default() };
    let est = sampling::evaluate_metric_sampled_on(
        &cn,
        &seq.snapshot(t - 1),
        &eval.ground_truth(t),
        t,
        None,
        &spec,
    );
    assert_eq!(est.per_draw_ratios.len(), 6);
    let factor = (est.mean_accuracy_ratio / full.accuracy_ratio)
        .max(full.accuracy_ratio / est.mean_accuracy_ratio);
    assert!(
        factor.is_finite() && factor <= 2.0,
        "sampled mean ratio {:.2} vs full {:.2}: disagreement factor {factor:.2}",
        est.mean_accuracy_ratio,
        full.accuracy_ratio
    );
    assert!(est.std_accuracy_ratio.is_finite(), "per-draw variance must be reported");
}

/// A small renren-like sequence and a §5 pipeline over it: two snowball
/// seeds, each sampling a third of the nodes.
fn instance_fixture() -> (osn_trace::GrowthTrace, ClassificationConfig) {
    let trace =
        osn_trace::presets::TraceConfig::renren_like().scaled(0.05).with_days(30).generate(5);
    (trace, ClassificationConfig { sampling_p: 0.3, n_seeds: 2, seed: 11 })
}

/// Two `cells` calls on one instance (θ = 1, then θ = 10) give the bits
/// of the same calls on fresh instances: the features computed on the
/// first call serve the second, and each call draws its own negatives.
#[test]
fn instance_cells_calls_match_fresh_instances() {
    let (trace, cfg) = instance_fixture();
    let seq = SnapshotSequence::with_count(&trace, 6);
    let pipe = ClassificationPipeline::new(&seq, cfg);
    let kinds = [ClassifierKind::Svm, ClassifierKind::LogisticRegression];
    let shared = pipe.instance(4, None);
    for theta in [1.0, 10.0] {
        let reused = shared.cells(&kinds, &[theta]);
        let fresh = pipe.instance(4, None).cells(&kinds, &[theta]);
        assert_eq!(reused.len(), 2);
        assert!(reused[0].mean_k > 0.0, "the fixture must have in-sample truth");
        assert_eq!(format!("{reused:?}"), format!("{fresh:?}"), "θ = {theta}");
    }
}

/// A metric point reads only the draws: it is the same before and after
/// `cells` computes the instance's features.
#[test]
fn metric_outcome_is_unchanged_by_cells() {
    let (trace, cfg) = instance_fixture();
    let seq = SnapshotSequence::with_count(&trace, 6);
    let pipe = ClassificationPipeline::new(&seq, cfg);
    let instance = pipe.instance(4, None);
    let before = instance.metric_outcome(&LocalKind::Ra);
    let _ = instance.cells(&[ClassifierKind::Svm], &[5.0]);
    let after = instance.metric_outcome(&LocalKind::Ra);
    assert!(before.k > 0, "the fixture must have in-sample truth");
    assert_eq!(format!("{before:?}"), format!("{after:?}"));
}

/// The temporal filter narrows only the scored pairs: a filtered
/// instance scores exactly the unfiltered instance's pairs that pass the
/// filter on `G_{t-1}` (by the per-pair feature scan oracle), in order,
/// and keeps each seed's truth, universe and sample size.
#[test]
fn filtered_instance_scores_the_unfiltered_pairs_that_pass() {
    let (trace, cfg) = instance_fixture();
    let seq = SnapshotSequence::with_count(&trace, 6);
    let pipe = ClassificationPipeline::new(&seq, cfg);
    let t = 4;
    let filter = TemporalFilter::renren();
    let (plain, filtered) = (pipe.instance(t, None), pipe.instance(t, Some(&filter)));
    let observed = seq.snapshot(t - 1);
    assert_eq!(plain.diagnostics().len(), filtered.diagnostics().len());
    let mut dropped = 0;
    for (p, f) in plain.diagnostics().iter().zip(filtered.diagnostics()) {
        let passing: Vec<(NodeId, NodeId)> = p
            .sample
            .pairs
            .iter()
            .copied()
            .filter(|&(u, v)| oracles::candidates::passes(&filter, &observed, u, v))
            .collect();
        dropped += p.sample.pairs.len() - passing.len();
        assert_eq!(f.sample.pairs, passing);
        assert_eq!(f.truth, p.truth, "k and truth do not depend on the filter");
        assert_eq!(f.sample.universe.to_bits(), p.sample.universe.to_bits());
        assert_eq!(f.sample.members, p.sample.members);
    }
    assert!(dropped > 0, "the fixture's filter must drop some pairs");
}

/// A snapshot and the truth of its next transition, from the §5 fixture's
/// trace, with a spec of three draws of a third of the nodes.
fn estimate_fixture() -> (Snapshot, HashSet<(NodeId, NodeId)>, SampleSpec) {
    let (trace, _) = instance_fixture();
    let seq = SnapshotSequence::with_count(&trace, 6);
    let truth = seq.new_edges(4).into_iter().collect();
    (seq.snapshot(3), truth, SampleSpec { p: 0.3, draws: 3, seed: 11 })
}

/// An estimate's numbers as bits.
fn estimate_bits(e: &sampling::SampledEstimate) -> Vec<u64> {
    let head = [e.mean_accuracy_ratio, e.std_accuracy_ratio, e.mean_absolute_accuracy, e.mean_k];
    head.iter()
        .chain(&e.per_draw_ratios)
        .chain([&e.mean_sample_size])
        .map(|x| x.to_bits())
        .collect()
}

/// CN, AA and RA on one snapshot and spec share one set of draws: the
/// memoized samples are the same allocation after each call, and each
/// estimate equals the metric's estimate on a fresh clone bit for bit,
/// whichever metric came first.
#[test]
fn metrics_on_one_snapshot_share_one_set_of_draws() {
    let (snap, truth, spec) = estimate_fixture();
    let metrics = [LocalKind::Cn, LocalKind::Aa, LocalKind::Ra];
    let fresh: Vec<Vec<u64>> = metrics
        .iter()
        .map(|m| {
            let alone = snap.clone();
            estimate_bits(&sampling::evaluate_metric_sampled_on(m, &alone, &truth, 4, None, &spec))
        })
        .collect();
    for order in [[0, 1, 2], [2, 1, 0]] {
        let shared = snap.clone();
        let mut memo = None;
        for i in order {
            let est =
                sampling::evaluate_metric_sampled_on(&metrics[i], &shared, &truth, 4, None, &spec);
            assert!(est.mean_k > 0.0, "the fixture must have in-sample truth");
            assert_eq!(estimate_bits(&est), fresh[i], "{:?} after {order:?}", metrics[i]);
            let draws = sampling::draw_samples(&shared, None, &spec);
            let first = memo.get_or_insert_with(|| Arc::clone(&draws));
            assert!(Arc::ptr_eq(first, &draws), "{:?} built its own draws", metrics[i]);
        }
    }
}

/// Another `p`, seed, draw count or filter is another key: it gets its
/// own draws, the ones a fresh clone builds for it. The filtered draws
/// are the unfiltered draws' samples and universes, their pairs narrowed
/// to those the per-pair filter oracle keeps.
#[test]
fn each_spec_and_filter_gets_its_own_draws() {
    let (snap, _, spec) = estimate_fixture();
    let filter = TemporalFilter::renren();
    let base = sampling::draw_samples(&snap, None, &spec);
    let variants = [
        (SampleSpec { p: 0.2, ..spec }, None),
        (SampleSpec { seed: 12, ..spec }, None),
        (SampleSpec { draws: 2, ..spec }, None),
        (spec, Some(&filter)),
    ];
    let sample_bits =
        |d: &sampling::DrawSample| (d.members.clone(), d.pairs.clone(), d.universe.to_bits());
    for (other, filtered) in variants {
        let own = sampling::draw_samples(&snap, filtered, &other);
        assert!(
            !std::sync::Arc::ptr_eq(&own, &base),
            "{other:?} {filtered:?} shares the base draws"
        );
        let want = sampling::draw_samples(&snap.clone(), filtered, &other);
        let (own, want): (Vec<_>, Vec<_>) = (
            own.iter().map(|d| sample_bits(d)).collect(),
            want.iter().map(|d| sample_bits(d)).collect(),
        );
        assert_eq!(own, want, "{other:?} {filtered:?}");
    }
    let filtered = sampling::draw_samples(&snap, Some(&filter), &spec);
    let mut dropped = 0;
    for (plain, narrowed) in base.iter().zip(filtered.iter()) {
        let passing: Vec<(NodeId, NodeId)> = plain
            .pairs
            .iter()
            .copied()
            .filter(|&(u, v)| oracles::candidates::passes(&filter, &snap, u, v))
            .collect();
        dropped += plain.pairs.len() - passing.len();
        assert_eq!(narrowed.pairs, passing);
        assert_eq!(narrowed.members, plain.members);
        assert_eq!(narrowed.universe.to_bits(), plain.universe.to_bits());
    }
    assert!(dropped > 0, "the fixture's filter must drop some pairs");
}

/// Arbitrary multi-component graphs: a list of path-component sizes plus
/// trailing isolated nodes.
fn arb_components() -> impl Strategy<Value = (Vec<usize>, usize)> {
    (proptest::collection::vec(2usize..8, 1..4), 0usize..3)
}

fn build_components(sizes: &[usize], isolated: usize) -> Snapshot {
    let mut edges = Vec::new();
    let mut base = 0u32;
    for &s in sizes {
        for i in 0..(s - 1) as u32 {
            edges.push((base + i, base + i + 1));
        }
        base += s as u32;
    }
    Snapshot::from_edges(base as usize + isolated, &edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Snowball restart on multi-component graphs: the quota is always
    /// met exactly, the sample is sorted and distinct, and isolated nodes
    /// are only drawn after every non-isolated node has been visited.
    #[test]
    fn snowball_restart_meets_quota_on_multi_component_graphs(
        (sizes, isolated) in arb_components(),
        p_mil in 1usize..=1000,
    ) {
        let snap = build_components(&sizes, isolated);
        let n = snap.node_count();
        let p = p_mil as f64 / 1000.0;
        let target = ((p * n as f64).ceil() as usize).clamp(1, n);
        let sample = snowball(&snap, 0, p);
        prop_assert_eq!(sample.len(), target, "quota must be met exactly");
        prop_assert!(sample.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
        let non_isolated: Vec<NodeId> =
            (0..n as NodeId).filter(|&u| snap.degree(u) > 0).collect();
        let in_sample: HashSet<NodeId> = sample.iter().copied().collect();
        if non_isolated.iter().any(|u| !in_sample.contains(u)) {
            prop_assert!(
                sample.iter().all(|&u| snap.degree(u) > 0),
                "isolated node drawn while a non-isolated one was still unvisited"
            );
        }
        // With the quota spanning past the seed's component, the restart
        // must actually reach a second component.
        let first_component = sizes[0];
        if target > first_component && sizes.len() > 1 {
            prop_assert!(
                sample.iter().any(|&u| (u as usize) >= first_component),
                "restart never left the seed component"
            );
        }
    }
}

/// The candidate-restricted universe built the direct way, as the oracle
/// for [`sampling::sampled_universe`]'s member-by-member construction: the
/// whole-graph two-hop walk filtered to member pairs, every unconnected
/// pair touching one of the 20 highest-degree members (the same hub rule),
/// then one sort and dedup of the whole list. The exact universe count is
/// the number of unconnected member pairs, counted pair by pair.
fn restricted_universe_oracle(snap: &Snapshot, members: &[NodeId]) -> (Vec<(NodeId, NodeId)>, f64) {
    let is_member = |x: NodeId| members.binary_search(&x).is_ok();
    let mut pairs: Vec<(NodeId, NodeId)> = traversal::two_hop_pairs(snap, None, 1)
        .into_iter()
        .filter(|&(u, v)| is_member(u) && is_member(v))
        .collect();
    let mut by_degree = members.to_vec();
    by_degree.sort_unstable_by_key(|&u| std::cmp::Reverse(snap.degree(u)));
    for &h in by_degree.iter().take(20) {
        for &v in members {
            if v != h && !snap.has_edge(h, v) {
                pairs.push(osn_graph::canonical(h, v));
            }
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    let exact = members
        .iter()
        .enumerate()
        .flat_map(|(i, &u)| members[i + 1..].iter().map(move |&v| (u, v)))
        .filter(|&(u, v)| !snap.has_edge(u, v))
        .count();
    (pairs, exact as f64)
}

/// Random graphs of up to 60 nodes for the restricted universe: random
/// edges over the first `n - isolated` nodes, optionally a ring through
/// them (every node of degree 2 or more, so degrees tie at the hub cutoff)
/// and optionally a node adjacent to every other node. Each node is a
/// member when its pick is below `density`, so samples range from none to
/// all 60 nodes, on both sides of the 20 hubs.
fn arb_sample_graph() -> impl Strategy<Value = (Snapshot, Vec<NodeId>)> {
    (3usize..=60).prop_flat_map(|n| {
        let edge = (0..n as NodeId, 0..n as NodeId);
        let shape = (0usize..=n / 4, 0u8..2, 0u8..2);
        let picks = (proptest::collection::vec(0u8..4, n), 1u8..=4);
        (proptest::collection::vec(edge, 0..2 * n), shape, picks).prop_map(
            move |(raw, (isolated, ring, star), (picks, density))| {
                let linked = (n - isolated) as NodeId;
                let mut edges: Vec<(NodeId, NodeId)> = raw
                    .into_iter()
                    .map(|(a, b)| (a % linked, b % linked))
                    .filter(|&(a, b)| a != b)
                    .collect();
                if ring == 1 || edges.is_empty() {
                    edges.extend((0..linked).map(|i| (i, (i + 1) % linked)));
                }
                if star == 1 {
                    edges.extend((1..n as NodeId).map(|v| (0, v)));
                }
                let members = (0..n as NodeId).filter(|&v| picks[v as usize] < density).collect();
                (Snapshot::from_edges(n, &edges), members)
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A cap of 0 forces the candidate-restricted universe for every
    /// sample of two or more members; its pairs, in order, and its exact
    /// universe count equal the whole-list oracle's.
    #[test]
    fn restricted_universe_equals_the_whole_list_oracle((snap, members) in arb_sample_graph()) {
        let (pairs, exact) = sampling::sampled_universe(&snap, &members, 0);
        let (want, want_exact) = restricted_universe_oracle(&snap, &members);
        prop_assert_eq!(pairs, want, "members {:?}", members);
        prop_assert_eq!(exact.to_bits(), want_exact.to_bits());
    }
}
