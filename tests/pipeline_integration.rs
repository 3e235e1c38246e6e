//! Cross-crate integration tests: the full paper pipeline on tiny traces.
//!
//! These run in debug CI, so they use aggressively scaled presets — the
//! point is wiring (trace → snapshots → metrics → evaluation → filters →
//! classification), not statistical shape, which the release-mode
//! experiment binaries cover.

use linklens::core::classify::{ClassificationConfig, ClassificationPipeline, ClassifierKind};
use linklens::core::temporal::positive_negative_pairs;
use linklens::core::timeseries::{Aggregation, TimeSeriesPredictor};
use linklens::prelude::*;

fn tiny_trace(preset: fn() -> TraceConfig, seed: u64) -> linklens::trace::GrowthTrace {
    preset().scaled(0.05).with_days(30).generate(seed)
}

#[test]
fn metric_evaluation_end_to_end() {
    let trace = tiny_trace(TraceConfig::renren_like, 1);
    let seq = SnapshotSequence::with_count(&trace, 6);
    let eval = SequenceEvaluator::new(&seq);
    let metrics = linklens::metrics::all_metrics();
    let refs: Vec<&dyn Metric> = metrics.iter().map(|m| m.as_ref()).collect();
    let outcomes = eval.evaluate_metrics_at(&refs, 4, None);
    assert_eq!(outcomes.len(), 15);
    for o in &outcomes {
        assert!(o.k > 0, "{}: ground truth must be non-empty", o.metric);
        assert!(o.correct <= o.k);
        assert!(o.accuracy_ratio.is_finite());
        assert!(o.absolute_accuracy <= 1.0);
    }
    // The random baseline must be identical for all metrics on a transition.
    let expected = outcomes[0].random_expected;
    assert!(outcomes.iter().all(|o| (o.random_expected - expected).abs() < 1e-12));
}

#[test]
fn evaluation_is_deterministic() {
    let trace = tiny_trace(TraceConfig::facebook_like, 2);
    let seq = SnapshotSequence::with_count(&trace, 6);
    let eval = SequenceEvaluator::new(&seq);
    let a = eval.evaluate_metric(&LocalKind::Bra, 3);
    let b = eval.evaluate_metric(&LocalKind::Bra, 3);
    assert_eq!(a.correct, b.correct);
    assert_eq!(a.accuracy_ratio, b.accuracy_ratio);
}

#[test]
fn filters_prune_but_never_invent_candidates() {
    let trace = tiny_trace(TraceConfig::renren_like, 3);
    let seq = SnapshotSequence::with_count(&trace, 6);
    let eval = SequenceEvaluator::new(&seq);
    let snap = seq.snapshot(3);
    let filter = TemporalFilter::renren();
    let m = LocalKind::Bra;
    let unfiltered = eval.candidates_for(&snap, &[&m], None);
    let filtered = eval.candidates_for(&snap, &[&m], Some(&filter));
    assert!(filtered.len() <= unfiltered.len());
    let all: std::collections::HashSet<_> = unfiltered.pairs().iter().collect();
    for p in filtered.pairs() {
        assert!(all.contains(p), "filter produced a pair not in the base set");
    }
}

#[test]
fn classification_features_match_metric_scores() {
    // The features the classifier sees must be exactly the metric scores.
    let trace = tiny_trace(TraceConfig::renren_like, 4);
    let seq = SnapshotSequence::with_count(&trace, 6);
    let snap = seq.snapshot(2);
    let pairs = linklens::graph::traversal::two_hop_pairs(&snap, None, 1);
    let sample: Vec<_> = pairs.into_iter().take(20).collect();
    let cn_scores = linklens::metrics::exec::score_pairs_t(&LocalKind::Cn, &snap, &sample, 1);
    for (i, &(u, v)) in sample.iter().enumerate() {
        assert_eq!(cn_scores[i], snap.common_neighbor_count(u, v) as f64);
    }
}

#[test]
fn classification_pipeline_end_to_end() {
    let trace = tiny_trace(TraceConfig::renren_like, 5);
    let seq = SnapshotSequence::with_count(&trace, 6);
    let cfg = ClassificationConfig { n_seeds: 2, ..Default::default() };
    let pipe = ClassificationPipeline::new(&seq, cfg);
    let out =
        pipe.instance(4, None).cells(&[ClassifierKind::Svm, ClassifierKind::NaiveBayes], &[5.0]);
    assert_eq!(out.len(), 2);
    for o in &out {
        assert!(o.mean_k > 0.0);
        assert!(o.mean_accuracy_ratio.is_finite());
    }
    assert!(out[0].svm_coefficients.is_some());
    assert_eq!(out[0].feature_names.len(), 15);
}

#[test]
fn temporal_positive_pairs_are_fresher_than_negative() {
    // The §6.1 premise must hold on generated data, or the filters are
    // meaningless.
    let trace = TraceConfig::renren_like().scaled(0.08).with_days(40).generate(6);
    let seq = SnapshotSequence::with_count(&trace, 8);
    let t = 6;
    let snap = seq.snapshot(t - 1);
    let (pos, neg) = positive_negative_pairs(&seq, &snap, t, 500, 1);
    let mean_idle = |pairs: &[(NodeId, NodeId)]| {
        let vals: Vec<f64> = pairs
            .iter()
            .map(|&(u, v)| {
                linklens::core::temporal::pair_features(&snap, u, v, 7 * linklens::graph::DAY)
                    .active_idle_days
            })
            .filter(|x| x.is_finite())
            .collect();
        vals.iter().sum::<f64>() / vals.len() as f64
    };
    assert!(mean_idle(&pos) < mean_idle(&neg), "positive pairs should have fresher active nodes");
}

#[test]
fn timeseries_wraps_any_metric() {
    let trace = tiny_trace(TraceConfig::renren_like, 7);
    let seq = SnapshotSequence::with_count(&trace, 6);
    let snap = seq.snapshot(3);
    let pairs: Vec<_> =
        linklens::graph::traversal::two_hop_pairs(&snap, None, 1).into_iter().take(50).collect();
    for agg in [Aggregation::MovingAverage, Aggregation::LinearRegression] {
        let ts = TimeSeriesPredictor { window: 3, aggregation: agg };
        let scores = ts.score_pairs(&seq, &LocalKind::Cn, 4, &pairs);
        assert_eq!(scores.len(), pairs.len());
        assert!(scores.iter().all(|s| s.is_finite()));
    }
}

#[test]
fn all_presets_flow_through_the_full_stack() {
    for (i, preset) in
        [TraceConfig::facebook_like, TraceConfig::renren_like, TraceConfig::youtube_like]
            .iter()
            .enumerate()
    {
        let trace = tiny_trace(*preset, 10 + i as u64);
        let seq = SnapshotSequence::with_count(&trace, 5);
        let eval = SequenceEvaluator::new(&seq);
        let out = eval.evaluate_metric(&LocalKind::Cn, 3);
        assert!(out.accuracy_ratio >= 0.0);
        let props = linklens::graph::stats::snapshot_properties(&seq.snapshot(2), 10);
        assert!(props.nodes > 0 && props.edges > 0);
    }
}
