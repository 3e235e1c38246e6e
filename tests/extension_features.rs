//! Integration tests for the extension features: trace I/O round trips
//! through the full pipeline, disruption events against the evaluation
//! machinery, time-aware metrics inside the evaluator, and the alternative
//! evaluation protocols on generated data.

use linklens::core::altmetrics::{auc_of_metric, MissingLinkEval};
use linklens::core::temporal::positive_negative_pairs;
use linklens::graph::io;
use linklens::metrics::timeaware::RecencyResourceAllocation;
use linklens::prelude::*;
use linklens::trace::events::{apply, Disruption};

fn small_trace() -> linklens::trace::GrowthTrace {
    TraceConfig::renren_like().scaled(0.06).with_days(35).generate(11)
}

#[test]
fn io_round_trip_preserves_predictions() {
    let trace = small_trace();
    let mut buf = Vec::new();
    io::write_trace(&trace, &mut buf).expect("serialize");
    let back = io::read_trace(&buf[..]).expect("deserialize");

    let run = |t: &linklens::trace::GrowthTrace| {
        let seq = SnapshotSequence::with_count(t, 6);
        let eval = SequenceEvaluator::new(&seq);
        let out = eval.evaluate_metric(&BayesResourceAllocation, 4);
        (out.k, out.correct, out.accuracy_ratio)
    };
    assert_eq!(run(&trace), run(&back), "round trip must not change results");
}

#[test]
fn merged_trace_flows_through_evaluation() {
    let trace = small_trace();
    let merged = apply(
        &trace,
        Disruption::Merge { day: 18, nodes: 80, internal_edges: 150, bridge_edges: 20 },
        5,
    );
    let seq = SnapshotSequence::with_count(&merged, 6);
    let eval = SequenceEvaluator::new(&seq);
    for t in 1..seq.len() {
        let out = eval.evaluate_metric(&CommonNeighbors, t);
        assert!(out.accuracy_ratio.is_finite());
    }
}

#[test]
fn recency_metrics_work_in_the_evaluator() {
    let trace = small_trace();
    let seq = SnapshotSequence::with_count(&trace, 6);
    let eval = SequenceEvaluator::new(&seq);
    let tra = RecencyResourceAllocation::default();
    let out = eval.evaluate_metrics_at(&[&tra], 4, None).remove(0);
    assert_eq!(out.metric, "tRA");
    assert!(out.accuracy_ratio >= 0.0);
}

#[test]
fn auc_of_good_metric_beats_half_on_generated_data() {
    let trace = small_trace();
    let seq = SnapshotSequence::with_count(&trace, 6);
    let t = 4;
    let snap = seq.snapshot(t - 1);
    let (pos, neg) = positive_negative_pairs(&seq, t, 800, 3);
    let auc = auc_of_metric(&ResourceAllocation, &snap, &pos, &neg);
    // The margin is modest at this tiny test scale (most negative pairs tie
    // at score 0, counting half) — the release-scale `ext-auc` experiment
    // row shows the full separation.
    assert!(auc > 0.52, "RA should carry signal on closure-driven data, got {auc}");
}

#[test]
fn missing_link_protocol_on_generated_data() {
    // The §2 distinction is runnable: the missing-link protocol produces a
    // comparable number on the same graph as future-link prediction, and
    // recovers at least something on closure-heavy data.
    let trace = small_trace();
    let seq = SnapshotSequence::with_count(&trace, 6);
    let t = 4;
    let snap = seq.snapshot(t - 1);
    let eval = SequenceEvaluator::new(&seq);
    let future = eval.evaluate_metric(&ResourceAllocation, t);
    let missing = MissingLinkEval { hide_fraction: 0.05, seed: 7 }.run(&ResourceAllocation, &snap);
    assert!(missing.hidden > 0);
    assert!(missing.recovered > 0, "closure-heavy data must be partially recoverable");
    assert!((0.0..=1.0).contains(&missing.recovery_rate));
    assert!(future.absolute_accuracy <= 1.0);
}

#[test]
fn edge_list_import_then_full_pipeline() {
    // Export a generated trace as a bare edge list, re-import, predict.
    let trace = small_trace();
    let mut text = String::new();
    for e in trace.edges() {
        text.push_str(&format!("{} {} {}\n", e.u, e.v, e.t));
    }
    let back = io::read_edge_list(text.as_bytes()).expect("edge list");
    assert_eq!(back.edge_count(), trace.edge_count());
    let seq = SnapshotSequence::with_count(&back, 6);
    let eval = SequenceEvaluator::new(&seq);
    let out = eval.evaluate_metric(&CommonNeighbors, 4);
    assert!(out.k > 0);
}
