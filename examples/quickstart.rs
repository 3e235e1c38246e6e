//! Quickstart: generate a synthetic growth trace, snapshot it, and compare
//! a few link-prediction metrics on one transition.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use linklens::prelude::*;

fn main() {
    // 1. Generate a Renren-like friendship growth trace, scaled down so
    //    this example finishes in a couple of seconds.
    let config = TraceConfig::renren_like().scaled(0.12).with_days(60);
    let trace = config.generate(7);
    println!(
        "generated '{}': {} nodes, {} edges over {} days",
        config.name,
        trace.node_count(),
        trace.edge_count(),
        config.days
    );

    // 2. Discretize into snapshots with a constant edge delta (§3.2 of the
    //    paper) and look at how the network densifies.
    let seq = SnapshotSequence::with_count(&trace, 10);
    for i in [0, seq.len() / 2, seq.len() - 1] {
        let snap = seq.snapshot(i);
        println!(
            "snapshot {i}: {} nodes, {} edges, avg degree {:.1}",
            snap.node_count(),
            snap.edge_count(),
            2.0 * snap.edge_count() as f64 / snap.node_count() as f64
        );
    }

    // 3. Predict the last transition with a handful of metrics and compare
    //    accuracy ratios (improvement over random prediction).
    let eval = SequenceEvaluator::new(&seq);
    // Use a mid-trace transition: late transitions on a short scaled trace
    // are dominated by brand-new nodes whose edges no structural metric can
    // reach (the paper's "limits of prediction" point, §8).
    let t = seq.len() * 3 / 4;
    println!("\npredicting snapshot {t} from {}:", t - 1);
    let metrics: Vec<Box<dyn Metric>> = vec![
        Box::new(LocalKind::Cn),
        Box::new(LocalKind::Ra),
        Box::new(LocalKind::Bra),
        Box::new(LocalKind::Pa),
    ];
    for metric in &metrics {
        let out = eval.evaluate_metric(metric.as_ref(), t);
        println!(
            "  {:>4}: accuracy ratio {:>8.1}  (absolute {:.2}% of k={})",
            out.metric,
            out.accuracy_ratio,
            out.absolute_accuracy * 100.0,
            out.k
        );
    }

    // 4. Add the paper's temporal filter and watch the ratios move (§6.2).
    let filter = TemporalFilter::renren();
    println!("\nwith the Table 7 renren filter:");
    let refs: Vec<&dyn Metric> = metrics.iter().map(|m| m.as_ref()).collect();
    for out in eval.evaluate_metrics_at(&refs, t, Some(&filter)) {
        println!("  {:>4}: accuracy ratio {:>8.1}", out.metric, out.accuracy_ratio);
    }
}
