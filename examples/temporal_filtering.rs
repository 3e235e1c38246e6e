//! Temporal filtering walkthrough (§6): measure the idle-time /
//! recent-edge / CN-gap separations on your own trace, derive filter
//! thresholds from its positives at a retention quantile, and quantify
//! how much the filter shrinks the candidate space and lifts prediction
//! accuracy. It asserts that the thresholds derived at q = 1.0 keep every
//! positive they were derived from.
//!
//! ```sh
//! cargo run --release --example temporal_filtering
//! ```

use linklens::core::filters::PositiveFeatureStats;
use linklens::core::temporal::{fraction_below, pair_features, positive_negative_pairs};
use linklens::graph::DAY;
use linklens::prelude::*;

fn main() {
    let config = TraceConfig::renren_like().scaled(0.1).with_days(60);
    let trace = config.generate(31);
    let seq = SnapshotSequence::with_count(&trace, 8);
    let t = seq.len() - 2;
    let snap = seq.snapshot(t - 1);
    println!("{}: transition {t}, observed snapshot has {} edges", config.name, snap.edge_count());

    // 1. Reproduce the §6.1 measurement: positives vs negatives.
    let (pos, neg) = positive_negative_pairs(&seq, &snap, t, 2000, 9);
    let idle = |pairs: &[(NodeId, NodeId)]| -> Vec<f64> {
        pairs.iter().map(|&(u, v)| pair_features(&snap, u, v, 7 * DAY).active_idle_days).collect()
    };
    let (pi, ni) = (idle(&pos), idle(&neg));
    println!(
        "active-node idle < 3 days: positives {:.0}%, negatives {:.0}%",
        fraction_below(&pi, 3.0) * 100.0,
        fraction_below(&ni, 3.0) * 100.0
    );

    // 2. Derive thresholds from the positives (the paper's methodology,
    //    generalized): each criterion keeps the `RETAIN` fraction of
    //    positives on its fresh side. Compare with the hand-tuned Table 7
    //    row.
    const RETAIN: f64 = 0.9;
    let mut stats = PositiveFeatureStats::new(7.0);
    stats.observe(&snap, &pos);
    let all = stats.thresholds_at(1.0).expect("the transition has positives");
    let kept = all.filter_pairs(&snap, &pos).len();
    assert_eq!(kept, pos.len(), "thresholds at q = 1.0 must keep every observed positive");
    println!("\nthresholds at q = 1.0 keep all {kept} positives: {all:?}");
    let derived = stats.thresholds_at(RETAIN).expect("the transition has positives");
    println!("thresholds retaining {:.0}% of positives: {derived:?}", RETAIN * 100.0);
    println!("table 7 (renren):                  {:?}", TemporalFilter::renren());

    // 3. Quantify the search-space reduction and the accuracy lift.
    let eval = SequenceEvaluator::new(&seq);
    let bra = LocalKind::Bra;
    for (label, filter) in [
        ("no filter", None),
        ("derived", Some(derived)),
        ("table 7", Some(TemporalFilter::renren())),
    ] {
        let cands = eval.candidates_for(&snap, &[&bra], filter.as_ref());
        let out = eval.evaluate_metrics_at(&[&bra], t, filter.as_ref());
        println!(
            "{label:>11}: {:>8} candidates, BRA accuracy ratio {:>8.1}",
            cands.len(),
            out[0].accuracy_ratio
        );
    }
}
