//! **Extension: calibrated link probabilities.**
//!
//! §8 lists "binary classification results that lack granularity" among
//! the concrete problems found. This binary closes the loop with Platt
//! scaling: train an SVM on one transition, calibrate its decision scores
//! on held-out pairs, and print a reliability table — predicted
//! probability bins against the empirical connection frequency inside each
//! bin. Well-calibrated bins sit near the diagonal.

#![forbid(unsafe_code)]

use linklens_bench::{results_path, ExperimentContext};
use linklens_core::report::{fnum, write_json, Table};
use linklens_core::temporal::positive_negative_pairs;
use osn_graph::par;
use osn_graph::sequence::SnapshotSequence;
use osn_metrics::exec;
use osn_metrics::solver::SolverCache;
use osn_metrics::traits::Metric;
use osn_ml::data::Dataset;
use osn_ml::platt::PlattScaler;
use osn_ml::svm::LinearSvm;
use osn_ml::Classifier;

fn main() {
    let ctx = ExperimentContext::from_args();
    let (cfg, trace) = ctx.traces().remove(1); // renren-like
    let seq = SnapshotSequence::with_count(&trace, ctx.snapshots);
    let t = ctx.mid_transition().min(seq.len() - 1);
    let train_snap = seq.snapshot(t - 2);
    let cal_snap = seq.snapshot(t - 1);

    let metrics = osn_metrics::all_metrics();
    let refs: Vec<&dyn Metric> = metrics.iter().map(|m| m.as_ref()).collect();
    let features = |snap: &osn_graph::snapshot::Snapshot, pairs: &[(u32, u32)]| -> Vec<Vec<f64>> {
        let mut cache = SolverCache::transient();
        let cols = exec::score_matrix_cached_t(&refs, snap, pairs, par::max_threads(), &mut cache);
        (0..pairs.len()).map(|i| cols.iter().map(|c| c[i]).collect()).collect()
    };

    // Train on transition t-1, calibrate + evaluate on transition t.
    let (train_pos, train_neg) = positive_negative_pairs(&seq, t - 1, 4000, ctx.seed);
    let mut data = Dataset::new(metrics.len());
    for f in features(&train_snap, &train_pos) {
        data.push(&f, 1);
    }
    for f in features(&train_snap, &train_neg) {
        data.push(&f, 0);
    }
    let data = data.shuffled(ctx.seed);
    let scaler = data.fit_scaler();
    let mut svm = LinearSvm::seeded(ctx.seed);
    svm.fit(&data.scaled_by(&scaler));

    // Calibration set: positives/negatives of transition t, scored on
    // G_{t-1}. Split in half: fit Platt on one half, report on the other.
    let (pos, neg) = positive_negative_pairs(&seq, t, 4000, ctx.seed ^ 1);
    let mut pairs: Vec<((u32, u32), bool)> = Vec::new();
    pairs.extend(pos.iter().map(|&p| (p, true)));
    pairs.extend(neg.iter().map(|&p| (p, false)));
    // Deterministic shuffle so the fit/report halves both contain
    // positives.
    let mut state = ctx.seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    for i in (1..pairs.len()).rev() {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        pairs.swap(i, (z % (i as u64 + 1)) as usize);
    }
    let raw: Vec<(u32, u32)> = pairs.iter().map(|&(p, _)| p).collect();
    let scores: Vec<f64> =
        features(&cal_snap, &raw).iter().map(|f| svm.decision(&scaler.transform(f))).collect();
    let half = pairs.len() / 2;
    let platt = PlattScaler::fit(
        &scores[..half],
        &pairs[..half].iter().map(|&(_, l)| l).collect::<Vec<_>>(),
    );

    // Reliability table on the held-out half.
    let mut bins = [(0usize, 0usize); 10]; // (total, positives)
    for (i, &(_, label)) in pairs.iter().enumerate().skip(half) {
        let p = platt.probability(scores[i]);
        let b = ((p * 10.0) as usize).min(9);
        bins[b].0 += 1;
        bins[b].1 += usize::from(label);
    }
    let mut table = Table::new(
        format!(
            "Extension ({}, transition {t}): SVM reliability after Platt scaling \
             (held-out pairs, positives oversampled ~1:{})",
            cfg.name,
            neg.len() / pos.len().max(1)
        ),
        &["predicted P(link) bin", "pairs", "empirical frequency"],
    );
    let mut payload = Vec::new();
    for (b, &(total, hits)) in bins.iter().enumerate() {
        if total == 0 {
            continue;
        }
        let freq = hits as f64 / total as f64;
        table.push_row(vec![
            format!("{:.1}-{:.1}", b as f64 / 10.0, (b + 1) as f64 / 10.0),
            total.to_string(),
            fnum(freq),
        ]);
        payload.push(serde_json::json!({ "bin": b, "total": total, "frequency": freq }));
    }
    print!("{}", table.render());
    println!(
        "\nReading: monotone bin frequencies mean the calibrated scores are usable as\n\
         probabilities — the granularity §8 says binary classifiers lack. (The sampled\n\
         pair set is positives-enriched, so frequencies exceed the in-the-wild base rate.)"
    );
    write_json(results_path("ext_calibration.json"), &payload).expect("write results");
    println!("(bins written to results/ext_calibration.json)");
}
