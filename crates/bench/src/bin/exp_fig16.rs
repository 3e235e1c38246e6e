//! **Figure 16** — our temporal filtering versus time-series-based
//! prediction \[10\]: for each metric, four variants on the sampled data —
//! Basic, Basic+Filter, Time-Model (moving average), Time-Model+Filter.
//!
//! Paper shape to reproduce: filtering improves accuracy more than the
//! time-series model does, and the two compose — Time-Model+Filter ≥
//! Time-Model.

#![forbid(unsafe_code)]

use linklens_bench::{results_path, ExperimentContext};
use linklens_core::filters::{FilterThresholds, TemporalFilter};
use linklens_core::framework::{unconnected_pair_count, SequenceEvaluator};
use linklens_core::report::{fnum, write_json, Table};
use linklens_core::timeseries::{Aggregation, TimeSeriesPredictor};
use osn_graph::par;
use osn_metrics::traits::Metric;
use osn_metrics::{exec, topk};

/// The metric subset plotted (one per family, as the paper's Fig. 16).
fn metrics() -> Vec<Box<dyn Metric>> {
    ["JC", "BCN", "BRA", "LP", "PPR"]
        .iter()
        .map(|n| osn_metrics::metric_by_name(n).expect("known metric"))
        .collect()
}

fn main() {
    let ctx = ExperimentContext::from_args();
    let ts = TimeSeriesPredictor { window: 3, aggregation: Aggregation::MovingAverage };
    let mut payload = Vec::new();

    for (cfg, trace) in ctx.traces() {
        let seq = ctx.sequence(&trace);
        let eval = SequenceEvaluator::new(&seq);
        let t = ctx.mid_transition().min(seq.len() - 1);
        let filter = TemporalFilter::new(FilterThresholds::for_preset(&cfg.name).expect("preset"));
        let prev = seq.snapshot(t - 1);
        let truth = eval.ground_truth(t);
        let k = truth.len();
        let universe = unconnected_pair_count(&prev);
        let expected = (k as f64).powi(2) / universe;
        eprintln!("[fig16] {} transition {t}, k={k}", cfg.name);

        let mut table = Table::new(
            format!("Figure 16 ({}, transition {t}): accuracy ratio by variant", cfg.name),
            &["metric", "Basic", "Basic+Filter", "TimeModel", "TimeModel+Filter"],
        );
        for metric in metrics() {
            let m = metric.as_ref();
            let base_cands = eval.candidates_for(&prev, &[m], None);
            let filt_cands = eval.candidates_for(&prev, &[m], Some(&filter));

            let ratio_of = |pairs: &[(u32, u32)], scores: &[f64]| {
                let predicted = topk::top_k_pairs(pairs, scores, k, ctx.seed);
                let correct = predicted.iter().filter(|p| truth.contains(p)).count();
                correct as f64 / expected
            };

            let score = |pairs| exec::score_pairs_t(m, &prev, pairs, par::max_threads());
            let basic = ratio_of(base_cands.pairs(), &score(base_cands.pairs()));
            let basic_f = ratio_of(filt_cands.pairs(), &score(filt_cands.pairs()));
            let tm = ratio_of(base_cands.pairs(), &ts.score_pairs(&seq, m, t, base_cands.pairs()));
            let tm_f =
                ratio_of(filt_cands.pairs(), &ts.score_pairs(&seq, m, t, filt_cands.pairs()));

            table.push_row(vec![
                m.name().to_string(),
                fnum(basic),
                fnum(basic_f),
                fnum(tm),
                fnum(tm_f),
            ]);
            payload.push(serde_json::json!({
                "network": cfg.name, "metric": m.name(),
                "basic": basic, "basic_filter": basic_f,
                "time_model": tm, "time_model_filter": tm_f,
            }));
        }
        println!("{}", table.render());
    }
    write_json(results_path("fig16.json"), &payload).expect("write results");
    println!("(rows written to results/fig16.json)");
}
