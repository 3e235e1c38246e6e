//! §6: how recent activity separates pairs that connect from pairs that
//! do not, and the temporal filters built on it.

use super::{classification_config, Console, Context};
use linklens_core::classify::{ClassificationPipeline, ClassifierKind};
use linklens_core::filters::TemporalFilter;
use linklens_core::framework::{unconnected_pair_count, SequenceEvaluator};
use linklens_core::report::{fnum, Table};
use linklens_core::temporal::{fraction_below, pair_features, positive_negative_pairs};
use linklens_core::timeseries::{Aggregation, TimeSeriesPredictor};
use osn_graph::{par, DAY};
use osn_metrics::traits::Metric;
use osn_metrics::{exec, topk};
use serde_json::Value;

/// **Figures 13–15** — the §6.1 temporal separations between positive
/// pairs (that connect in the next snapshot) and negative pairs (that do
/// not): active-node idle time (Fig. 13), active-node new edges in the
/// past 7 days (Fig. 14), and the common-neighbor time gap (Fig. 15).
///
/// Paper shape to reproduce (Renren): positives are dramatically more
/// recent on all three measures — e.g. >90% of positives have < 3 days
/// active-node idle time versus ~40% of negatives, >60% of positives have
/// ≥ 3 recent edges versus ~20% of negatives, and >60% of positives gained
/// a common neighbor within 10 days versus ~20% of negatives.
pub(super) fn fig13_15(ctx: &Context, con: &mut Console) -> Value {
    let mut payload = Vec::new();

    for (cfg, trace) in ctx.traces() {
        let seq = ctx.sequence(trace);
        let t = ctx.mid_transition().min(seq.len() - 1);
        let snap = seq.snapshot(t - 1);
        let (pos, neg) = positive_negative_pairs(&seq, &snap, t, 4000, ctx.seed);

        let collect = |pairs: &[(u32, u32)]| {
            let mut act = Vec::new();
            let mut recent = Vec::new();
            let mut gap = Vec::new();
            for &(u, v) in pairs {
                let f = pair_features(&snap, u, v, 7 * DAY);
                act.push(f.active_idle_days);
                recent.push(f.recent_edges_active as f64);
                if let Some(g) = f.cn_gap_days {
                    gap.push(g);
                }
            }
            (act, recent, gap)
        };
        let (pa, pr, pg) = collect(&pos);
        let (na, nr, ng) = collect(&neg);

        let mut table = Table::new(
            format!("Figures 13-15 ({}, transition {t}): positive vs negative pairs", cfg.name),
            &["measure", "positive pairs", "negative pairs"],
        );
        table.push_row(vec![
            "frac(active idle < 3d)".into(),
            fnum(fraction_below(&pa, 3.0)),
            fnum(fraction_below(&na, 3.0)),
        ]);
        table.push_row(vec![
            "frac(≥3 edges in 7d)".into(),
            fnum(1.0 - fraction_below(&pr, 3.0)),
            fnum(1.0 - fraction_below(&nr, 3.0)),
        ]);
        table.push_row(vec![
            "frac(CN gap < 10d | has CN)".into(),
            fnum(fraction_below(&pg, 10.0)),
            fnum(fraction_below(&ng, 10.0)),
        ]);
        table.push_row(vec![
            "pairs with a CN".into(),
            format!("{}/{}", pg.len(), pos.len()),
            format!("{}/{}", ng.len(), neg.len()),
        ]);
        con.println(&table.render());
        // Figure 13 as a chart: CDF of active-node idle time, positives vs
        // negatives (x = sorted sample index, y = idle days; the separation
        // is the vertical gap).
        let cdf_curve = |vals: &[f64]| -> Vec<f64> {
            let mut v: Vec<f64> = vals.iter().copied().filter(|x| x.is_finite()).collect();
            v.sort_by(f64::total_cmp);
            // Down-sample to ~40 points for the chart.
            let step = (v.len() / 40).max(1);
            v.into_iter().step_by(step).collect()
        };
        let chart = linklens_core::chart::Chart::new(
            format!(
                "Figure 13 ({}): active-node idle days, sorted (lower curve = fresher)",
                cfg.name
            ),
            64,
            12,
        )
        .series("positive", &cdf_curve(&pa))
        .series("negative", &cdf_curve(&na));
        con.println(&chart.render());

        payload.push(serde_json::json!({
            "network": cfg.name,
            "positive": serde_json::json!({ "active_idle": pa, "recent_edges": pr, "cn_gap": pg }),
            "negative": serde_json::json!({ "active_idle": na, "recent_edges": nr, "cn_gap": ng }),
        }));
    }
    serde_json::to_value(&payload)
}

/// **Tables 7 & 8** — temporal filtering: the per-network thresholds and
/// the improvement factor (accuracy ratio with filter / without) for every
/// metric-based method and for the SVM classifier across θ values.
///
/// Paper shape to reproduce: filtering never ruins a predictor and helps
/// most — up to ~15× for the weakest metrics (SP, JC on facebook) and
/// 10–120% for the classifiers; the "best" metric can change after
/// filtering.
pub(super) fn table8(ctx: &Context, con: &mut Console) -> Value {
    // Table 7 first.
    let mut t7 = Table::new(
        "Table 7: temporal filter thresholds",
        &["network", "d_act", "d_inact", "window d", "E_new", "d_CN"],
    );
    for (cfg, _) in ctx.traces() {
        let th = TemporalFilter::for_preset(&cfg.name).expect("preset thresholds");
        t7.push_row(vec![
            cfg.name.clone(),
            fnum(th.active_idle_days),
            fnum(th.inactive_idle_days),
            fnum(th.window_days),
            th.min_recent_edges.to_string(),
            fnum(th.cn_gap_days),
        ]);
    }
    con.println(&t7.render());

    let thetas: Vec<f64> = if ctx.quick { vec![1.0, 50.0] } else { vec![1.0, 10.0, 100.0] };
    let mut payload = Vec::new();

    for (cfg, trace) in ctx.traces() {
        let seq = ctx.sequence(trace);
        let t = ctx.mid_transition().min(seq.len() - 1);
        let filter = TemporalFilter::for_preset(&cfg.name).expect("preset");
        let pipe = ClassificationPipeline::new(&seq, classification_config(&seq, t, ctx));
        con.note(&format!("[table8] {} transition {t}", cfg.name));
        let unfiltered = pipe.instance(t, None);
        let filtered = pipe.instance(t, Some(&filter));

        let mut table = Table::new(
            format!(
                "Table 8 ({}, transition {t}): accuracy ratio after/before filtering",
                cfg.name
            ),
            &["predictor", "before", "after", "improvement"],
        );
        let mut rows = Vec::new();
        for metric in osn_metrics::figure5_metrics() {
            let before = unfiltered.metric_outcome(metric.as_ref());
            let after = filtered.metric_outcome(metric.as_ref());
            let imp = if before.accuracy_ratio > 0.0 {
                format!("{:.1}x", after.accuracy_ratio / before.accuracy_ratio)
            } else if after.accuracy_ratio > 0.0 {
                "-".into() // the paper's "before was 0" marker
            } else {
                "0/0".into()
            };
            table.push_row(vec![
                metric.name().to_string(),
                fnum(before.accuracy_ratio),
                fnum(after.accuracy_ratio),
                imp,
            ]);
            rows.push(serde_json::json!({
                "predictor": metric.name(),
                "before": before.accuracy_ratio,
                "after": after.accuracy_ratio,
            }));
        }
        // One cells call per θ: each draws its negative pool at its own θ.
        // One call over every θ would draw a single pool at the largest,
        // and a walk metric scores a pair by the batch it is in, so the
        // smaller θs' training features, and their cells, would move.
        for &theta in &thetas {
            let before = unfiltered.cells(&[ClassifierKind::Svm], &[theta]).remove(0);
            let after = filtered.cells(&[ClassifierKind::Svm], &[theta]).remove(0);
            let imp = if before.mean_accuracy_ratio > 0.0 {
                format!("{:.1}x", after.mean_accuracy_ratio / before.mean_accuracy_ratio)
            } else {
                "-".into()
            };
            table.push_row(vec![
                format!("SVM 1:{theta}"),
                fnum(before.mean_accuracy_ratio),
                fnum(after.mean_accuracy_ratio),
                imp,
            ]);
            rows.push(serde_json::json!({
                "predictor": format!("SVM 1:{theta}"),
                "before": before.mean_accuracy_ratio,
                "after": after.mean_accuracy_ratio,
            }));
        }
        con.println(&table.render());
        payload.push(serde_json::json!({ "network": cfg.name, "rows": rows }));
    }
    serde_json::to_value(&payload)
}

/// **Table 8 ablation** — how BRA's filtered accuracy ratio moves when
/// every day-threshold of Table 7 is scaled by 0.5× and 2× (DESIGN.md §6).
pub(super) fn table8_ablation(ctx: &Context, con: &mut Console) -> Value {
    let bra = osn_metrics::metric_by_name("BRA").expect("BRA exists");
    let mut payload = Vec::new();
    for (cfg, trace) in ctx.traces() {
        let seq = ctx.sequence(trace);
        let t = ctx.mid_transition().min(seq.len() - 1);
        let pipe = ClassificationPipeline::new(&seq, classification_config(&seq, t, ctx));
        con.note(&format!("[table8-ablation] {} transition {t}", cfg.name));
        let base = TemporalFilter::for_preset(&cfg.name).expect("preset");
        let mut ab = Table::new(
            format!("Ablation ({}): BRA improvement vs threshold scaling", cfg.name),
            &["scaling", "after-ratio"],
        );
        let mut rows = Vec::new();
        for scale in [0.5, 1.0, 2.0] {
            let th = TemporalFilter {
                active_idle_days: base.active_idle_days * scale,
                inactive_idle_days: base.inactive_idle_days * scale,
                window_days: base.window_days,
                min_recent_edges: base.min_recent_edges,
                cn_gap_days: base.cn_gap_days * scale,
            };
            let out = pipe.instance(t, Some(&th)).metric_outcome(bra.as_ref());
            ab.push_row(vec![format!("{scale}x"), fnum(out.accuracy_ratio)]);
            rows.push(serde_json::json!({ "scaling": scale, "after": out.accuracy_ratio }));
        }
        con.println(&ab.render());
        payload.push(serde_json::json!({ "network": cfg.name, "transition": t, "rows": rows }));
    }
    serde_json::to_value(&payload)
}

/// The metric subset Figure 16 plots (one per family, as the paper's).
fn fig16_metrics() -> Vec<Box<dyn Metric>> {
    ["JC", "BCN", "BRA", "LP", "PPR"]
        .iter()
        .map(|n| osn_metrics::metric_by_name(n).expect("known metric"))
        .collect()
}

/// **Figure 16** — our temporal filtering versus time-series-based
/// prediction \[10\]: for each metric, four variants on the sampled data —
/// Basic, Basic+Filter, Time-Model (moving average), Time-Model+Filter.
///
/// Paper shape to reproduce: filtering improves accuracy more than the
/// time-series model does, and the two compose — Time-Model+Filter ≥
/// Time-Model.
pub(super) fn fig16(ctx: &Context, con: &mut Console) -> Value {
    let ts = TimeSeriesPredictor { window: 3, aggregation: Aggregation::MovingAverage };
    let mut payload = Vec::new();

    for (cfg, trace) in ctx.traces() {
        let seq = ctx.sequence(trace);
        let eval = SequenceEvaluator::new(&seq);
        let t = ctx.mid_transition().min(seq.len() - 1);
        let filter = TemporalFilter::for_preset(&cfg.name).expect("preset");
        let prev = seq.snapshot(t - 1);
        let truth = eval.ground_truth(t);
        let k = truth.len();
        let universe = unconnected_pair_count(&prev);
        let expected = (k as f64).powi(2) / universe;
        con.note(&format!("[fig16] {} transition {t}, k={k}", cfg.name));

        let mut table = Table::new(
            format!("Figure 16 ({}, transition {t}): accuracy ratio by variant", cfg.name),
            &["metric", "Basic", "Basic+Filter", "TimeModel", "TimeModel+Filter"],
        );
        for metric in fig16_metrics() {
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
        con.println(&table.render());
    }
    serde_json::to_value(&payload)
}
