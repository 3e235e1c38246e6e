//! §5: supervised classifiers against the metrics, on snowball-sampled
//! data.

use super::{classification_config, Console, Context};
use linklens_core::classify::{ClassificationPipeline, ClassifierKind};
use linklens_core::report::{fnum, Table};
use serde_json::Value;

/// **Figure 9** — accuracy ratio of the four classifiers (RF, NB, LR, SVM)
/// at undersampling ratios θ = 1:1 and 1:50, on the facebook-like network.
///
/// Paper shape to reproduce: RF and NB poor; LR roughly on par with SVM;
/// SVM best, and 1:50 beats 1:1 for the margin-based models.
pub(super) fn fig9(ctx: &Context, con: &mut Console) -> Value {
    let (cfg, trace) = &ctx.traces()[0]; // facebook-like
    let seq = ctx.sequence(trace);
    let t = ctx.mid_transition().min(seq.len() - 1);
    let pipe = ClassificationPipeline::new(&seq, classification_config(&seq, t, ctx));

    con.note(&format!("[fig9] {} transition {t}, p={:.3}", cfg.name, pipe.config.sampling_p));
    let outcomes = pipe.sweep(&ClassifierKind::all(), &[1.0, 50.0], t, None);

    let mut table = Table::new(
        format!("Figure 9 ({}, transition {t}): classifier accuracy ratio by θ", cfg.name),
        &["classifier", "θ=1:1", "θ=1:50", "±std (1:50)"],
    );
    for chunk in outcomes.chunks(2) {
        table.push_row(vec![
            chunk[0].classifier.clone(),
            fnum(chunk[0].mean_accuracy_ratio),
            fnum(chunk[1].mean_accuracy_ratio),
            fnum(chunk[1].std_accuracy_ratio),
        ]);
    }
    con.println(&table.render());
    serde_json::to_value(&outcomes)
}

/// **Figure 10 (+ Table 6)** — SVM accuracy ratio as a function of the
/// undersampling ratio θ, per network; prints the Table 6-style instance
/// statistics alongside.
///
/// Paper shape to reproduce: for the friendship networks the accuracy
/// ratio *improves* as θ moves from 1:1 toward the true class ratio —
/// conventional balanced sampling loses up to ~5× accuracy.
pub(super) fn fig10(ctx: &Context, con: &mut Console) -> Value {
    let thetas: Vec<f64> =
        if ctx.quick { vec![1.0, 10.0, 100.0] } else { vec![1.0, 10.0, 100.0, 1000.0] };

    let mut instance_table = Table::new(
        "Table 6: classification data instances",
        &["network", "transition", "sample nodes", "universe pairs", "k"],
    );
    let mut all_outcomes = Vec::new();
    let mut header_strings: Vec<String> = vec!["network".into()];
    header_strings.extend(thetas.iter().map(|t| format!("1:{t}")));
    let headers: Vec<&str> = header_strings.iter().map(String::as_str).collect();
    let mut theta_table =
        Table::new("Figure 10: SVM accuracy ratio vs undersampling ratio θ (1:N)", &headers);

    for (cfg, trace) in ctx.traces() {
        let seq = ctx.sequence(trace);
        let t = ctx.mid_transition().min(seq.len() - 1);
        let pipe = ClassificationPipeline::new(&seq, classification_config(&seq, t, ctx));
        con.note(&format!("[fig10] {} transition {t}, p={:.3}", cfg.name, pipe.config.sampling_p));

        let diag = pipe.seed_diagnostics(t);
        let (s, u, k) = diag
            .iter()
            .fold((0usize, 0.0f64, 0usize), |acc, d| (acc.0 + d.0, acc.1 + d.1, acc.2 + d.2));
        let n = diag.len();
        instance_table.push_row(vec![
            cfg.name.clone(),
            t.to_string(),
            (s / n).to_string(),
            fnum(u / n as f64),
            (k / n).to_string(),
        ]);

        let outcomes = pipe.sweep(&[ClassifierKind::Svm], &thetas, t, None);
        let mut row = vec![cfg.name.clone()];
        row.extend(outcomes.iter().map(|o| fnum(o.mean_accuracy_ratio)));
        theta_table.push_row(row);
        all_outcomes.push(serde_json::json!({ "network": cfg.name, "outcomes": outcomes }));
    }
    con.println(&format!("{}\n{}", instance_table.render(), theta_table.render()));
    serde_json::to_value(&all_outcomes)
}

/// **Figure 11** — metric-based algorithms versus the SVM classifier on
/// identical snowball-sampled data, per network.
///
/// Paper shape to reproduce: with a well-chosen θ, SVM matches or beats
/// the best metric on every network; RA/BRA are consistently near the top
/// among metrics; the best metric differs per network.
pub(super) fn fig11(ctx: &Context, con: &mut Console) -> Value {
    let theta = if ctx.quick { 20.0 } else { 100.0 };
    let mut payload = Vec::new();

    for (cfg, trace) in ctx.traces() {
        let seq = ctx.sequence(trace);
        let t = ctx.mid_transition().min(seq.len() - 1);
        let pipe = ClassificationPipeline::new(&seq, classification_config(&seq, t, ctx));
        con.note(&format!("[fig11] {} transition {t}, p={:.3}", cfg.name, pipe.config.sampling_p));

        let mut rows: Vec<(String, f64)> = Vec::new();
        for metric in osn_metrics::figure5_metrics() {
            let out = pipe.evaluate_metric_on_sample(metric.as_ref(), t, None);
            rows.push((out.metric.clone(), out.accuracy_ratio));
        }
        rows.sort_by(|a, b| a.1.total_cmp(&b.1));
        let svm = pipe.evaluate(ClassifierKind::Svm, theta, t, None);

        let mut table = Table::new(
            format!(
                "Figure 11 ({}, transition {t}): sampled-data accuracy ratio, ascending; SVM θ=1:{theta}",
                cfg.name
            ),
            &["predictor", "accuracy ratio"],
        );
        for (name, ratio) in &rows {
            table.push_row(vec![name.clone(), fnum(*ratio)]);
        }
        table.push_row(vec![
            format!("SVM (±{})", fnum(svm.std_accuracy_ratio)),
            fnum(svm.mean_accuracy_ratio),
        ]);
        con.println(&table.render());

        let best_metric = rows.last().cloned().unwrap_or_default();
        con.println(&format!(
            "best metric: {} ({}); SVM/best-metric ratio: {}\n",
            best_metric.0,
            fnum(best_metric.1),
            fnum(svm.mean_accuracy_ratio / best_metric.1.max(1e-9))
        ));
        payload.push(serde_json::json!({
            "network": cfg.name,
            "metric_ratios": rows,
            "svm": svm,
        }));
    }
    serde_json::to_value(&payload)
}

/// **Figure 12** — how much SVM weight the top-N similarity metrics carry:
/// the cumulative normalized |w| of the N best metrics (by sampled-data
/// accuracy ratio), N = 1..14.
///
/// Paper shape to reproduce: for the friendship networks the curve rises
/// smoothly (metrics contribute comparably, top-6 slightly heavier); good
/// similarity metrics are also heavy SVM features.
pub(super) fn fig12(ctx: &Context, con: &mut Console) -> Value {
    let theta = if ctx.quick { 20.0 } else { 100.0 };
    let mut payload = Vec::new();

    for (cfg, trace) in ctx.traces() {
        let seq = ctx.sequence(trace);
        let t = ctx.mid_transition().min(seq.len() - 1);
        let pipe = ClassificationPipeline::new(&seq, classification_config(&seq, t, ctx));
        con.note(&format!("[fig12] {} transition {t}", cfg.name));

        // Metric ranking on the same sampled data (defines "top-N").
        let mut ranking: Vec<(String, f64)> = Vec::new();
        for metric in osn_metrics::all_metrics() {
            let out = pipe.evaluate_metric_on_sample(metric.as_ref(), t, None);
            ranking.push((out.metric.clone(), out.accuracy_ratio));
        }
        ranking.sort_by(|a, b| b.1.total_cmp(&a.1));

        let svm = pipe.evaluate(ClassifierKind::Svm, theta, t, None);
        let coefs = svm.svm_coefficients.clone().expect("SVM coefficients");
        let names = svm.feature_names.clone();
        let coef_of =
            |name: &str| names.iter().position(|n| n == name).map(|i| coefs[i]).unwrap_or(0.0);

        let mut table = Table::new(
            format!("Figure 12 ({}): cumulative SVM |w| of top-N metrics", cfg.name),
            &["N", "metric added", "metric ratio", "cumulative |w|"],
        );
        let mut cumulative = 0.0;
        let mut series = Vec::new();
        for (i, (name, ratio)) in ranking.iter().enumerate() {
            cumulative += coef_of(name);
            table.push_row(vec![(i + 1).to_string(), name.clone(), fnum(*ratio), fnum(cumulative)]);
            series.push(cumulative);
        }
        con.println(&table.render());
        payload.push(serde_json::json!({
            "network": cfg.name,
            "ranking": ranking,
            "cumulative_weight": series,
            "svm_coefficients": coefs,
            "feature_names": names,
        }));
    }
    serde_json::to_value(&payload)
}
