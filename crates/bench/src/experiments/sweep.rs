//! §4.2–4.3: the Figure 5 sweep of every metric over every snapshot, and
//! what Table 4 and Figure 6 read off it.

use super::{Console, Context};
use linklens_core::framework::{best_absolute_accuracy, finite_mean, pearson};
use linklens_core::report::{fnum, Table};
use linklens_core::selection::{analyze, NetworkFeatures, SelectionSample};
use serde_json::Value;

/// **Figure 5** — accuracy ratio of the 12 plotted metric-based algorithms
/// over each network's snapshot sequence (CN/AA/RA omitted in favor of
/// their local-naive-Bayes versions, as in the paper).
///
/// Paper shape to reproduce:
/// * every metric's accuracy ratio ≫ 1 on friendship networks;
/// * SP and PA consistently poor on friendship networks; PA relatively
///   better on the youtube-like network;
/// * CN-family (BCN/BAA/BRA) near the top on renren/facebook-like;
/// * Rescal at/near the top on the youtube-like network;
/// * accuracy ratio correlates with λ₂ across snapshots (§4.2 reports
///   Pearson 0.95 / 0.83 / 0.81 for the top-6 metrics).
pub(super) fn fig5(ctx: &Context, con: &mut Console) -> Value {
    let sweeps = ctx.sweep();
    for sweep in sweeps {
        let mut headers: Vec<&str> = vec!["snapshot(edges)"];
        headers.extend(sweep.metric_names.iter().map(String::as_str));
        let mut table = Table::new(
            format!("Figure 5 ({}): accuracy ratio per snapshot", sweep.network),
            &headers,
        );
        let transitions = sweep.outcomes[0].len();
        for t in 0..transitions {
            let mut row = vec![format!(
                "{} ({})",
                sweep.outcomes[0][t].snapshot_index, sweep.outcomes[0][t].observed_edges
            )];
            for m in 0..sweep.metric_names.len() {
                row.push(fnum(sweep.outcomes[m][t].accuracy_ratio));
            }
            table.push_row(row);
        }
        con.println(&table.render());

        // λ₂ correlation of the top-6 metrics by mean ratio (§4.2).
        // Degenerate transitions carry NaN ratios; finite_mean skips them.
        let mut mean_ratio: Vec<(usize, f64)> = sweep
            .outcomes
            .iter()
            .enumerate()
            .map(|(i, series)| (i, finite_mean(series.iter().map(|o| o.accuracy_ratio))))
            .collect();
        // NaN means "no usable transitions" — rank those metrics last, not
        // first (total_cmp alone sorts +NaN above every number).
        mean_ratio.sort_by(|a, b| {
            let key = |x: f64| if x.is_nan() { f64::NEG_INFINITY } else { x };
            key(b.1).total_cmp(&key(a.1))
        });
        let corr: Vec<f64> = mean_ratio
            .iter()
            .take(6)
            .map(|&(mi, _)| {
                // Correlate only over transitions with a defined ratio,
                // keeping the λ₂ series aligned.
                let (series, lambda2): (Vec<f64>, Vec<f64>) = sweep.outcomes[mi]
                    .iter()
                    .map(|o| o.accuracy_ratio)
                    .zip(sweep.lambda2.iter().copied())
                    .filter(|(r, _)| r.is_finite())
                    .unzip();
                pearson(&series, &lambda2)
            })
            .collect();
        let avg_corr = finite_mean(corr.iter().copied());
        // Figure-style rendering: the top-6 series on a log axis.
        let mut chart = linklens_core::chart::Chart::new(
            format!("Figure 5 ({}) as a chart: accuracy ratio (log scale)", sweep.network),
            72,
            16,
        )
        .log_y();
        for &(mi, _) in mean_ratio.iter().take(6) {
            let series: Vec<f64> = sweep.outcomes[mi].iter().map(|o| o.accuracy_ratio).collect();
            chart = chart.series(sweep.metric_names[mi].clone(), &series);
        }
        con.print(&chart.render());
        con.println(&format!(
            "top-6 metrics: {:?}",
            mean_ratio.iter().take(6).map(|&(i, _)| &sweep.metric_names[i]).collect::<Vec<_>>()
        ));
        con.println(&format!("mean Pearson(accuracy ratio, λ₂) over top-6: {avg_corr:.2}"));
        con.println(&format!(
            "λ₂ series: {:?}\n",
            sweep.lambda2.iter().map(|x| (x * 100.0).round() / 100.0).collect::<Vec<_>>()
        ));
    }
    serde_json::to_value(sweeps)
}

/// **Table 4** — best possible absolute accuracy (%) of every prediction
/// method on each network: the max over snapshot transitions of
/// `correct / k`.
///
/// Paper shape to reproduce: single-digit percentages at best; the
/// facebook-like network (smallest) gets the highest numbers; SP and PA
/// lowest on friendship networks.
pub(super) fn table4(ctx: &Context, con: &mut Console) -> Value {
    let sweeps = ctx.sweep();
    let metric_names = &sweeps[0].metric_names;
    let mut headers: Vec<&str> = vec!["Network"];
    headers.extend(metric_names.iter().map(String::as_str));
    let mut table = Table::new("Table 4: best absolute accuracy (%) per method", &headers);
    let mut payload = Vec::new();
    for sweep in sweeps {
        let mut row = vec![sweep.network.clone()];
        let mut cells = Vec::new();
        for series in &sweep.outcomes {
            let best = best_absolute_accuracy(series) * 100.0;
            cells.push(best);
            row.push(format!("{best:.2}"));
        }
        table.push_row(row);
        payload.push(serde_json::json!({
            "network": sweep.network,
            "metrics": metric_names,
            "best_absolute_pct": cells,
        }));
    }
    con.println(&table.render());
    serde_json::to_value(&payload)
}

/// **Figure 6 + §4.3 rules** — decision trees that choose the best
/// metric-based algorithm from network properties.
///
/// Every (snapshot, network) pair becomes a data point: the observed
/// snapshot's properties labeled with the metric that won the following
/// transition. The paper gets 69 points from its three traces; the count
/// here depends on `--snapshots`.
///
/// Paper shape to reproduce: degree heterogeneity (std-dev) is the top
/// split; high heterogeneity → Rescal; low median degree → Katz; high
/// median degree → BRA/RA-family. The per-algorithm binary rules should
/// mention the same features.
pub(super) fn fig6(ctx: &Context, con: &mut Console) -> Value {
    let mut samples = Vec::new();
    for sweep in ctx.sweep() {
        let transitions = sweep.outcomes[0].len();
        for t in 0..transitions {
            let ratios: Vec<(String, f64)> = sweep
                .metric_names
                .iter()
                .cloned()
                .zip(sweep.outcomes.iter().map(|s| s[t].accuracy_ratio))
                .collect();
            samples.push(SelectionSample {
                features: NetworkFeatures::from_properties(&sweep.properties[t]),
                ratios,
            });
        }
    }
    con.println(&format!("training on {} snapshot data points across 3 networks\n", samples.len()));

    // Winner distribution (context for the tree).
    let mut wins = std::collections::BTreeMap::new();
    for s in &samples {
        *wins.entry(s.ratios[s.winner()].0.clone()).or_insert(0usize) += 1;
    }
    con.println(&format!("winner counts: {wins:?}\n"));

    let analysis = analyze(&samples, 0.9);
    con.println("## Figure 6: multi-class decision tree (as rules)");
    for rule in analysis.winner_rules() {
        con.println(&format!("  {rule}"));
    }
    con.println("\n## Per-algorithm 'good' rules (within 90% of the best)");
    for (metric, rules) in &analysis.per_metric_rules {
        for rule in rules {
            con.println(&format!("  {metric}: {rule}"));
        }
    }
    con.println("");

    serde_json::json!({
        "samples": samples.len(),
        "winner_counts": wins,
        "winner_rules": analysis.winner_rules(),
        "per_metric_rules": analysis.per_metric_rules,
    })
}
