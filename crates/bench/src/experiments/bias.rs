//! §4.4: the structural and temporal bias of each metric's predictions,
//! on one mid-trace renren-like transition (the paper uses Renren at 55M
//! edges).

use super::{Console, Context};
use linklens_core::framework::SequenceEvaluator;
use linklens_core::report::{fnum, Table};
use osn_graph::snapshot::Snapshot;
use osn_graph::{NodeId, DAY};
use serde_json::Value;
use std::cmp::Reverse;
use std::collections::{BTreeMap, HashSet};

fn degree_deciles(snap: &Snapshot, pairs: &[(NodeId, NodeId)]) -> Vec<f64> {
    let mut degs: Vec<f64> =
        pairs.iter().flat_map(|&(u, v)| [snap.degree(u) as f64, snap.degree(v) as f64]).collect();
    degs.sort_by(f64::total_cmp);
    if degs.is_empty() {
        return vec![0.0; 5];
    }
    [0.1, 0.25, 0.5, 0.75, 0.9]
        .iter()
        .map(|&q| {
            let rank = ((q * degs.len() as f64).ceil() as usize).clamp(1, degs.len());
            degs[rank - 1]
        })
        .collect()
}

/// **Figure 7** — degree distribution of nodes in predicted edges versus
/// ground truth (the §4.4 structural-bias analysis).
///
/// Paper shape to reproduce: JC and PPR skew toward low-degree nodes;
/// BCN/BAA/LP/Katz/Rescal skew toward high-degree nodes; ground truth sits
/// in between.
pub(super) fn fig7(ctx: &Context, con: &mut Console) -> Value {
    let (cfg, trace) = &ctx.traces()[1]; // renren-like
    let seq = ctx.sequence(trace);
    let eval = SequenceEvaluator::new(&seq);
    let t = ctx.mid_transition().min(seq.len() - 1);
    let snap = seq.snapshot(t - 1);

    let mut table = Table::new(
        format!(
            "Figure 7 ({}, transition {t}): degree percentiles of nodes in predicted edges",
            cfg.name
        ),
        &["predictor", "p10", "p25", "median", "p75", "p90"],
    );
    let mut payload = Vec::new();

    // Ground truth row first.
    let truth: Vec<(NodeId, NodeId)> = seq.new_edges(t);
    let truth_deciles = degree_deciles(&snap, &truth);
    table.push_row(
        std::iter::once("ground truth".to_string())
            .chain(truth_deciles.iter().map(|&x| fnum(x)))
            .collect(),
    );
    payload.push(serde_json::json!({ "predictor": "ground truth", "deciles": truth_deciles }));

    for metric in osn_metrics::figure5_metrics() {
        let (predicted, _) = eval.predictions(metric.as_ref(), t, None);
        let deciles = degree_deciles(&snap, &predicted);
        table.push_row(
            std::iter::once(metric.name().to_string())
                .chain(deciles.iter().map(|&x| fnum(x)))
                .collect(),
        );
        payload.push(serde_json::json!({ "predictor": metric.name(), "deciles": deciles }));
    }
    con.println(&table.render());
    serde_json::to_value(&payload)
}

/// The `count` nodes that appear most often in `predicted`. Ties in the
/// count go to the lower node id, so the cut is the same in every run.
fn most_predicted(predicted: &[(NodeId, NodeId)], count: usize) -> HashSet<NodeId> {
    let mut freq: BTreeMap<NodeId, usize> = BTreeMap::new();
    for &(u, v) in predicted {
        *freq.entry(u).or_default() += 1;
        *freq.entry(v).or_default() += 1;
    }
    let mut by_freq: Vec<(NodeId, usize)> = freq.into_iter().collect();
    by_freq.sort_unstable_by_key(|&(u, n)| (Reverse(n), u));
    by_freq.into_iter().take(count).map(|(u, _)| u).collect()
}

/// **Table 5** — concentration of predictions: the share of predicted and
/// of real edges that involve the 0.1% most-frequently-predicted nodes.
///
/// Paper shape to reproduce: every metric (Rescal worst, then LRW/Katz/LP)
/// heavily over-predicts a small group of nodes — predicted share far above
/// the real share — except BRA, which is nearly unbiased.
pub(super) fn table5(ctx: &Context, con: &mut Console) -> Value {
    let (cfg, trace) = &ctx.traces()[1]; // renren-like
    let seq = ctx.sequence(trace);
    let eval = SequenceEvaluator::new(&seq);
    let t = ctx.mid_transition().min(seq.len() - 1);
    let n = seq.snapshot(t - 1).node_count();
    // 0.1% of nodes, at least 3 so tiny scales stay meaningful.
    let top_count = ((n as f64) * 0.001).ceil().max(3.0) as usize;

    let mut table = Table::new(
        format!(
            "Table 5 ({}, transition {t}): share of edges touching the {top_count} most-predicted nodes",
            cfg.name
        ),
        &["metric", "predicted edges (%)", "real edges (%)"],
    );
    let mut payload = Vec::new();
    for metric in osn_metrics::figure5_metrics() {
        let (predicted, truth) = eval.predictions(metric.as_ref(), t, None);
        if predicted.is_empty() {
            continue;
        }
        // Most frequently predicted nodes for THIS metric.
        let top = most_predicted(&predicted, top_count);

        let share = |edges: &[(NodeId, NodeId)]| {
            if edges.is_empty() {
                return 0.0;
            }
            edges.iter().filter(|&&(u, v)| top.contains(&u) || top.contains(&v)).count() as f64
                / edges.len() as f64
        };
        let truth_vec: Vec<(NodeId, NodeId)> = truth.iter().copied().collect();
        let pred_share = share(&predicted) * 100.0;
        let real_share = share(&truth_vec) * 100.0;
        table.push_row(vec![
            metric.name().to_string(),
            format!("{pred_share:.1}"),
            format!("{real_share:.1}"),
        ]);
        payload.push(serde_json::json!({
            "metric": metric.name(),
            "predicted_pct": pred_share,
            "real_pct": real_share,
        }));
    }
    con.println(&table.render());
    serde_json::to_value(&payload)
}

fn idle_days(snap: &Snapshot, pairs: &[(NodeId, NodeId)]) -> Vec<f64> {
    let t = snap.time();
    pairs
        .iter()
        .flat_map(|&(u, v)| [u, v])
        .filter_map(|x| snap.last_activity(x).map(|l| (t - l) as f64 / DAY as f64))
        .collect()
}

/// **Figure 8** — CDF of node idle time in predicted edges versus ground
/// truth (the §4.4 temporal-bias analysis).
///
/// Paper shape to reproduce: every metric's predicted nodes are *more*
/// dormant than ground truth — the predicted idle-time CDF sits to the
/// right of (below) the ground-truth CDF.
pub(super) fn fig8(ctx: &Context, con: &mut Console) -> Value {
    let (cfg, trace) = &ctx.traces()[1]; // renren-like
    let seq = ctx.sequence(trace);
    let eval = SequenceEvaluator::new(&seq);
    let t = ctx.mid_transition().min(seq.len() - 1);
    let snap = seq.snapshot(t - 1);

    let mut table = Table::new(
        format!(
            "Figure 8 ({}, transition {t}): idle time (days) of nodes in predicted edges",
            cfg.name
        ),
        &["predictor", "median", "p75", "p90", "frac < 3d"],
    );
    let mut payload = Vec::new();
    let emit = |name: &str, mut days: Vec<f64>, payload: &mut Vec<Value>, table: &mut Table| {
        if days.is_empty() {
            return;
        }
        days.sort_by(f64::total_cmp);
        let q = |p: f64| days[((p * days.len() as f64).ceil() as usize).clamp(1, days.len()) - 1];
        let frac3 = linklens_core::temporal::fraction_below(&days, 3.0);
        table.push_row(vec![
            name.to_string(),
            fnum(q(0.5)),
            fnum(q(0.75)),
            fnum(q(0.9)),
            fnum(frac3),
        ]);
        payload.push(serde_json::json!({
            "predictor": name, "median": q(0.5), "p75": q(0.75), "p90": q(0.9),
            "frac_below_3d": frac3,
        }));
    };

    let truth: Vec<(NodeId, NodeId)> = seq.new_edges(t);
    emit("ground truth", idle_days(&snap, &truth), &mut payload, &mut table);
    for metric in osn_metrics::figure5_metrics() {
        let (predicted, _) = eval.predictions(metric.as_ref(), t, None);
        emit(metric.name(), idle_days(&snap, &predicted), &mut payload, &mut table);
    }
    con.println(&table.render());
    serde_json::to_value(&payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_cut_inside_a_tie_takes_the_lowest_ids() {
        // Node 9 appears three times; nodes 2, 4, 6 and 8 twice each; node
        // 1 once. A cut of three takes 9, then the two lowest of the tie.
        let predicted = [(9, 8), (9, 6), (9, 4), (8, 2), (6, 4), (2, 1)];
        assert_eq!(most_predicted(&predicted, 3), HashSet::from([9, 2, 4]));
        assert_eq!(most_predicted(&predicted, 1), HashSet::from([9]));
        assert_eq!(most_predicted(&predicted, 10).len(), 6);
    }
}
