//! Alternative evaluation protocols the paper discusses and argues
//! against, implemented so the comparison can be *run* instead of assumed:
//!
//! * **AUC evaluation** (§4.1) — the paper uses the top-k accuracy ratio
//!   instead of AUC because "AUC evaluates link prediction performance
//!   according to the entire list of the predicted node pairs" while the
//!   recommendation use case only cares about the top k. [`auc_of_metric`]
//!   implements the standard sampled-AUC protocol (Lü & Zhou \[28\]) so the
//!   two measures can be compared head-to-head: metrics with mediocre AUC
//!   can dominate the top-k and vice versa.
//! * **Missing-link detection** (§2) — "given a partially observed graph,
//!   identify link status for unobserved pairs", which the paper contrasts
//!   with *future*-link prediction. [`MissingLinkEval`] hides a random
//!   fraction of a snapshot's edges and asks a metric to recover them,
//!   letting experiments quantify how different the two problems are on
//!   the same graph.

use osn_graph::snapshot::Snapshot;
use osn_graph::temporal::TemporalGraph;
use osn_graph::{par, NodeId};
use osn_metrics::traits::Metric;
use osn_metrics::{exec, topk};
use osn_ml::eval::roc_auc;
use serde::Serialize;

/// Sampled AUC of a metric on a transition: the probability that a random
/// *positive* pair (a ground-truth new edge) outscores a random *negative*
/// pair (an unconnected pair that does not connect), ties counting half —
/// the protocol of Lü & Zhou's survey \[28\].
///
/// `negatives` bounds the sampled negative set; positives are used in
/// full. Returns 0.5 for degenerate inputs, and NaN when a score is NaN.
///
/// The statistic is [`roc_auc`]'s Mann–Whitney U over the two score
/// lists. Positives and negatives are scored as separate batches, since a
/// walk metric's score of a pair depends on the batch it is scored in.
pub fn auc_of_metric(
    metric: &dyn Metric,
    snap: &Snapshot,
    positives: &[(NodeId, NodeId)],
    negatives: &[(NodeId, NodeId)],
) -> f64 {
    let mut scores = exec::score_pairs_t(metric, snap, positives, par::max_threads());
    scores.extend(exec::score_pairs_t(metric, snap, negatives, par::max_threads()));
    let truth: Vec<bool> = (0..scores.len()).map(|i| i < positives.len()).collect();
    roc_auc(&scores, &truth)
}

/// Result of a missing-link recovery run.
#[derive(Clone, Debug, Serialize)]
pub struct MissingLinkOutcome {
    /// Metric name.
    pub metric: String,
    /// Number of hidden edges (= number of predictions made).
    pub hidden: usize,
    /// Hidden edges recovered in the top-k.
    pub recovered: usize,
    /// `recovered / hidden`.
    pub recovery_rate: f64,
}

/// The missing-link detection protocol: hide a random fraction of an
/// observed graph's edges, score the remaining graph, and check how many
/// hidden edges land in the top-k (k = number hidden).
pub struct MissingLinkEval {
    /// Fraction of edges to hide, in (0, 1).
    pub hide_fraction: f64,
    /// Determinism seed for the hidden-edge choice and tie-breaks.
    pub seed: u64,
}

impl Default for MissingLinkEval {
    fn default() -> Self {
        MissingLinkEval { hide_fraction: 0.1, seed: 0x4D15 }
    }
}

impl MissingLinkEval {
    /// Runs the protocol for one metric on one snapshot. The observed
    /// graph is the snapshot minus the hidden edges; candidates are the
    /// hidden edges plus all unconnected 2-hop pairs of the observed graph
    /// (so the metric must *find* the hidden edges among realistic
    /// distractors).
    // linklens-deterministic: hidden-edge choice and candidate order feed scoring and top-k
    pub fn run(&self, metric: &dyn Metric, snap: &Snapshot) -> MissingLinkOutcome {
        assert!(self.hide_fraction > 0.0 && self.hide_fraction < 1.0);
        let edges: Vec<(NodeId, NodeId)> = snap.edges().collect();
        let hide_count = ((edges.len() as f64 * self.hide_fraction) as usize).max(1);

        // Deterministic shuffle, hide the prefix.
        let mut order: Vec<usize> = (0..edges.len()).collect();
        let mut state = self.seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        for i in (1..order.len()).rev() {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            order.swap(i, (osn_graph::mix64(state) % (i as u64 + 1)) as usize);
        }
        // The hidden edges are kept as the shuffle-ordered Vec (the set is
        // only for membership tests): extending the candidate list from a
        // HashSet would inject per-process iteration order ahead of the
        // sort below.
        let hidden_edges: Vec<(NodeId, NodeId)> =
            order[..hide_count].iter().map(|&i| edges[i]).collect();
        let hidden: std::collections::HashSet<(NodeId, NodeId)> =
            hidden_edges.iter().copied().collect();

        // Rebuild the observed graph (edge times don't matter here: use a
        // static graph over the same node universe).
        let kept: Vec<(NodeId, NodeId)> =
            edges.iter().copied().filter(|e| !hidden.contains(e)).collect();
        let mut g = TemporalGraph::new();
        for _ in 0..snap.node_count() {
            g.add_node(0);
        }
        let mut added = 0;
        for &(u, v) in &kept {
            if g.add_edge(u, v, 0) {
                added += 1;
            }
        }
        let observed = Snapshot::up_to(&g, added.max(1));

        // Candidates: hidden edges + 2-hop distractors of the observed graph.
        let mut candidates =
            osn_graph::traversal::two_hop_pairs(&observed, None, par::max_threads());
        candidates.extend(hidden_edges.iter().copied());
        candidates.sort_unstable();
        candidates.dedup();

        let scores = exec::score_pairs_t(metric, &observed, &candidates, par::max_threads());
        let predicted = topk::top_k_pairs(&candidates, &scores, hide_count, self.seed);
        let recovered = predicted.iter().filter(|p| hidden.contains(p)).count();
        MissingLinkOutcome {
            metric: metric.name().to_string(),
            hidden: hide_count,
            recovered,
            recovery_rate: recovered as f64 / hide_count as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_metrics::fused::LocalKind;

    /// A clustered graph where CN carries strong signal: three 5-cliques.
    fn cliquey() -> Snapshot {
        let mut edges = Vec::new();
        for c in 0..3u32 {
            let base = c * 5;
            for a in 0..5u32 {
                for b in a + 1..5 {
                    edges.push((base + a, base + b));
                }
            }
        }
        // A couple of bridges so it's connected.
        edges.push((0, 5));
        edges.push((5, 10));
        Snapshot::from_edges(15, &edges)
    }

    #[test]
    fn auc_detects_informative_metric() {
        let s = cliquey();
        // Positives: intra-clique 2-hop-ish pairs (hidden-edge stand-ins);
        // here pick pairs with many common neighbors vs cross-clique pairs.
        let positives = vec![(0, 1), (5, 6), (10, 11)]; // actually edges, but CN scores them high
        let negatives = vec![(0, 12), (1, 7), (3, 13)];
        let auc = auc_of_metric(&LocalKind::Cn, &s, &positives, &negatives);
        assert!(auc > 0.9, "CN should separate cliques, got {auc}");
    }

    #[test]
    fn auc_degenerate_inputs() {
        let s = cliquey();
        assert_eq!(auc_of_metric(&LocalKind::Cn, &s, &[], &[(0, 12)]), 0.5);
        assert_eq!(auc_of_metric(&LocalKind::Cn, &s, &[(0, 1)], &[]), 0.5);
    }

    #[test]
    fn auc_ties_count_half() {
        let s = cliquey();
        // Cross-clique pairs all score 0 under CN → pure ties → 0.5.
        let auc = auc_of_metric(&LocalKind::Cn, &s, &[(0, 12)], &[(1, 13)]);
        assert_eq!(auc, 0.5);
    }

    #[test]
    fn missing_link_recovery_beats_chance_on_cliques() {
        let s = cliquey();
        let eval = MissingLinkEval { hide_fraction: 0.15, seed: 3 };
        let out = eval.run(&LocalKind::Cn, &s);
        assert!(out.hidden >= 1);
        assert!(
            out.recovery_rate > 0.3,
            "hidden clique edges have many common neighbors; got {:?}",
            out
        );
    }

    #[test]
    fn missing_link_is_deterministic() {
        let s = cliquey();
        // Fresh eval instances, identical config: the entire outcome must
        // match, pinning the hidden-edge choice and candidate order (not
        // just the headline count).
        let a = MissingLinkEval { hide_fraction: 0.2, seed: 9 }.run(&LocalKind::Cn, &s);
        let b = MissingLinkEval { hide_fraction: 0.2, seed: 9 }.run(&LocalKind::Cn, &s);
        assert_eq!(a.hidden, b.hidden);
        assert_eq!(a.recovered, b.recovered);
        assert_eq!(a.recovery_rate, b.recovery_rate);
    }

    #[test]
    fn different_metrics_differ_on_recovery() {
        let s = cliquey();
        let eval = MissingLinkEval { hide_fraction: 0.2, seed: 5 };
        let cn = eval.run(&LocalKind::Cn, &s);
        let pa = eval.run(&LocalKind::Pa, &s);
        // Not asserting which wins (PA is degree-driven and cliques are
        // regular), just that the protocol discriminates.
        assert!(cn.recovery_rate != pa.recovery_rate || cn.recovered == cn.hidden);
    }
}
