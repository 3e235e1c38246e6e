//! Sampled metric evaluation — §5.1's subgraph sampling applied to the
//! sequence sweep, for graphs too large to score exhaustively — and the
//! per-draw pieces the §5 classification pipeline shares with it.
//!
//! One draw snowball-samples a node subset of the observed snapshot
//! (`DrawSample::build`: the sampled universe and the optional temporal
//! filter; `Draw::build`: the ground truth restricted to the sample),
//! scores it, and is judged by its seeded top-k against that truth
//! (`Draw::judge`). A spec's samples are memoized on the snapshot, so the
//! metrics estimated on one snapshot share them.
//! Repeating over `draws` samples gives a repeat-averaged accuracy ratio
//! *with a per-draw spread* (`DrawSummary`), so reports can show how
//! tight the sampled estimate is. The accuracy-ratio denominator always
//! uses the exact unconnected-pair count of the sample, so sampled and
//! full evaluations stay on the same scale — at mid scales where both are
//! feasible, the sampled mean agrees with the full sweep within tolerance
//! (pinned by `crates/core/tests/sampled_eval.rs` and asserted end-to-end
//! by the `large_trace` scalecheck scenario).

use crate::filters::TemporalFilter;
use crate::framework::finite_mean;
use osn_graph::activity::{NodeActivity, Prune};
use osn_graph::sample;
use osn_graph::snapshot::Snapshot;
use osn_graph::{par, traversal, NodeId};
use osn_metrics::traits::Metric;
use osn_metrics::{exec, topk};
use serde::Serialize;
use std::collections::HashSet;
use std::sync::Arc;

/// Cap on exhaustively scored pairs per draw: a larger sample falls back
/// to the candidate-restricted universe (see [`sampled_universe`]).
pub const MAX_UNIVERSE_PAIRS: usize = 400_000;

/// Configuration of a sampled evaluation. Every draw is a snowball sample
/// ([`sample::snowball`]), the paper's §5.1 procedure.
#[derive(Clone, Copy, Debug)]
pub struct SampleSpec {
    /// Sample percentage `p` (fraction of the snapshot's nodes per draw).
    pub p: f64,
    /// Number of independent draws averaged over (the paper uses 5).
    pub draws: usize,
    /// Master seed: fixes the draw sequence and top-k tie-breaks.
    pub seed: u64,
}

impl Default for SampleSpec {
    fn default() -> Self {
        SampleSpec { p: 0.25, draws: 5, seed: 0x05A3_D1E5 }
    }
}

/// Repeat-averaged sampled estimate of one metric on one transition.
#[derive(Clone, Debug, Serialize)]
pub struct SampledEstimate {
    /// Metric display name.
    pub metric: String,
    /// Predicted snapshot index `t`.
    pub snapshot_index: usize,
    /// Per-draw accuracy ratios, in draw order. `NaN` marks degenerate
    /// draws (no in-sample truth or empty universe); aggregations skip
    /// them via [`finite_mean`].
    pub per_draw_ratios: Vec<f64>,
    /// Mean accuracy ratio over the finite draws (`NaN` if none).
    pub mean_accuracy_ratio: f64,
    /// Population standard deviation of the same finite draws.
    pub std_accuracy_ratio: f64,
    /// Mean absolute accuracy over draws with in-sample truth.
    pub mean_absolute_accuracy: f64,
    /// Mean in-sample ground-truth count per draw.
    pub mean_k: f64,
    /// Mean sampled-node count per draw (diagnostics).
    pub mean_sample_size: f64,
}

/// What one draw takes from the snapshot alone: its sample, the pairs to
/// rank and the exact universe count. [`evaluate_metric_sampled_on`]
/// memoizes a spec's samples on the snapshot, so every metric sampled on
/// it with that spec and filter ranks the same pairs.
#[derive(Debug)]
pub struct DrawSample {
    /// The sampled nodes, sorted.
    pub members: Vec<NodeId>,
    /// The scored pairs: the sampled universe after the optional temporal
    /// filter, sorted and distinct.
    pub pairs: Vec<(NodeId, NodeId)>,
    /// The exact unconnected-pair count of the sample, whichever universe
    /// was scored and whatever the filter kept.
    pub universe: f64,
}

impl DrawSample {
    /// The sample `members` (sorted) of `snap`: its sampled universe
    /// ([`sampled_universe`] under [`MAX_UNIVERSE_PAIRS`]), narrowed by the
    /// temporal filter of `prune`, `snap`'s activity table, when one is
    /// given.
    pub(crate) fn build(snap: &Snapshot, members: Vec<NodeId>, prune: Prune<'_>) -> DrawSample {
        let (mut pairs, universe) = sampled_universe(snap, &members, MAX_UNIVERSE_PAIRS);
        if let Some(act) = prune {
            pairs.retain(|&(u, v)| act.pair_passes(snap, u, v));
        }
        DrawSample { members, pairs, universe }
    }
}

/// One sampled draw, ready to score: its sample and the truth to judge
/// the sample's pairs against.
#[derive(Clone, Debug)]
pub struct Draw {
    /// The sample, its scored pairs and its universe count.
    pub sample: Arc<DrawSample>,
    /// The ground truth with both endpoints in the sample; its size is
    /// the draw's `k`.
    pub truth: HashSet<(NodeId, NodeId)>,
}

impl Draw {
    /// The draw of `sample` of a snapshot of `n` nodes: `truth_full`
    /// restricted to member pairs.
    pub(crate) fn build(
        n: usize,
        sample: Arc<DrawSample>,
        truth_full: &HashSet<(NodeId, NodeId)>,
    ) -> Draw {
        let is_member = membership(n, &sample.members);
        let inside = |x: NodeId| is_member.get(x as usize).copied().unwrap_or(false);
        let truth: HashSet<(NodeId, NodeId)> =
            truth_full.iter().copied().filter(|&(u, v)| inside(u) && inside(v)).collect();
        Draw { sample, truth }
    }

    /// Judges `scores` (aligned with the sample's pairs): the top-k pairs,
    /// ties broken by `seed`, against the in-sample truth.
    pub(crate) fn judge(&self, scores: &[f64], seed: u64) -> Judgement {
        let k = self.truth.len();
        let predicted = topk::top_k_pairs(&self.sample.pairs, scores, k, seed);
        let correct = predicted.iter().filter(|p| self.truth.contains(p)).count();
        let universe = self.sample.universe;
        let expected = if universe > 0.0 { (k as f64).powi(2) / universe } else { 0.0 };
        // A draw with no random baseline (no truth or no universe) carries
        // no signal: its ratio is NaN, which the summary skips rather than
        // counting it as zero accuracy.
        Judgement {
            k,
            correct,
            expected,
            ratio: if expected > 0.0 { correct as f64 / expected } else { f64::NAN },
            absolute: if k > 0 { correct as f64 / k as f64 } else { f64::NAN },
        }
    }
}

/// One judged draw.
pub(crate) struct Judgement {
    /// In-sample ground-truth count, the number of predictions made.
    pub(crate) k: usize,
    /// Correct predictions among the top-k.
    pub(crate) correct: usize,
    /// Expected hits of uniform-random prediction, `k² / U` (0 without a
    /// universe).
    pub(crate) expected: f64,
    /// `correct / expected`, `NaN` without a random baseline.
    pub(crate) ratio: f64,
    /// `correct / k`, `NaN` when `k = 0`.
    pub(crate) absolute: f64,
}

/// Judged draws aggregated: the finite mean and population standard
/// deviation of the ratios, the finite mean of the absolute accuracies
/// and the mean `k`.
pub(crate) struct DrawSummary {
    pub(crate) mean_ratio: f64,
    pub(crate) std_ratio: f64,
    pub(crate) mean_absolute: f64,
    pub(crate) mean_k: f64,
}

impl DrawSummary {
    pub(crate) fn of(judged: &[Judgement]) -> Self {
        let finite: Vec<f64> = judged.iter().map(|j| j.ratio).filter(|r| r.is_finite()).collect();
        let mean = finite_mean(finite.iter().copied());
        let var = if finite.is_empty() {
            f64::NAN
        } else {
            finite.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / finite.len() as f64
        };
        DrawSummary {
            mean_ratio: mean,
            std_ratio: var.sqrt(),
            mean_absolute: finite_mean(judged.iter().map(|j| j.absolute)),
            mean_k: judged.iter().map(|j| j.k).sum::<usize>() as f64 / judged.len().max(1) as f64,
        }
    }
}

/// The sampled test universe on `snap` for sorted `members`: every
/// unconnected member pair when that fits under `max_pairs`
/// ([`MAX_UNIVERSE_PAIRS`] for every draw; a cap of 0 forces the other
/// branch), otherwise the candidate-restricted universe (2-hop member
/// pairs plus all pairs touching the 20 highest-degree members, the
/// hubs). Returns the pairs, sorted and distinct, and the *exact*
/// unconnected-pair count of the sample — the accuracy-ratio denominator
/// is always exact, whichever universe was scored.
///
/// The restricted universe is built member by member, already in order:
/// a hub's pairs are every later member it is not adjacent to, one merge
/// of the member list with its neighbours; any other member's pairs are
/// its 2-hop targets ([`traversal::two_hop_pairs_among`]) plus the later
/// hubs it is not adjacent to, sorted as one short run. The hubs are the
/// first 20 members after an unstable sort by descending degree, which
/// fixes the choice among members tied on degree.
pub fn sampled_universe(
    snap: &Snapshot,
    members: &[NodeId],
    max_pairs: usize,
) -> (Vec<(NodeId, NodeId)>, f64) {
    let s = members.len() as f64;
    let is_member = membership(snap.node_count(), members);
    let mut edges_inside = 0usize;
    for &u in members {
        for &v in snap.neighbors(u) {
            if v > u && is_member[v as usize] {
                edges_inside += 1;
            }
        }
    }
    let exact_universe = s * (s - 1.0) / 2.0 - edges_inside as f64;
    let exhaustive_count = (s * (s - 1.0) / 2.0) as usize;
    let pairs = if exhaustive_count <= max_pairs {
        traversal::all_pairs_among(snap, members)
    } else {
        let two_hop = traversal::two_hop_pairs_among(snap, members);
        let mut by_degree = members.to_vec();
        by_degree.sort_unstable_by_key(|&u| std::cmp::Reverse(snap.degree(u)));
        let mut hubs: Vec<NodeId> = by_degree.iter().take(20).copied().collect();
        hubs.sort_unstable();
        let mut pairs = Vec::with_capacity(two_hop.len() + hubs.len() * members.len());
        let mut rest = &two_hop[..];
        let mut run: Vec<NodeId> = Vec::new();
        for (i, &u) in members.iter().enumerate() {
            // `two_hop` holds the members' runs in member order.
            let (targets, tail) = rest.split_at(rest.partition_point(|&(a, _)| a == u));
            rest = tail;
            if hubs.binary_search(&u).is_ok() {
                let nbrs = snap.neighbors(u);
                let mut j = nbrs.partition_point(|&x| x <= u);
                for &v in &members[i + 1..] {
                    while j < nbrs.len() && nbrs[j] < v {
                        j += 1;
                    }
                    if nbrs.get(j) != Some(&v) {
                        pairs.push((u, v));
                    }
                }
            } else {
                run.clear();
                run.extend(targets.iter().map(|&(_, v)| v));
                let later = &hubs[hubs.partition_point(|&h| h <= u)..];
                run.extend(later.iter().copied().filter(|&h| !snap.has_edge(u, h)));
                run.sort_unstable();
                run.dedup();
                pairs.extend(run.iter().map(|&v| (u, v)));
            }
        }
        pairs
    };
    (pairs, exact_universe)
}

/// Sample membership as a marker array over the `n` nodes of a snapshot.
fn membership(n: usize, members: &[NodeId]) -> Vec<bool> {
    let mut is_member = vec![false; n];
    for &m in members {
        is_member[m as usize] = true;
    }
    is_member
}

/// The samples of every draw of `spec` on `snap`, in draw order, the
/// pairs narrowed by `filter` when one is given: built on the first call
/// for `snap`, the spec and the filter, and memoized on `snap` for every
/// later one, [`evaluate_metric_sampled_on`]'s included. The key is every
/// field of the spec and of the filter, so any other value of one gets
/// its own draws. Deterministic in the key and independent of thread
/// count.
pub fn draw_samples(
    snap: &Snapshot,
    filter: Option<&TemporalFilter>,
    spec: &SampleSpec,
) -> Arc<Vec<Arc<DrawSample>>> {
    let SampleSpec { p, draws, seed } = *spec;
    let mut key = vec![p.to_bits(), draws as u64, seed];
    if let Some(&TemporalFilter {
        active_idle_days,
        inactive_idle_days,
        window_days,
        min_recent_edges,
        cn_gap_days,
    }) = filter
    {
        key.extend([
            active_idle_days.to_bits(),
            inactive_idle_days.to_bits(),
            window_days.to_bits(),
            min_recent_edges as u64,
            cn_gap_days.to_bits(),
        ]);
    }
    snap.derived::<SampleSpec, _>(&key, || {
        let act = filter.map(|f| NodeActivity::build(snap, f));
        sample::pick_seeds(snap, draws, seed)
            .into_iter()
            .map(|seed_node| {
                let members = sample::snowball(snap, seed_node, p);
                Arc::new(DrawSample::build(snap, members, act.as_ref()))
            })
            .collect()
    })
}

/// Sampled evaluation of one metric on one transition, given the observed
/// snapshot `prev = G_{t-1}` and the full-graph ground truth of `G_t`
/// (canonical new-edge pairs among pre-existing nodes).
///
/// Each draw samples `prev`, restricts both the scored universe and the
/// truth to the sample, predicts in-sample top-k, and scores the draw's
/// own accuracy ratio against its own exact universe; draws aggregate by
/// finite mean and population variance. The samples, with their scored
/// pairs and universe counts, are memoized on `prev` per spec and filter
/// ([`Snapshot::derived`]): every metric estimated on `prev` with them
/// picks seeds, grows snowballs and enumerates pairs once, and each call
/// restricts only `truth_full`. In-core callers pass
/// `seq.snapshot(t - 1)` and the evaluator's ground truth; the streaming
/// sweep passes its windowed snapshot and truth.
// linklens-deterministic: draw sequence and tie-break seeds feed reported accuracy
pub fn evaluate_metric_sampled_on(
    metric: &dyn Metric,
    prev: &Snapshot,
    truth_full: &HashSet<(NodeId, NodeId)>,
    t: usize,
    filter: Option<&TemporalFilter>,
    spec: &SampleSpec,
) -> SampledEstimate {
    assert!(spec.draws > 0, "need at least one draw");
    let samples = draw_samples(prev, filter, spec);
    let judged: Vec<Judgement> = samples
        .iter()
        .enumerate()
        .map(|(di, sample)| {
            let draw = Draw::build(prev.node_count(), Arc::clone(sample), truth_full);
            let scores = exec::score_pairs_t(metric, prev, &sample.pairs, par::max_threads());
            draw.judge(&scores, spec.seed ^ di as u64)
        })
        .collect();
    let summary = DrawSummary::of(&judged);
    SampledEstimate {
        metric: metric.name().to_string(),
        snapshot_index: t,
        per_draw_ratios: judged.iter().map(|j| j.ratio).collect(),
        mean_accuracy_ratio: summary.mean_ratio,
        std_accuracy_ratio: summary.std_ratio,
        mean_absolute_accuracy: summary.mean_absolute,
        mean_k: summary.mean_k,
        mean_sample_size: samples.iter().map(|s| s.members.len()).sum::<usize>() as f64
            / samples.len().max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::sequence::SnapshotSequence;
    use osn_graph::temporal::TemporalGraph;
    use osn_graph::DAY;
    use osn_metrics::fused::LocalKind;

    fn closure_trace() -> TemporalGraph {
        let mut g = TemporalGraph::new();
        let n = 40u32;
        for _ in 0..n {
            g.add_node(0);
        }
        let mut t = DAY;
        for k in 1..=3u32 {
            for i in 0..n {
                g.add_edge(i, (i + k) % n, t);
                t += DAY / 8;
            }
        }
        g
    }

    fn truth_at(seq: &SnapshotSequence, t: usize) -> HashSet<(NodeId, NodeId)> {
        seq.new_edges(t).into_iter().collect()
    }

    #[test]
    fn full_sample_matches_whole_graph_truth() {
        let trace = closure_trace();
        let seq = SnapshotSequence::by_edge_delta(&trace, 40);
        let prev = seq.snapshot(1);
        let truth = truth_at(&seq, 2);
        let spec = SampleSpec { p: 1.0, draws: 2, ..Default::default() };
        let est = evaluate_metric_sampled_on(&LocalKind::Cn, &prev, &truth, 2, None, &spec);
        assert_eq!(est.mean_k, truth.len() as f64, "p=1 samples everything");
        assert_eq!(est.per_draw_ratios.len(), 2);
        assert!(est.mean_accuracy_ratio > 1.0, "closure trace must beat random");
        // Every p=1 draw sees the identical universe → zero variance.
        assert_eq!(est.std_accuracy_ratio, 0.0);
    }

    #[test]
    fn sampled_estimate_is_deterministic() {
        let trace = closure_trace();
        let seq = SnapshotSequence::by_edge_delta(&trace, 40);
        let prev = seq.snapshot(1);
        let truth = truth_at(&seq, 2);
        let spec = SampleSpec { p: 0.5, draws: 3, ..Default::default() };
        let a = evaluate_metric_sampled_on(&LocalKind::Cn, &prev, &truth, 2, None, &spec);
        let b = evaluate_metric_sampled_on(&LocalKind::Cn, &prev, &truth, 2, None, &spec);
        assert_eq!(a.per_draw_ratios, b.per_draw_ratios, "draws must be reproducible");
        assert_eq!(a.mean_sample_size, b.mean_sample_size);
    }

    #[test]
    fn degenerate_draws_report_nan_not_zero() {
        // A snapshot where nothing new arrives: every draw has k = 0.
        let trace = closure_trace();
        let seq = SnapshotSequence::by_edge_delta(&trace, 40);
        let prev = seq.snapshot(1);
        let truth = HashSet::new();
        let spec = SampleSpec { p: 0.5, draws: 2, ..Default::default() };
        let est = evaluate_metric_sampled_on(&LocalKind::Cn, &prev, &truth, 2, None, &spec);
        assert!(est.mean_accuracy_ratio.is_nan());
        assert!(est.per_draw_ratios.iter().all(|r| r.is_nan()));
        assert_eq!(est.mean_k, 0.0);
    }
}
