//! Sequence-based evaluation of metric predictors (§3.2, §4.1).
//!
//! The sweep is routed end-to-end through the batched kernels: each
//! snapshot's candidate sets are built **once** (the distance-≤3 base is
//! shared between the `ThreeHop` and `Global` policy groups), the §6.2
//! temporal filter is pushed *into* enumeration through its
//! [`osn_graph::activity::NodeActivity`] table (one per snapshot instead
//! of a per-pair-per-policy feature recomputation), and every metric group
//! goes through `exec`'s chunked engine — fused local kernel for the
//! advertised [`Metric::fused_kind`]s, the solver hooks for the rest,
//! whose factors are memoized on the snapshot — with per-chunk streaming
//! top-k accumulators, so the full
//! (pairs × metrics) score matrix is never materialized. The per-pair
//! feature scan, the oracle the pruned path is property-tested against,
//! lives in `linklens_bench::oracles`.

use osn_graph::activity::NodeActivity;
use osn_graph::sequence::SnapshotSequence;
use osn_graph::snapshot::Snapshot;
use osn_graph::NodeId;
use osn_metrics::candidates::CandidateSet;
use osn_metrics::exec;
use osn_metrics::solver::SolverCache;
use osn_metrics::traits::{CandidatePolicy, Metric};
use serde::Serialize;
use std::collections::HashSet;

use crate::filters::TemporalFilter;

/// A batch of predicted pairs plus the ground-truth set they are judged
/// against.
pub type PredictionsAndTruth = (Vec<(NodeId, NodeId)>, HashSet<(NodeId, NodeId)>);

/// One prediction batch per metric, plus the shared ground-truth set.
pub type ManyPredictionsAndTruth = (Vec<Vec<(NodeId, NodeId)>>, HashSet<(NodeId, NodeId)>);

/// The result of one metric predicting one snapshot transition.
#[derive(Clone, Debug, Serialize, serde::Deserialize)]
pub struct PredictionOutcome {
    /// Metric display name.
    pub metric: String,
    /// Index `t` of the predicted snapshot (predicted from `t − 1`).
    pub snapshot_index: usize,
    /// Edge count of the *observed* snapshot `G_{t-1}`.
    pub observed_edges: usize,
    /// Ground-truth new-edge count (= number of predictions made).
    pub k: usize,
    /// Correctly predicted edges `|E^M|`.
    pub correct: usize,
    /// Absolute accuracy `|E^M| / k`.
    pub absolute_accuracy: f64,
    /// Expected hits of uniform-random prediction, `k² / U`.
    pub random_expected: f64,
    /// The paper's headline measure: `|E^M| / E|E^R|`.
    ///
    /// `NaN` when the transition has no random baseline (`k == 0` or an
    /// empty unconnected-pair universe): "nothing to predict" is not the
    /// same observation as "predicted everything wrong", so such
    /// transitions must be *skipped* by aggregations, not averaged in as
    /// zeros. Use [`finite_mean`] when summarizing ratio series.
    pub accuracy_ratio: f64,
}

impl PredictionOutcome {
    fn from_hits(
        metric: &str,
        snapshot_index: usize,
        observed_edges: usize,
        k: usize,
        correct: usize,
        unconnected_pairs: f64,
    ) -> Self {
        let random_expected = if unconnected_pairs > 0.0 {
            (k as f64) * (k as f64) / unconnected_pairs
        } else {
            f64::NAN
        };
        PredictionOutcome {
            metric: metric.to_string(),
            snapshot_index,
            observed_edges,
            k,
            correct,
            absolute_accuracy: if k == 0 { 0.0 } else { correct as f64 / k as f64 },
            random_expected,
            accuracy_ratio: if random_expected > 0.0 {
                correct as f64 / random_expected
            } else {
                f64::NAN
            },
        }
    }
}

/// Mean of the finite values in `values`, skipping `NaN`/infinite entries
/// (degenerate transitions report [`PredictionOutcome::accuracy_ratio`] as
/// `NaN`). Returns `NaN` when no finite value remains, so "no usable data"
/// stays distinguishable from a genuine zero.
pub fn finite_mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut count) = (0.0, 0usize);
    for v in values {
        if v.is_finite() {
            sum += v;
            count += 1;
        }
    }
    if count == 0 {
        f64::NAN
    } else {
        sum / count as f64
    }
}

/// Number of unconnected node pairs among the observed snapshot's nodes —
/// the random predictor's universe `U = C(n,2) − |E|`.
pub fn unconnected_pair_count(snap: &Snapshot) -> f64 {
    let n = snap.node_count() as f64;
    n * (n - 1.0) / 2.0 - snap.edge_count() as f64
}

/// Evaluates metric predictors over a snapshot sequence.
pub struct SequenceEvaluator<'a> {
    seq: &'a SnapshotSequence<'a>,
    /// How many top-degree nodes get their full pair fan-out added to the
    /// candidate set under the `Global` policy (PA / Rescal).
    pub top_degree_candidates: usize,
    /// Hard cap on candidate pairs per policy group (0 = unlimited); see
    /// [`CandidateSet::capped`].
    pub max_candidate_pairs: usize,
    /// Tie-break seed for top-k selection.
    pub seed: u64,
}

impl<'a> SequenceEvaluator<'a> {
    /// Creates an evaluator with default candidate settings.
    pub fn new(seq: &'a SnapshotSequence<'a>) -> Self {
        SequenceEvaluator {
            seq,
            top_degree_candidates: 25,
            max_candidate_pairs: 6_000_000,
            seed: 0x11A5,
        }
    }

    /// Builds the shared candidate set on `snap` for a group of metrics
    /// (loosest policy wins). A temporal filter is pushed *into* the
    /// enumeration walk through its [`NodeActivity`] table — rejected
    /// pairs are never materialized — and the pair cap applies after
    /// pruning, so rejected pairs cannot crowd survivors out of the stride
    /// subsample.
    pub fn candidates_for(
        &self,
        snap: &Snapshot,
        metrics: &[&dyn Metric],
        filter: Option<&TemporalFilter>,
    ) -> CandidateSet {
        let policy =
            metrics.iter().map(|m| m.candidate_policy()).max().unwrap_or(CandidatePolicy::TwoHop);
        let act = filter.map(|f| NodeActivity::build(snap, f));
        CandidateSet::build_pruned(snap, policy, self.top_degree_candidates, act.as_ref())
            .capped(self.max_candidate_pairs)
    }

    /// The sweep's scoring core: top-k predictions for every metric on one
    /// observed snapshot, `predictions[i]` aligned with `metrics[i]`.
    ///
    /// Candidate enumeration happens once per policy group — the
    /// distance-≤3 base is built a single time and shared between the
    /// `ThreeHop` and `Global` groups — with any temporal filter pushed
    /// into the walks via one per-snapshot [`NodeActivity`] table. Each
    /// group then runs through [`exec::predict_top_k_many_cached_t`]: the
    /// fused local kernel covers every metric advertising a
    /// [`Metric::fused_kind`], solver-backed metrics share the solver
    /// cache, and per-chunk top-k accumulators merge streams so
    /// the full (pairs × metrics) matrix never exists.
    fn predict_top_k_groups(
        &self,
        metrics: &[&dyn Metric],
        prev: &Snapshot,
        k: usize,
        filter: Option<&TemporalFilter>,
        cache: &mut SolverCache,
    ) -> Vec<Vec<(NodeId, NodeId)>> {
        // One activity table per snapshot, shared by every candidate walk.
        let act = filter.map(|f| NodeActivity::build(prev, f));
        let prune = act.as_ref();
        let has = |p: CandidatePolicy| metrics.iter().any(|m| m.candidate_policy() == p);
        // The ThreeHop set *is* the within-3 enumeration and the Global set
        // extends it; when both groups are present, pay the bounded BFS
        // once and hand each group its view of the shared base.
        let mut base3: Option<Vec<(NodeId, NodeId)>> = None;
        if has(CandidatePolicy::ThreeHop) && has(CandidatePolicy::Global) {
            base3 = Some(CandidateSet::within3_base(prev, prune));
        }
        let mut predictions: Vec<Vec<(NodeId, NodeId)>> = vec![Vec::new(); metrics.len()];
        // Metrics are grouped by candidate policy so the cheap 2-hop
        // metrics never pay for (or get scored against) the much larger
        // 3-hop / global candidate sets.
        for policy in [CandidatePolicy::TwoHop, CandidatePolicy::ThreeHop, CandidatePolicy::Global]
        {
            let group: Vec<(usize, &dyn Metric)> = metrics
                .iter()
                .enumerate()
                .filter(|(_, m)| m.candidate_policy() == policy)
                .map(|(i, m)| (i, *m))
                .collect();
            if group.is_empty() {
                continue;
            }
            let group_metrics: Vec<&dyn Metric> = group.iter().map(|&(_, m)| m).collect();
            let cands = match policy {
                CandidatePolicy::TwoHop => {
                    CandidateSet::build_pruned(prev, policy, self.top_degree_candidates, prune)
                }
                CandidatePolicy::ThreeHop => match &base3 {
                    Some(base) => CandidateSet::three_hop_from_base(base.clone()),
                    None => {
                        CandidateSet::build_pruned(prev, policy, self.top_degree_candidates, prune)
                    }
                },
                CandidatePolicy::Global => {
                    let base =
                        base3.take().unwrap_or_else(|| CandidateSet::within3_base(prev, prune));
                    CandidateSet::global_from_base(prev, base, self.top_degree_candidates, prune)
                }
            }
            .capped(self.max_candidate_pairs);
            // All metrics in the group run on the shared scoring engine:
            // fused local metrics share one witness walk per source, and
            // every other metric gets the full worker budget in turn.
            let group_predictions = exec::predict_top_k_many_cached_t(
                &group_metrics,
                prev,
                &cands,
                k,
                self.seed,
                osn_graph::par::max_threads(),
                cache,
            );
            for (&(idx, _), predicted) in group.iter().zip(group_predictions) {
                predictions[idx] = predicted;
            }
        }
        predictions
    }

    /// Ground truth for transition `t`: the new edges of `G_t` among nodes
    /// existing in `G_{t-1}`, as a hash set of canonical pairs.
    pub fn ground_truth(&self, t: usize) -> HashSet<(NodeId, NodeId)> {
        self.seq.new_edges(t).into_iter().collect()
    }

    /// Evaluates one metric on one transition.
    pub fn evaluate_metric(&self, metric: &dyn Metric, t: usize) -> PredictionOutcome {
        // linklens-allow(unwrap-in-lib): evaluate_metrics_at returns one outcome per metric
        self.evaluate_metrics_at(&[metric], t, None).pop().expect("one metric in, one out")
    }

    /// Evaluates several metrics on transition `t` sharing one candidate
    /// enumeration (and one optional filter pass). Builds `G_{t-1}` from
    /// scratch; when walking many transitions in order, prefer
    /// [`evaluate_metrics_on_cached`](Self::evaluate_metrics_on_cached) fed
    /// by a [`SnapshotSequence::snapshots`] sweep.
    pub fn evaluate_metrics_at(
        &self,
        metrics: &[&dyn Metric],
        t: usize,
        filter: Option<&TemporalFilter>,
    ) -> Vec<PredictionOutcome> {
        assert!(t >= 1 && t < self.seq.len(), "transition index out of range");
        let prev = self.seq.snapshot(t - 1);
        self.evaluate_metrics_on_cached(metrics, &prev, t, filter, &mut SolverCache::transient())
    }

    /// Evaluates several metrics on transition `t` given an
    /// already-materialized observed snapshot `prev = G_{t-1}` and a
    /// caller-owned solver cache — the sweep-friendly core of
    /// [`evaluate_metrics_at`](Self::evaluate_metrics_at), which passes a
    /// fresh [`SolverCache::transient`]; [`evaluate_all`](Self::evaluate_all)
    /// passes one cache through the whole sweep. The cache only counts
    /// solver work: the factors Katz-lr, Katz-sc and Rescal share across
    /// the policy groups are memoized on `prev`, so the outcomes are the
    /// same either way.
    pub fn evaluate_metrics_on_cached(
        &self,
        metrics: &[&dyn Metric],
        prev: &Snapshot,
        t: usize,
        filter: Option<&TemporalFilter>,
        cache: &mut SolverCache,
    ) -> Vec<PredictionOutcome> {
        assert!(t >= 1 && t < self.seq.len(), "transition index out of range");
        debug_assert_eq!(
            prev.prefix_len(),
            self.seq.boundary(t - 1),
            "prev must be the snapshot at boundary t - 1"
        );
        let truth = self.ground_truth(t);
        let k = truth.len();
        let u = unconnected_pair_count(prev);
        let predictions = self.predict_top_k_groups(metrics, prev, k, filter, cache);
        metrics
            .iter()
            .zip(predictions)
            .map(|(m, predicted)| {
                let correct = predicted.iter().filter(|p| truth.contains(p)).count();
                PredictionOutcome::from_hits(m.name(), t, prev.edge_count(), k, correct, u)
            })
            .collect()
    }

    /// Evaluates metrics over every transition `1..len()`, returning
    /// `outcomes[metric][transition]`. Observed snapshots come from one
    /// incremental [`SnapshotSequence::snapshots`] sweep, so the whole pass
    /// applies each trace edge once instead of rebuilding a CSR per
    /// transition.
    pub fn evaluate_all(
        &self,
        metrics: &[&dyn Metric],
        filter: Option<&TemporalFilter>,
    ) -> Vec<Vec<PredictionOutcome>> {
        let mut per_metric: Vec<Vec<PredictionOutcome>> =
            (0..metrics.len()).map(|_| Vec::new()).collect();
        let mut sweep = self.seq.snapshots();
        // One solver cache counts the whole sweep. Each snapshot's factors
        // live in its memo, which the next advance empties.
        let mut cache = SolverCache::transient();
        for t in 1..self.seq.len() {
            // Transition t observes snapshot t − 1; the final snapshot is
            // only ever ground truth, so the sweep never materializes it.
            // linklens-allow(unwrap-in-lib): t < len(), and the sweep yields len() snapshots
            let prev = sweep.next().expect("sweep yields len() snapshots");
            for (mi, outcome) in self
                .evaluate_metrics_on_cached(metrics, prev, t, filter, &mut cache)
                .into_iter()
                .enumerate()
            {
                per_metric[mi].push(outcome);
            }
        }
        per_metric
    }

    /// Raw top-k predictions for transition `t` — the input to the §4.4
    /// bias analyses (Fig. 7/8, Table 5). Routed through the same batched
    /// engine as the sweep, so a prediction inspected here is bit-identical
    /// to the one [`evaluate_metrics_at`](Self::evaluate_metrics_at) scored.
    pub fn predictions(
        &self,
        metric: &dyn Metric,
        t: usize,
        filter: Option<&TemporalFilter>,
    ) -> PredictionsAndTruth {
        let (mut predicted, truth) = self.predictions_many(&[metric], t, filter);
        // linklens-allow(unwrap-in-lib): predictions_many returns one batch per metric
        (predicted.pop().expect("one metric in, one out"), truth)
    }

    /// [`predictions`](Self::predictions) for several metrics at once,
    /// sharing one candidate enumeration per policy group and one solver
    /// cache: `result.0[i]` aligns with `metrics[i]`.
    pub fn predictions_many(
        &self,
        metrics: &[&dyn Metric],
        t: usize,
        filter: Option<&TemporalFilter>,
    ) -> ManyPredictionsAndTruth {
        assert!(t >= 1 && t < self.seq.len());
        let prev = self.seq.snapshot(t - 1);
        let truth = self.ground_truth(t);
        let mut cache = SolverCache::transient();
        let predictions =
            self.predict_top_k_groups(metrics, &prev, truth.len(), filter, &mut cache);
        (predictions, truth)
    }
}

/// Best absolute accuracy over all transitions — one Table 4 cell.
pub fn best_absolute_accuracy(outcomes: &[PredictionOutcome]) -> f64 {
    outcomes.iter().map(|o| o.absolute_accuracy).fold(0.0, f64::max)
}

/// Pearson correlation between two equal-length series (the paper
/// correlates metric accuracy ratios with λ₂ in §4.2).
pub fn pearson(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let cov: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum();
    let va: f64 = a.iter().map(|x| (x - ma).powi(2)).sum();
    let vb: f64 = b.iter().map(|y| (y - mb).powi(2)).sum();
    if va <= 0.0 || vb <= 0.0 {
        0.0
    } else {
        cov / (va * vb).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::temporal::TemporalGraph;
    use osn_metrics::fused::LocalKind;

    /// A trace engineered so CN prediction is perfect: square closes both
    /// diagonals in the second half.
    fn closing_square() -> TemporalGraph {
        let mut g = TemporalGraph::new();
        for _ in 0..6 {
            g.add_node(0);
        }
        g.add_edge(0, 1, 10);
        g.add_edge(1, 2, 20);
        g.add_edge(2, 3, 30);
        g.add_edge(3, 0, 40);
        // Second snapshot: the two diagonals + filler edges to node 4/5.
        g.add_edge(0, 2, 50);
        g.add_edge(1, 3, 60);
        g.add_edge(0, 4, 70);
        g.add_edge(4, 5, 80);
        g
    }

    #[test]
    fn perfect_metric_gets_full_absolute_accuracy() {
        let trace = closing_square();
        let seq = SnapshotSequence::by_edge_delta(&trace, 4);
        let eval = SequenceEvaluator::new(&seq);
        let out = eval.evaluate_metric(&LocalKind::Cn, 1);
        // Ground truth: (0,2), (1,3), (0,4). (4,5) excluded? Node 4 and 5
        // arrived at t=0 → all exist. So k = 4. CN can predict the two
        // diagonals but (0,4) and (4,5) share no neighbors.
        assert_eq!(out.k, 4);
        assert_eq!(out.correct, 2);
        assert_eq!(out.absolute_accuracy, 0.5);
        assert!(out.accuracy_ratio > 1.0, "must beat random");
    }

    #[test]
    fn random_expected_uses_unconnected_universe() {
        let trace = closing_square();
        let seq = SnapshotSequence::by_edge_delta(&trace, 4);
        let eval = SequenceEvaluator::new(&seq);
        let out = eval.evaluate_metric(&LocalKind::Cn, 1);
        // G_0: 6 nodes, 4 edges → U = 15 - 4 = 11; k = 4 → E|R| = 16/11.
        assert!((out.random_expected - 16.0 / 11.0).abs() < 1e-12);
        assert!((out.accuracy_ratio - 2.0 / (16.0 / 11.0)).abs() < 1e-12);
    }

    #[test]
    fn evaluate_all_covers_every_transition() {
        let trace = closing_square();
        let seq = SnapshotSequence::by_edge_delta(&trace, 2);
        let eval = SequenceEvaluator::new(&seq);
        let metrics: Vec<&dyn Metric> = vec![&LocalKind::Cn];
        let all = eval.evaluate_all(&metrics, None);
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].len(), seq.len() - 1);
    }

    #[test]
    fn predictions_expose_raw_pairs() {
        let trace = closing_square();
        let seq = SnapshotSequence::by_edge_delta(&trace, 4);
        let eval = SequenceEvaluator::new(&seq);
        let (pred, truth) = eval.predictions(&LocalKind::Cn, 1, None);
        assert_eq!(truth.len(), 4);
        assert!(pred.len() <= 4);
        assert!(pred.contains(&(0, 2)) || pred.contains(&(1, 3)));
    }

    #[test]
    fn unconnected_pair_count_matches_formula() {
        let s = Snapshot::from_edges(5, &[(0, 1), (1, 2)]);
        assert_eq!(unconnected_pair_count(&s), 10.0 - 2.0);
    }

    #[test]
    fn degenerate_transition_yields_nan_ratio_not_zero() {
        // k = 0: no ground truth → no random baseline → NaN, not 0.0.
        let o = PredictionOutcome::from_hits("cn", 1, 10, 0, 0, 100.0);
        assert!(o.random_expected == 0.0);
        assert!(o.accuracy_ratio.is_nan(), "no-baseline must not read as 'all wrong'");
        // Empty candidate universe: same story.
        let o = PredictionOutcome::from_hits("cn", 1, 10, 5, 0, 0.0);
        assert!(o.random_expected.is_nan());
        assert!(o.accuracy_ratio.is_nan());
        // A real baseline still produces a finite ratio.
        let o = PredictionOutcome::from_hits("cn", 1, 10, 4, 2, 11.0);
        assert!(o.accuracy_ratio.is_finite());
    }

    #[test]
    fn finite_mean_skips_nan_rows() {
        assert_eq!(finite_mean([1.0, f64::NAN, 3.0]), 2.0);
        assert_eq!(finite_mean([f64::NAN, f64::INFINITY, 2.0]), 2.0);
        assert!(finite_mean([f64::NAN]).is_nan());
        assert!(finite_mean(std::iter::empty()).is_nan());
    }

    #[test]
    fn evaluate_on_matches_evaluate_at() {
        // `evaluate_all` threads one solver cache through the sweep; every
        // metric must score each transition as a fresh cache scores it.
        let owned = osn_metrics::all_metrics();
        let metrics: Vec<&dyn Metric> = owned.iter().map(|m| m.as_ref()).collect();
        let square = closing_square();
        let grown =
            osn_trace::presets::TraceConfig::renren_like().scaled(0.05).with_days(30).generate(42);
        let seqs =
            [SnapshotSequence::by_edge_delta(&square, 2), SnapshotSequence::with_count(&grown, 5)];
        for seq in &seqs {
            let eval = SequenceEvaluator::new(seq);
            let all = eval.evaluate_all(&metrics, None);
            for t in 1..seq.len() {
                let prev = seq.snapshot(t - 1);
                let mut cache = SolverCache::transient();
                let on = eval.evaluate_metrics_on_cached(&metrics, &prev, t, None, &mut cache);
                let at = eval.evaluate_metrics_at(&metrics, t, None);
                let key = |o: &PredictionOutcome| (o.correct, o.k, o.accuracy_ratio.to_bits());
                for (mi, want) in at.iter().enumerate() {
                    let who = format!("{} at transition {t} of {}", want.metric, seq.len() - 1);
                    assert_eq!(key(&all[mi][t - 1]), key(want), "evaluate_all, {who}");
                    assert_eq!(key(&on[mi]), key(want), "evaluate_metrics_on_cached, {who}");
                }
            }
        }
    }

    #[test]
    fn pearson_basics() {
        assert!((pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]) - 1.0).abs() < 1e-12);
        assert!((pearson(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]), 0.0);
    }

    #[test]
    fn best_absolute_picks_max() {
        let trace = closing_square();
        let seq = SnapshotSequence::by_edge_delta(&trace, 2);
        let eval = SequenceEvaluator::new(&seq);
        let metrics: Vec<&dyn Metric> = vec![&LocalKind::Cn];
        let all = eval.evaluate_all(&metrics, None);
        let best = best_absolute_accuracy(&all[0]);
        assert!(best >= all[0][0].absolute_accuracy);
        assert!(best >= all[0].last().unwrap().absolute_accuracy);
    }
}
