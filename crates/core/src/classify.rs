//! Classification-based link prediction (§5).
//!
//! The pipeline follows the paper's §5.1 setup exactly:
//!
//! 1. snowball-sample a node set `V^S` at percentage `p` from `G_{t-2}`,
//!    re-using the same seed node on `G_{t-1}`;
//! 2. **training**: label node pairs among `V^S(G_{t-2})` positive if they
//!    connect in `G_{t-1}`; undersample negatives at ratio θ; compute all
//!    14 similarity metrics *on the full graph* `G_{t-2}` as features;
//! 3. **testing**: compute the same features on `G_{t-1}` for the pairs
//!    among `V^S(G_{t-1})`, rank by classifier decision score, take the top
//!    `k` (`k` = actual new edges among the sampled nodes in `G_t`);
//! 4. repeat over several snowball seeds and average.
//!
//! [`ClassificationPipeline::instance`] builds a transition's sampled
//! instance once: per seed, a [`Draw`] of `G_{t-1}` (the scored pairs
//! after the optional temporal filter, the in-sample truth, the exact
//! universe and the sample size). Every §5 number reads it: a metric point
//! ([`SampledInstance::metric_outcome`], Figs. 11–12 and Table 8), the
//! (classifier, θ) cells ([`SampledInstance::cells`], Figs. 9–10 and
//! Table 8) and Table 6's sizes ([`SampledInstance::diagnostics`]). Both
//! readers judge a seed with the draw's seeded top-k and aggregate seeds
//! with the summary the sampled metric evaluation uses
//! ([`crate::sampling`]).
//!
//! Feature computation dominates the cost (the paper says the same of its
//! C++ pipeline, §3.2), so an instance computes the features of its
//! positives and test pairs once, on its first `cells` call, and shares
//! them across every classifier and θ; each call adds only its negative
//! pool, drawn at that call's largest θ. The pipeline builds each snapshot
//! its instances score once and shares it among them; Katz-lr, Katz-sc
//! and Rescal memoize their factors on it, so they factor `G_{t-2}` and
//! `G_{t-1}` once for every feature batch and metric point of every
//! instance of a transition.
//!
//! One honest scalability note, documented in DESIGN.md: the paper scores
//! *every* unconnected sampled pair at test time. We do the same up to
//! [`MAX_UNIVERSE_PAIRS`](crate::sampling::MAX_UNIVERSE_PAIRS); beyond that
//! the scored universe is restricted to 2-hop pairs plus all pairs
//! touching sampled supernodes (the same candidate logic the metric
//! evaluation uses). The accuracy-ratio denominator always uses the exact
//! full-universe count, so results stay comparable either way.

use crate::filters::TemporalFilter;
use crate::framework::PredictionOutcome;
use crate::sampling::{Draw, DrawSample, DrawSummary, Judgement};
use osn_graph::activity::NodeActivity;
use osn_graph::sequence::SnapshotSequence;
use osn_graph::snapshot::Snapshot;
use osn_graph::NodeId;
use osn_graph::{par, sample};
use osn_metrics::exec;
use osn_metrics::solver::SolverCache;
use osn_metrics::traits::Metric;
use osn_ml::data::Dataset;
use osn_ml::forest::RandomForest;
use osn_ml::logistic::LogisticRegression;
use osn_ml::naive_bayes::GaussianNaiveBayes;
use osn_ml::svm::LinearSvm;
use osn_ml::Classifier;
use serde::Serialize;
use std::cell::{OnceCell, RefCell};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// The four classifier families the paper evaluates (§5.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum ClassifierKind {
    /// Linear SVM (Pegasos) — the paper's consistent winner.
    Svm,
    /// Logistic regression.
    LogisticRegression,
    /// Gaussian naive Bayes.
    NaiveBayes,
    /// Random forest.
    RandomForest,
}

impl ClassifierKind {
    /// All four kinds, in the paper's Figure 9 order (RF, NB, LR, SVM).
    pub fn all() -> Vec<ClassifierKind> {
        vec![Self::RandomForest, Self::NaiveBayes, Self::LogisticRegression, Self::Svm]
    }

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Svm => "SVM",
            Self::LogisticRegression => "LR",
            Self::NaiveBayes => "NB",
            Self::RandomForest => "RF",
        }
    }

    fn build(&self, seed: u64) -> AnyClassifier {
        match self {
            Self::Svm => AnyClassifier::Svm(LinearSvm::seeded(seed)),
            Self::LogisticRegression => AnyClassifier::Lr(LogisticRegression::seeded(seed)),
            Self::NaiveBayes => AnyClassifier::Nb(GaussianNaiveBayes::new()),
            Self::RandomForest => AnyClassifier::Rf(RandomForest::seeded(seed)),
        }
    }
}

/// Type-erased classifier wrapper so sweeps can mix families.
enum AnyClassifier {
    Svm(LinearSvm),
    Lr(LogisticRegression),
    Nb(GaussianNaiveBayes),
    Rf(RandomForest),
}

impl AnyClassifier {
    fn fit(&mut self, data: &Dataset) {
        match self {
            Self::Svm(c) => c.fit(data),
            Self::Lr(c) => c.fit(data),
            Self::Nb(c) => c.fit(data),
            Self::Rf(c) => c.fit(data),
        }
    }

    fn decision(&self, row: &[f64]) -> f64 {
        match self {
            Self::Svm(c) => c.decision(row),
            Self::Lr(c) => c.decision(row),
            Self::Nb(c) => c.decision(row),
            Self::Rf(c) => c.decision(row),
        }
    }

    fn svm_coefficients(&self) -> Option<Vec<f64>> {
        match self {
            Self::Svm(c) => Some(c.normalized_coefficients()),
            _ => None,
        }
    }
}

/// Configuration of the §5 pipeline.
#[derive(Clone, Debug)]
pub struct ClassificationConfig {
    /// Snowball sampling percentage `p` (1.0 = whole graph, as the paper
    /// uses for Facebook).
    pub sampling_p: f64,
    /// Number of snowball seeds to average over (the paper uses 5).
    pub n_seeds: usize,
    /// Master RNG seed.
    pub seed: u64,
}

impl Default for ClassificationConfig {
    fn default() -> Self {
        ClassificationConfig { sampling_p: 1.0, n_seeds: 5, seed: 0xC1A5 }
    }
}

/// Aggregated result of one (classifier, θ) cell on one transition.
#[derive(Clone, Debug, Serialize, serde::Deserialize)]
pub struct ClassificationOutcome {
    /// Classifier display name.
    pub classifier: String,
    /// θ as negatives per positive.
    pub negatives_per_positive: f64,
    /// Predicted snapshot index `t`.
    pub snapshot_index: usize,
    /// Mean accuracy ratio over seeds with a defined random baseline;
    /// `NaN` when every seed was degenerate (no truth / no universe).
    pub mean_accuracy_ratio: f64,
    /// Standard deviation of the accuracy ratio over the same seeds.
    pub std_accuracy_ratio: f64,
    /// Mean absolute accuracy over seeds with `k > 0` (`NaN` otherwise).
    pub mean_absolute_accuracy: f64,
    /// Mean ground-truth `k` over seeds.
    pub mean_k: f64,
    /// Per-feature |w| coefficients normalized to sum 1 (SVM only; mean
    /// over seeds), aligned with [`feature_names`](Self::feature_names).
    pub svm_coefficients: Option<Vec<f64>>,
    /// Feature (metric) names, in column order.
    pub feature_names: Vec<String>,
}

/// The §5 evaluation pipeline bound to a snapshot sequence.
pub struct ClassificationPipeline<'a> {
    seq: &'a SnapshotSequence<'a>,
    /// Pipeline configuration.
    pub config: ClassificationConfig,
    metrics: Vec<Box<dyn Metric>>,
    /// One snapshot per sequence index its instances score, so every
    /// feature batch and metric point on a snapshot, in every instance of
    /// the pipeline, shares what is derived from it: one factorization
    /// per factored metric.
    snapshots: RefCell<BTreeMap<usize, Arc<Snapshot>>>,
}

impl<'a> ClassificationPipeline<'a> {
    /// Creates a pipeline with the default metric feature set (all 14
    /// metrics, both Katz implementations).
    pub fn new(seq: &'a SnapshotSequence<'a>, config: ClassificationConfig) -> Self {
        ClassificationPipeline {
            seq,
            config,
            metrics: osn_metrics::all_metrics(),
            snapshots: RefCell::default(),
        }
    }

    /// Feature names in column order.
    pub fn feature_names(&self) -> Vec<String> {
        self.metrics.iter().map(|m| m.name().to_string()).collect()
    }

    /// The sampled instance of transition `t`: seeds picked on `G_{t-2}`,
    /// and per seed its snowball samples of `G_{t-2}` (training) and
    /// `G_{t-1}` (the [`Draw`] every reader scores), its test pairs
    /// narrowed by `filter` when one is given.
    ///
    /// # Panics
    /// Panics unless `2 <= t < seq.len()`.
    // linklens-deterministic: seed picking and sample order feed every §5 number
    pub fn instance(&self, t: usize, filter: Option<&TemporalFilter>) -> SampledInstance<'_> {
        assert!(t >= 2 && t < self.seq.len(), "need G_{{t-2}}, G_{{t-1}}, G_t");
        let train_snap = self.snapshot(t - 2);
        let test_snap = self.snapshot(t - 1);
        let test_truth: HashSet<(NodeId, NodeId)> = self.seq.new_edges(t).into_iter().collect();
        let p = self.config.sampling_p;
        let act = filter.map(|f| NodeActivity::build(&test_snap, f));
        let mut train_members = Vec::new();
        let mut draws = Vec::new();
        for seed_node in sample::pick_seeds(&train_snap, self.config.n_seeds, self.config.seed) {
            train_members.push(sample::snowball(&train_snap, seed_node, p));
            let members = sample::snowball(&test_snap, seed_node, p);
            let drawn = Arc::new(DrawSample::build(&test_snap, members, act.as_ref()));
            draws.push(Draw::build(test_snap.node_count(), drawn, &test_truth));
        }
        SampledInstance {
            pipe: self,
            t,
            train_truth: self.seq.new_edges(t - 1).into_iter().collect(),
            train_snap,
            test_snap,
            train_members,
            draws,
            features: OnceCell::new(),
        }
    }

    /// The negative-draw, shuffle and classifier seed of seed index `si`.
    fn rng_seed(&self, si: usize) -> u64 {
        self.config.seed ^ (si as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Snapshot `index` of the sequence, built on its first call and
    /// shared by every later one.
    fn snapshot(&self, index: usize) -> Arc<Snapshot> {
        let mut snapshots = self.snapshots.borrow_mut();
        Arc::clone(snapshots.entry(index).or_insert_with(|| Arc::new(self.seq.snapshot(index))))
    }

    /// One score column per metric of `metrics` on `pairs` of `snap`. The
    /// columns depend only on `snap`, the metrics and `pairs`.
    fn score(
        &self,
        snap: &Snapshot,
        metrics: &[&dyn Metric],
        pairs: &[(NodeId, NodeId)],
    ) -> Vec<Vec<f64>> {
        let threads = par::max_threads();
        exec::score_matrix_cached_t(metrics, snap, pairs, threads, &mut SolverCache::transient())
    }

    /// Computes the feature matrix (|pairs| × |metrics|) on `snap`.
    /// Metric columns run on the shared scoring engine — a (metric ×
    /// chunk) work pool rather than one thread per metric — since this is
    /// the pipeline's dominant cost (§3.2 of the paper says the same of
    /// theirs).
    fn features(&self, snap: &Snapshot, pairs: &[(NodeId, NodeId)]) -> Vec<Vec<f64>> {
        let refs: Vec<&dyn Metric> = self.metrics.iter().map(|m| m.as_ref()).collect();
        let cols = self.score(snap, &refs, pairs);
        (0..pairs.len()).map(|i| cols.iter().map(|c| c[i]).collect()).collect()
    }
}

/// One transition's sampled instance (see the module docs): built by
/// [`ClassificationPipeline::instance`], read by every §5 number.
pub struct SampledInstance<'p> {
    pipe: &'p ClassificationPipeline<'p>,
    t: usize,
    train_snap: Arc<Snapshot>,
    test_snap: Arc<Snapshot>,
    /// New edges of `G_{t-1}`: the training positives, and the pairs no
    /// negative may be.
    train_truth: HashSet<(NodeId, NodeId)>,
    /// Per seed, the snowball sample of `G_{t-2}`.
    train_members: Vec<Vec<NodeId>>,
    /// Per seed, the draw of `G_{t-1}`.
    draws: Vec<Draw>,
    /// Per seed, the features of the positives and of the test pairs,
    /// computed on the first [`cells`](Self::cells) call.
    features: OnceCell<Vec<SeedFeatures>>,
}

/// The features one seed's cells share across every classifier and θ.
struct SeedFeatures {
    /// Training positives (new pairs of `G_{t-1}` inside the training
    /// sample), on `G_{t-2}`.
    positives: Vec<Vec<f64>>,
    /// The draw's test pairs, on `G_{t-1}` (unscaled).
    test: Vec<Vec<f64>>,
}

impl SampledInstance<'_> {
    /// Per seed, its draw of `G_{t-1}`: Table 6's sample size, universe
    /// and `k`, and the pairs every reader scores.
    pub fn diagnostics(&self) -> &[Draw] {
        &self.draws
    }

    /// One metric's accuracy on the instance (Fig. 11's metric points),
    /// averaged over the seeds. Each seed scores its draw's pairs with
    /// `metric` alone, ties broken by `config.seed ^ seed index`.
    // linklens-deterministic: tie-break seeds and seed order feed the metric points
    pub fn metric_outcome(&self, metric: &dyn Metric) -> PredictionOutcome {
        let judged: Vec<Judgement> = self
            .draws
            .iter()
            .enumerate()
            .map(|(si, draw)| {
                let scores =
                    self.pipe.score(&self.test_snap, &[metric], &draw.sample.pairs).remove(0);
                draw.judge(&scores, self.pipe.config.seed ^ si as u64)
            })
            .collect();
        let summary = DrawSummary::of(&judged);
        let n = judged.len() as f64;
        PredictionOutcome {
            metric: metric.name().to_string(),
            snapshot_index: self.t,
            observed_edges: self.test_snap.edge_count(),
            k: summary.mean_k.round() as usize,
            correct: (judged.iter().map(|j| j.correct).sum::<usize>() as f64 / n).round() as usize,
            absolute_accuracy: summary.mean_absolute,
            random_expected: judged.iter().map(|j| j.expected).sum::<f64>() / n,
            accuracy_ratio: summary.mean_ratio,
        }
    }

    /// Every (classifier kind, θ) cell, kind-major in input order. One
    /// negative pool per seed, drawn at the call's largest θ, serves every
    /// cell of the call; a smaller θ trains on its prefix.
    // linklens-deterministic: negative draws and training-set order feed classifier training
    pub fn cells(&self, kinds: &[ClassifierKind], thetas: &[f64]) -> Vec<ClassificationOutcome> {
        assert!(!kinds.is_empty() && !thetas.is_empty());
        assert!(thetas.iter().all(|&x| x > 0.0), "θ must be positive negatives-per-positive");
        let theta_max = thetas.iter().cloned().fold(0.0, f64::max);
        let pipe = self.pipe;
        let features = self.features.get_or_init(|| self.seed_features());
        let neg_pools: Vec<Vec<Vec<f64>>> = features
            .iter()
            .zip(&self.train_members)
            .enumerate()
            .map(|(si, (f, members))| {
                let pool_size = ((f.positives.len() as f64 * theta_max).round() as usize).max(1);
                let negatives = draw_negative_pairs(
                    &self.train_snap,
                    members,
                    &self.train_truth,
                    pool_size,
                    pipe.rng_seed(si),
                );
                pipe.features(&self.train_snap, &negatives)
            })
            .collect();

        let d = pipe.metrics.len();
        let mut out = Vec::with_capacity(kinds.len() * thetas.len());
        for &kind in kinds {
            for &theta in thetas {
                let mut judged = Vec::with_capacity(self.draws.len());
                let mut coef_acc: Option<Vec<f64>> = None;
                for (si, (f, pool)) in features.iter().zip(&neg_pools).enumerate() {
                    // Assemble the θ-specific training set from the shared pool.
                    let n_neg =
                        ((f.positives.len() as f64 * theta).round() as usize).min(pool.len());
                    let mut train = Dataset::new(d);
                    for row in &f.positives {
                        train.push(row, 1);
                    }
                    for row in pool.iter().take(n_neg) {
                        train.push(row, 0);
                    }
                    let seed = pipe.rng_seed(si);
                    let train = train.shuffled(seed ^ 0x7341);
                    let scaler = train.fit_scaler();
                    let mut clf = kind.build(seed);
                    clf.fit(&train.scaled_by(&scaler));
                    if let Some(c) = clf.svm_coefficients() {
                        let acc = coef_acc.get_or_insert_with(|| vec![0.0; d]);
                        for (a, x) in acc.iter_mut().zip(&c) {
                            *a += x / features.len() as f64;
                        }
                    }
                    let scores: Vec<f64> =
                        f.test.iter().map(|row| clf.decision(&scaler.transform(row))).collect();
                    judged.push(self.draws[si].judge(&scores, seed));
                }
                let summary = DrawSummary::of(&judged);
                out.push(ClassificationOutcome {
                    classifier: kind.name().to_string(),
                    negatives_per_positive: theta,
                    snapshot_index: self.t,
                    mean_accuracy_ratio: summary.mean_ratio,
                    std_accuracy_ratio: summary.std_ratio,
                    mean_absolute_accuracy: summary.mean_absolute,
                    mean_k: summary.mean_k,
                    svm_coefficients: coef_acc,
                    feature_names: pipe.feature_names(),
                });
            }
        }
        out
    }

    /// Per seed, the features of its training positives and test pairs.
    fn seed_features(&self) -> Vec<SeedFeatures> {
        self.train_members
            .iter()
            .zip(&self.draws)
            .map(|(members, draw)| {
                // train_truth is a HashSet: its iteration order varies per
                // process, and the positives' order reaches the classifier
                // through their feature rows. Sorting pins the training
                // order so reruns are bit-identical.
                let is_member = |x: &NodeId| members.binary_search(x).is_ok();
                let mut positives: Vec<(NodeId, NodeId)> = self
                    .train_truth
                    .iter()
                    .copied()
                    .filter(|(u, v)| is_member(u) && is_member(v))
                    .collect();
                positives.sort_unstable();
                SeedFeatures {
                    positives: self.pipe.features(&self.train_snap, &positives),
                    test: self.pipe.features(&self.test_snap, &draw.sample.pairs),
                }
            })
            .collect()
    }
}

/// Draws up to `count` unconnected, non-positive pairs among `members`
/// uniformly (rejection sampling), deterministically from `seed`.
fn draw_negative_pairs(
    snap: &Snapshot,
    members: &[NodeId],
    truth: &HashSet<(NodeId, NodeId)>,
    count: usize,
    seed: u64,
) -> Vec<(NodeId, NodeId)> {
    let m = members.len() as u64;
    if m < 2 {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(count);
    let mut seen = HashSet::with_capacity(count);
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut attempts = 0usize;
    while out.len() < count && attempts < count * 60 + 100 {
        attempts += 1;
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = osn_graph::mix64(state);
        let u = members[(z % m) as usize];
        let v = members[((z >> 32) % m) as usize];
        if u == v {
            continue;
        }
        let pair = osn_graph::canonical(u, v);
        if !snap.has_edge(pair.0, pair.1) && !truth.contains(&pair) && seen.insert(pair) {
            out.push(pair);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::temporal::TemporalGraph;
    use osn_graph::DAY;
    use osn_metrics::fused::LocalKind;

    /// A ring trace with heavy triadic closure so CN features are
    /// informative, long enough for 3 snapshots.
    fn closure_trace() -> TemporalGraph {
        let mut g = TemporalGraph::new();
        let n = 30u32;
        for _ in 0..n {
            g.add_node(0);
        }
        let mut t = DAY;
        for i in 0..n {
            g.add_edge(i, (i + 1) % n, t);
            t += DAY / 8;
        }
        for i in 0..n {
            g.add_edge(i, (i + 2) % n, t);
            t += DAY / 8;
        }
        for i in 0..n {
            g.add_edge(i, (i + 3) % n, t);
            t += DAY / 8;
        }
        g
    }

    /// A pipeline over the cheap feature subset CN and RA.
    fn cheap_pipeline<'a>(
        seq: &'a SnapshotSequence<'a>,
        config: ClassificationConfig,
    ) -> ClassificationPipeline<'a> {
        let metrics: Vec<Box<dyn Metric>> = vec![Box::new(LocalKind::Cn), Box::new(LocalKind::Ra)];
        ClassificationPipeline { seq, config, metrics, snapshots: RefCell::default() }
    }

    /// One (classifier, θ) cell at transition 2, unfiltered.
    fn one_cell(
        pipe: &ClassificationPipeline<'_>,
        kind: ClassifierKind,
        theta: f64,
    ) -> ClassificationOutcome {
        pipe.instance(2, None).cells(&[kind], &[theta]).remove(0)
    }

    #[test]
    fn svm_pipeline_beats_random() {
        let trace = closure_trace();
        let seq = SnapshotSequence::by_edge_delta(&trace, 30);
        let cfg = ClassificationConfig { n_seeds: 2, ..Default::default() };
        let pipe = cheap_pipeline(&seq, cfg);
        let out = one_cell(&pipe, ClassifierKind::Svm, 5.0);
        assert_eq!(out.classifier, "SVM");
        assert!(out.mean_k > 0.0);
        assert!(
            out.mean_accuracy_ratio > 1.0,
            "structured closure should beat random, got {}",
            out.mean_accuracy_ratio
        );
        let coef = out.svm_coefficients.expect("SVM exposes coefficients");
        assert_eq!(coef.len(), 2);
        assert!((coef.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn non_svm_classifiers_have_no_coefficients() {
        let trace = closure_trace();
        let seq = SnapshotSequence::by_edge_delta(&trace, 30);
        let cfg = ClassificationConfig { n_seeds: 1, ..Default::default() };
        let pipe = cheap_pipeline(&seq, cfg);
        let out = one_cell(&pipe, ClassifierKind::NaiveBayes, 5.0);
        assert_eq!(out.classifier, "NB");
        assert!(out.svm_coefficients.is_none());
    }

    #[test]
    fn sweep_covers_all_cells_in_order() {
        let trace = closure_trace();
        let seq = SnapshotSequence::by_edge_delta(&trace, 30);
        let cfg = ClassificationConfig { n_seeds: 1, ..Default::default() };
        let pipe = cheap_pipeline(&seq, cfg);
        let out = pipe
            .instance(2, None)
            .cells(&[ClassifierKind::Svm, ClassifierKind::LogisticRegression], &[1.0, 10.0]);
        assert_eq!(out.len(), 4);
        assert_eq!(out[0].classifier, "SVM");
        assert_eq!(out[0].negatives_per_positive, 1.0);
        assert_eq!(out[1].negatives_per_positive, 10.0);
        assert_eq!(out[2].classifier, "LR");
    }

    #[test]
    fn metric_on_sample_runs() {
        let trace = closure_trace();
        let seq = SnapshotSequence::by_edge_delta(&trace, 30);
        let cfg = ClassificationConfig { n_seeds: 2, ..Default::default() };
        let pipe = cheap_pipeline(&seq, cfg);
        let out = pipe.instance(2, None).metric_outcome(&LocalKind::Cn);
        assert_eq!(out.metric, "CN");
        assert!(out.accuracy_ratio > 0.0);
    }

    #[test]
    fn evaluation_is_run_stable() {
        // Two fresh pipelines over the same trace must produce bit-equal
        // outcomes: pins the sorted training-pair order of an instance's
        // seed features (the positives come out of a HashSet and are
        // explicitly sorted before they reach the classifier).
        let trace = closure_trace();
        let seq = SnapshotSequence::by_edge_delta(&trace, 30);
        let cfg = ClassificationConfig { n_seeds: 2, ..Default::default() };
        let a = one_cell(&cheap_pipeline(&seq, cfg.clone()), ClassifierKind::Svm, 5.0);
        let b = one_cell(&cheap_pipeline(&seq, cfg), ClassifierKind::Svm, 5.0);
        assert_eq!(a.mean_k, b.mean_k);
        assert_eq!(a.mean_accuracy_ratio, b.mean_accuracy_ratio);
        assert_eq!(a.mean_absolute_accuracy, b.mean_absolute_accuracy);
        assert_eq!(a.svm_coefficients, b.svm_coefficients);
    }

    #[test]
    fn negative_sampler_avoids_edges_and_positives() {
        let trace = closure_trace();
        let seq = SnapshotSequence::by_edge_delta(&trace, 30);
        let snap = seq.snapshot(0);
        let members: Vec<NodeId> = (0..30).collect();
        let truth: HashSet<(NodeId, NodeId)> = seq.new_edges(1).into_iter().collect();
        let negs = draw_negative_pairs(&snap, &members, &truth, 40, 3);
        assert!(!negs.is_empty());
        let mut dedup = negs.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), negs.len(), "negatives must be distinct");
        for &(u, v) in &negs {
            assert!(!snap.has_edge(u, v));
            assert!(!truth.contains(&(u, v)));
        }
    }

    #[test]
    fn sampling_p_shrinks_universe() {
        let trace = closure_trace();
        let seq = SnapshotSequence::by_edge_delta(&trace, 30);
        let full = ClassificationConfig { sampling_p: 1.0, n_seeds: 1, ..Default::default() };
        let half = ClassificationConfig { sampling_p: 0.4, n_seeds: 1, ..Default::default() };
        let pf = cheap_pipeline(&seq, full);
        let ph = cheap_pipeline(&seq, half);
        let (inst_f, inst_h) = (pf.instance(2, None), ph.instance(2, None));
        let (df, dh) = (&inst_f.diagnostics()[0], &inst_h.diagnostics()[0]);
        assert!(dh.sample.members.len() < df.sample.members.len(), "sample size should shrink");
        assert!(dh.sample.universe < df.sample.universe, "universe should shrink");
    }

    #[test]
    fn classifier_kind_names() {
        let names: Vec<&str> = ClassifierKind::all().iter().map(|k| k.name()).collect();
        assert_eq!(names, vec!["RF", "NB", "LR", "SVM"]);
    }

    #[test]
    #[should_panic(expected = "need G_")]
    fn transition_one_is_rejected() {
        let trace = closure_trace();
        let seq = SnapshotSequence::by_edge_delta(&trace, 30);
        let pipe = cheap_pipeline(&seq, Default::default());
        let _ = pipe.instance(1, None);
    }
}
