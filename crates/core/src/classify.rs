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
//! Feature computation dominates the cost (the paper says the same of its
//! C++ pipeline, §3.2), so the implementation computes features once per
//! snowball seed and shares them across every classifier and every
//! undersampling ratio in a sweep — that is what makes the Figure 9/10
//! sweeps tractable.
//!
//! One honest scalability note, documented in DESIGN.md: the paper scores
//! *every* unconnected sampled pair at test time. We do the same up to
//! `max_universe_pairs`; beyond that the scored universe is restricted to
//! 2-hop pairs plus all pairs touching sampled supernodes (the same
//! candidate logic the metric evaluation uses). The accuracy-ratio
//! denominator always uses the exact full-universe count, so results stay
//! comparable either way.

use crate::filters::TemporalFilter;
use crate::framework::{finite_mean, PredictionOutcome};
use osn_graph::builder::SnapshotBuilder;
use osn_graph::sequence::SnapshotSequence;
use osn_graph::snapshot::Snapshot;
use osn_graph::NodeId;
use osn_graph::{par, sample};
use osn_metrics::exec;
use osn_metrics::solver::SolverCache;
use osn_metrics::topk;
use osn_metrics::traits::Metric;
use osn_ml::data::Dataset;
use osn_ml::forest::RandomForest;
use osn_ml::logistic::LogisticRegression;
use osn_ml::naive_bayes::GaussianNaiveBayes;
use osn_ml::svm::LinearSvm;
use osn_ml::Classifier;
use serde::Serialize;
use std::collections::HashSet;

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
    /// Cap on exhaustively scored test pairs (see module docs).
    pub max_universe_pairs: usize,
}

impl Default for ClassificationConfig {
    fn default() -> Self {
        ClassificationConfig {
            sampling_p: 1.0,
            n_seeds: 5,
            seed: 0xC1A5,
            max_universe_pairs: 400_000,
        }
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

/// Pre-computed per-seed features, shared across classifiers and θ values.
struct SeedData {
    /// Features of positive training pairs.
    pos_features: Vec<Vec<f64>>,
    /// Features of the negative-pool training pairs (size = θ_max × |pos|).
    neg_pool: Vec<Vec<f64>>,
    /// The scored test pairs.
    test_pairs: Vec<(NodeId, NodeId)>,
    /// Features of the test pairs (unscaled).
    test_features: Vec<Vec<f64>>,
    /// Ground truth among the sample.
    truth: HashSet<(NodeId, NodeId)>,
    /// Ground-truth count.
    k: usize,
    /// Exact unconnected-pair universe among the sample.
    universe: f64,
    /// Sample size (diagnostics).
    sample_size: usize,
    /// Seed used for this snowball (tie-breaking etc.).
    rng_seed: u64,
}

/// The §5 evaluation pipeline bound to a snapshot sequence.
pub struct ClassificationPipeline<'a> {
    seq: &'a SnapshotSequence<'a>,
    /// Pipeline configuration.
    pub config: ClassificationConfig,
    metrics: Vec<Box<dyn Metric>>,
}

impl<'a> ClassificationPipeline<'a> {
    /// Creates a pipeline with the default metric feature set (all 14
    /// metrics, both Katz implementations).
    pub fn new(seq: &'a SnapshotSequence<'a>, config: ClassificationConfig) -> Self {
        ClassificationPipeline { seq, config, metrics: osn_metrics::all_metrics() }
    }

    /// Overrides the feature metrics (tests use cheap subsets).
    pub fn with_metrics(mut self, metrics: Vec<Box<dyn Metric>>) -> Self {
        assert!(!metrics.is_empty());
        self.metrics = metrics;
        self
    }

    /// Feature names in column order.
    pub fn feature_names(&self) -> Vec<String> {
        self.metrics.iter().map(|m| m.name().to_string()).collect()
    }

    /// Convenience single-cell evaluation (one classifier, one θ).
    pub fn evaluate(
        &self,
        kind: ClassifierKind,
        negatives_per_positive: f64,
        t: usize,
        filter: Option<&TemporalFilter>,
    ) -> ClassificationOutcome {
        self.sweep(&[kind], &[negatives_per_positive], t, filter)
            .pop()
            // linklens-allow(unwrap-in-lib): sweep returns exactly one outcome per input cell
            .expect("one cell in, one out")
    }

    /// The full sweep: every (classifier kind, θ) cell over shared per-seed
    /// features. Results are ordered kind-major, matching the input order.
    pub fn sweep(
        &self,
        kinds: &[ClassifierKind],
        thetas: &[f64],
        t: usize,
        filter: Option<&TemporalFilter>,
    ) -> Vec<ClassificationOutcome> {
        assert!(!kinds.is_empty() && !thetas.is_empty());
        assert!(thetas.iter().all(|&x| x > 0.0), "θ must be positive negatives-per-positive");
        let theta_max = thetas.iter().cloned().fold(0.0, f64::max);
        let seeds = self.prepare_seeds(t, theta_max, filter);

        let mut out = Vec::with_capacity(kinds.len() * thetas.len());
        for kind in kinds {
            for &theta in thetas {
                out.push(self.aggregate_cell(*kind, theta, t, &seeds));
            }
        }
        out
    }

    /// Runs a *metric* on exactly the same sampled universe (Fig. 11's
    /// metric points), averaged over the same snowball seeds.
    // linklens-deterministic: shares the seed/candidate universe with classifier evaluation
    pub fn evaluate_metric_on_sample(
        &self,
        metric: &dyn Metric,
        t: usize,
        filter: Option<&TemporalFilter>,
    ) -> PredictionOutcome {
        assert!(t >= 2 && t < self.seq.len());
        // One incremental arena walks t-2 → t-1; the training snapshot is
        // only needed for seed picking, before the arena advances past it.
        let mut arena = SnapshotBuilder::new(self.seq.trace());
        let train_snap = arena.advance_to(self.seq.boundary(t - 2));
        let seeds = sample::pick_seeds(train_snap, self.config.n_seeds, self.config.seed);
        let test_snap = arena.advance_to(self.seq.boundary(t - 1));
        let test_truth: HashSet<(NodeId, NodeId)> = self.seq.new_edges(t).into_iter().collect();

        let mut ratios = Vec::with_capacity(seeds.len());
        let mut abs = Vec::with_capacity(seeds.len());
        let mut k_acc = 0usize;
        let mut correct_acc = 0usize;
        let mut expected_acc = 0.0;
        for (si, &seed_node) in seeds.iter().enumerate() {
            let members = sample::snowball(test_snap, seed_node, self.config.sampling_p);
            let member_set: HashSet<NodeId> = members.iter().copied().collect();
            let (mut pairs, exact_universe) = self.test_universe(test_snap, &members);
            if let Some(f) = filter {
                pairs = f.filter_pairs(test_snap, &pairs);
            }
            let truth: HashSet<(NodeId, NodeId)> = test_truth
                .iter()
                .copied()
                .filter(|&(u, v)| member_set.contains(&u) && member_set.contains(&v))
                .collect();
            let k = truth.len();
            let scores = exec::score_pairs_t(metric, test_snap, &pairs, par::max_threads());
            let predicted = topk::top_k_pairs(&pairs, &scores, k, self.config.seed ^ si as u64);
            let correct = predicted.iter().filter(|p| truth.contains(p)).count();
            let expected =
                if exact_universe > 0.0 { (k as f64).powi(2) / exact_universe } else { 0.0 };
            // Degenerate seeds (no truth or no universe) carry no signal:
            // record NaN and let finite_mean skip them rather than dragging
            // the average toward zero.
            ratios.push(if expected > 0.0 { correct as f64 / expected } else { f64::NAN });
            abs.push(if k > 0 { correct as f64 / k as f64 } else { f64::NAN });
            k_acc += k;
            correct_acc += correct;
            expected_acc += expected;
        }
        let n = seeds.len() as f64;
        PredictionOutcome {
            metric: metric.name().to_string(),
            snapshot_index: t,
            observed_edges: test_snap.edge_count(),
            k: (k_acc as f64 / n).round() as usize,
            correct: (correct_acc as f64 / n).round() as usize,
            absolute_accuracy: finite_mean(abs),
            random_expected: expected_acc / n,
            accuracy_ratio: finite_mean(ratios),
        }
    }

    // ----- internals -------------------------------------------------

    /// Computes the feature matrix (|pairs| × |metrics|) on a snapshot.
    /// Metric columns run on the shared scoring engine — a (metric ×
    /// chunk) work pool rather than one thread per metric — since this is
    /// the pipeline's dominant cost (§3.2 of the paper says the same of
    /// theirs).
    fn features(&self, snap: &Snapshot, pairs: &[(NodeId, NodeId)]) -> Vec<Vec<f64>> {
        let refs: Vec<&dyn Metric> = self.metrics.iter().map(|m| m.as_ref()).collect();
        let mut cache = SolverCache::transient();
        let cols = exec::score_matrix_cached_t(&refs, snap, pairs, par::max_threads(), &mut cache);
        (0..pairs.len()).map(|i| cols.iter().map(|c| c[i]).collect()).collect()
    }

    /// The sampled test universe on `snap` for sorted `members`:
    /// exhaustive when small enough, candidate-restricted otherwise. Thin
    /// wrapper over the construction shared with the sampled metric
    /// evaluation ([`crate::sampling::sampled_universe`]).
    fn test_universe(&self, snap: &Snapshot, members: &[NodeId]) -> (Vec<(NodeId, NodeId)>, f64) {
        crate::sampling::sampled_universe(snap, members, self.config.max_universe_pairs)
    }

    // linklens-deterministic: seed sampling and training-pair assembly feed classifier training order
    fn prepare_seeds(
        &self,
        t: usize,
        theta_max: f64,
        filter: Option<&TemporalFilter>,
    ) -> Vec<SeedData> {
        assert!(t >= 2 && t < self.seq.len(), "need G_{{t-2}}, G_{{t-1}}, G_t");
        // Both snapshots must stay live across every seed, so the training
        // snapshot is cloned out of the arena before it advances to t-1 —
        // still one from-scratch build plus one incremental delta, instead
        // of two from-scratch builds.
        let mut arena = SnapshotBuilder::new(self.seq.trace());
        let train_snap = arena.advance_to(self.seq.boundary(t - 2)).clone();
        let test_snap = arena.advance_to(self.seq.boundary(t - 1));
        let train_truth: HashSet<(NodeId, NodeId)> =
            self.seq.new_edges(t - 1).into_iter().collect();
        let test_truth: HashSet<(NodeId, NodeId)> = self.seq.new_edges(t).into_iter().collect();
        let seeds = sample::pick_seeds(&train_snap, self.config.n_seeds, self.config.seed);

        seeds
            .iter()
            .enumerate()
            .map(|(si, &seed_node)| {
                let rng_seed = self.config.seed ^ (si as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                // --- sampling ---
                let train_members =
                    sample::snowball(&train_snap, seed_node, self.config.sampling_p);
                let test_members = sample::snowball(test_snap, seed_node, self.config.sampling_p);
                let train_set: HashSet<NodeId> = train_members.iter().copied().collect();
                let test_set: HashSet<NodeId> = test_members.iter().copied().collect();

                // --- training pairs ---
                // train_truth is a HashSet: its iteration order varies per
                // process, and the positives' order reaches the classifier
                // through pos_features. Sorting pins the training order so
                // reruns are bit-identical.
                let mut positives: Vec<(NodeId, NodeId)> = train_truth
                    .iter()
                    .copied()
                    .filter(|&(u, v)| train_set.contains(&u) && train_set.contains(&v))
                    .collect();
                positives.sort_unstable();
                let pool_size = ((positives.len() as f64 * theta_max).round() as usize).max(1);
                let negatives = draw_negative_pairs(
                    &train_snap,
                    &train_members,
                    &train_truth,
                    pool_size,
                    rng_seed,
                );
                let pos_features = self.features(&train_snap, &positives);
                let neg_pool = self.features(&train_snap, &negatives);

                // --- test universe ---
                let (mut test_pairs, universe) = self.test_universe(test_snap, &test_members);
                if let Some(f) = filter {
                    test_pairs = f.filter_pairs(test_snap, &test_pairs);
                }
                let truth: HashSet<(NodeId, NodeId)> = test_truth
                    .iter()
                    .copied()
                    .filter(|&(u, v)| test_set.contains(&u) && test_set.contains(&v))
                    .collect();
                let k = truth.len();
                let test_features = self.features(test_snap, &test_pairs);

                SeedData {
                    pos_features,
                    neg_pool,
                    test_pairs,
                    test_features,
                    truth,
                    k,
                    universe,
                    sample_size: test_members.len(),
                    rng_seed,
                }
            })
            .collect()
    }

    fn aggregate_cell(
        &self,
        kind: ClassifierKind,
        theta: f64,
        t: usize,
        seeds: &[SeedData],
    ) -> ClassificationOutcome {
        let d = self.metrics.len();
        let mut ratios = Vec::with_capacity(seeds.len());
        let mut abs = Vec::with_capacity(seeds.len());
        let mut ks = Vec::with_capacity(seeds.len());
        let mut coef_acc: Option<Vec<f64>> = None;

        for sd in seeds {
            // Assemble the θ-specific training set from the shared pool.
            let n_neg =
                ((sd.pos_features.len() as f64 * theta).round() as usize).min(sd.neg_pool.len());
            let mut train = Dataset::new(d);
            for f in &sd.pos_features {
                train.push(f, 1);
            }
            for f in sd.neg_pool.iter().take(n_neg) {
                train.push(f, 0);
            }
            let train = train.shuffled(sd.rng_seed ^ 0x7341);
            let scaler = train.fit_scaler();
            let train_scaled = train.scaled_by(&scaler);

            let mut clf = kind.build(sd.rng_seed);
            clf.fit(&train_scaled);
            if let Some(c) = clf.svm_coefficients() {
                let acc = coef_acc.get_or_insert_with(|| vec![0.0; d]);
                for (a, x) in acc.iter_mut().zip(&c) {
                    *a += x / seeds.len() as f64;
                }
            }

            let scores: Vec<f64> =
                sd.test_features.iter().map(|f| clf.decision(&scaler.transform(f))).collect();
            let predicted = topk::top_k_pairs(&sd.test_pairs, &scores, sd.k, sd.rng_seed);
            let correct = predicted.iter().filter(|p| sd.truth.contains(p)).count();
            let expected =
                if sd.universe > 0.0 { (sd.k as f64).powi(2) / sd.universe } else { 0.0 };
            // NaN marks seeds with no random baseline; aggregation below
            // skips them instead of counting them as zero accuracy.
            ratios.push(if expected > 0.0 { correct as f64 / expected } else { f64::NAN });
            abs.push(if sd.k > 0 { correct as f64 / sd.k as f64 } else { f64::NAN });
            ks.push(sd.k as f64);
        }

        let n = seeds.len() as f64;
        let finite: Vec<f64> = ratios.iter().copied().filter(|r| r.is_finite()).collect();
        let mean_ratio = finite_mean(finite.iter().copied());
        let var = if finite.is_empty() {
            f64::NAN
        } else {
            finite.iter().map(|r| (r - mean_ratio).powi(2)).sum::<f64>() / finite.len() as f64
        };
        ClassificationOutcome {
            classifier: kind.name().to_string(),
            negatives_per_positive: theta,
            snapshot_index: t,
            mean_accuracy_ratio: mean_ratio,
            std_accuracy_ratio: var.sqrt(),
            mean_absolute_accuracy: finite_mean(abs),
            mean_k: ks.iter().sum::<f64>() / n,
            svm_coefficients: coef_acc,
            feature_names: self.feature_names(),
        }
    }

    /// Diagnostic access to per-seed (sample size, universe, k) triples.
    pub fn seed_diagnostics(&self, t: usize) -> Vec<(usize, f64, usize)> {
        self.prepare_seeds(t, 1.0, None).iter().map(|s| (s.sample_size, s.universe, s.k)).collect()
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
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
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

    fn cheap_metrics() -> Vec<Box<dyn Metric>> {
        vec![Box::new(LocalKind::Cn), Box::new(LocalKind::Ra)]
    }

    #[test]
    fn svm_pipeline_beats_random() {
        let trace = closure_trace();
        let seq = SnapshotSequence::by_edge_delta(&trace, 30);
        let cfg = ClassificationConfig { n_seeds: 2, ..Default::default() };
        let pipe = ClassificationPipeline::new(&seq, cfg).with_metrics(cheap_metrics());
        let out = pipe.evaluate(ClassifierKind::Svm, 5.0, 2, None);
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
        let pipe = ClassificationPipeline::new(&seq, cfg).with_metrics(cheap_metrics());
        let out = pipe.evaluate(ClassifierKind::NaiveBayes, 5.0, 2, None);
        assert_eq!(out.classifier, "NB");
        assert!(out.svm_coefficients.is_none());
    }

    #[test]
    fn sweep_covers_all_cells_in_order() {
        let trace = closure_trace();
        let seq = SnapshotSequence::by_edge_delta(&trace, 30);
        let cfg = ClassificationConfig { n_seeds: 1, ..Default::default() };
        let pipe = ClassificationPipeline::new(&seq, cfg).with_metrics(cheap_metrics());
        let out = pipe.sweep(
            &[ClassifierKind::Svm, ClassifierKind::LogisticRegression],
            &[1.0, 10.0],
            2,
            None,
        );
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
        let pipe = ClassificationPipeline::new(&seq, cfg).with_metrics(cheap_metrics());
        let out = pipe.evaluate_metric_on_sample(&LocalKind::Cn, 2, None);
        assert_eq!(out.metric, "CN");
        assert!(out.accuracy_ratio > 0.0);
    }

    #[test]
    fn evaluation_is_run_stable() {
        // Two fresh pipelines over the same trace must produce bit-equal
        // outcomes: pins the sorted training-pair order in prepare_seeds
        // (the positives come out of a HashSet and are explicitly sorted
        // before they reach the classifier).
        let trace = closure_trace();
        let seq = SnapshotSequence::by_edge_delta(&trace, 30);
        let cfg = ClassificationConfig { n_seeds: 2, ..Default::default() };
        let a = ClassificationPipeline::new(&seq, cfg.clone())
            .with_metrics(cheap_metrics())
            .evaluate(ClassifierKind::Svm, 5.0, 2, None);
        let b = ClassificationPipeline::new(&seq, cfg).with_metrics(cheap_metrics()).evaluate(
            ClassifierKind::Svm,
            5.0,
            2,
            None,
        );
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
        let pf = ClassificationPipeline::new(&seq, full).with_metrics(cheap_metrics());
        let ph = ClassificationPipeline::new(&seq, half).with_metrics(cheap_metrics());
        let df = pf.seed_diagnostics(2);
        let dh = ph.seed_diagnostics(2);
        assert!(dh[0].0 < df[0].0, "sample size should shrink");
        assert!(dh[0].1 < df[0].1, "universe should shrink");
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
        let pipe =
            ClassificationPipeline::new(&seq, Default::default()).with_metrics(cheap_metrics());
        let _ = pipe.evaluate(ClassifierKind::Svm, 1.0, 1, None);
    }
}
