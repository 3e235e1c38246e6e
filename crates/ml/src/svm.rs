//! Primal linear SVM trained with Pegasos-style projected SGD.
//!
//! Shalev-Shwartz et al.'s Pegasos minimizes
//! `λ/2 ‖w‖² + (1/n) Σ max(0, 1 − yᵢ(w·xᵢ + b))`
//! with step size `1/(λt)` and an optional projection onto the
//! `1/√λ`-ball. The trained weight vector `w` is exposed raw because the
//! paper's Figure 12 analyzes normalized `|w|` coefficients as feature
//! importances.
//!
//! An optional positive-class weight is available, but the paper (and the
//! LinkLens pipeline) addresses imbalance via undersampling instead — the
//! weight defaults to 1.

use crate::data::Dataset;
use crate::Classifier;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Linear SVM configuration + trained state.
#[derive(Clone, Debug)]
pub struct LinearSvm {
    /// L2 regularization strength λ.
    pub lambda: f64,
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Multiplier on the hinge loss of positive samples.
    pub positive_weight: f64,
    /// RNG seed for sample ordering.
    pub seed: u64,
    weights: Vec<f64>,
    bias: f64,
}

impl Default for LinearSvm {
    fn default() -> Self {
        LinearSvm {
            lambda: 1e-4,
            epochs: 30,
            positive_weight: 1.0,
            seed: 42,
            weights: Vec::new(),
            bias: 0.0,
        }
    }
}

impl LinearSvm {
    /// Creates an SVM with the default hyper-parameters and the given seed.
    pub fn seeded(seed: u64) -> Self {
        LinearSvm { seed, ..Default::default() }
    }

    /// Normalized absolute feature coefficients: `|wᵢ| / Σ|wⱼ|` — the
    /// quantity summed over top-N metrics in the paper's Figure 12.
    pub fn normalized_coefficients(&self) -> Vec<f64> {
        let total: f64 = self.weights.iter().map(|w| w.abs()).sum();
        if total == 0.0 {
            return vec![0.0; self.weights.len()];
        }
        self.weights.iter().map(|w| w.abs() / total).collect()
    }
}

impl Classifier for LinearSvm {
    fn fit(&mut self, data: &Dataset) {
        let n = data.len();
        assert!(n > 0, "cannot fit on an empty dataset");
        let d = data.n_features();
        self.weights = vec![0.0; d];
        self.bias = 0.0;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let radius = 1.0 / self.lambda.sqrt();

        let mut t = 1.0f64;
        for _epoch in 0..self.epochs {
            for _ in 0..n {
                let i = rng.random_range(0..n);
                let x = data.row(i);
                let y = if data.label_bool(i) { 1.0 } else { -1.0 };
                let cls_w = if y > 0.0 { self.positive_weight } else { 1.0 };
                let eta = 1.0 / (self.lambda * t);
                let margin = y * (dot(&self.weights, x) + self.bias);
                // Regularization shrinkage (w only — b is unregularized).
                let shrink = 1.0 - eta * self.lambda;
                for w in &mut self.weights {
                    *w *= shrink;
                }
                if margin < 1.0 {
                    let step = eta * cls_w * y;
                    for (w, &xi) in self.weights.iter_mut().zip(x) {
                        *w += step * xi;
                    }
                    self.bias += step;
                }
                // Project onto the 1/√λ ball (Pegasos step 3).
                let norm = dot(&self.weights, &self.weights).sqrt();
                if norm > radius {
                    let f = radius / norm;
                    for w in &mut self.weights {
                        *w *= f;
                    }
                }
                t += 1.0;
            }
        }
    }

    fn decision(&self, row: &[f64]) -> f64 {
        dot(&self.weights, row) + self.bias
    }

    fn name(&self) -> &'static str {
        "SVM"
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Linearly separable blobs along the first feature.
    fn blobs(n: usize, gap: f64) -> Dataset {
        let mut d = Dataset::new(2);
        let mut rng_state = 1u64;
        let mut next = move || {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((rng_state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        for i in 0..n {
            let y = i % 2 == 0;
            let center = if y { gap } else { -gap };
            d.push(&[center + next(), next()], u32::from(y));
        }
        d
    }

    #[test]
    fn separable_data_is_learned() {
        let d = blobs(200, 2.0);
        let mut svm = LinearSvm::seeded(1);
        svm.fit(&d);
        let correct = (0..d.len()).filter(|&i| svm.predict(d.row(i)) == d.label_bool(i)).count();
        assert!(correct as f64 / d.len() as f64 > 0.97);
    }

    #[test]
    fn informative_feature_gets_the_weight() {
        let d = blobs(400, 2.0);
        let mut svm = LinearSvm::seeded(2);
        svm.fit(&d);
        let coef = svm.normalized_coefficients();
        assert!(coef[0] > 0.8, "feature 0 carries the signal, got {coef:?}");
        assert!((coef.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn decision_scores_rank_by_margin() {
        let d = blobs(200, 2.0);
        let mut svm = LinearSvm::seeded(3);
        svm.fit(&d);
        assert!(svm.decision(&[3.0, 0.0]) > svm.decision(&[0.5, 0.0]));
        assert!(svm.decision(&[0.5, 0.0]) > svm.decision(&[-3.0, 0.0]));
    }

    #[test]
    fn training_is_deterministic() {
        let d = blobs(100, 1.0);
        let mut a = LinearSvm::seeded(7);
        let mut b = LinearSvm::seeded(7);
        a.fit(&d);
        b.fit(&d);
        let decisions =
            |m: &LinearSvm| -> Vec<f64> { (0..d.len()).map(|i| m.decision(d.row(i))).collect() };
        assert_eq!(decisions(&a), decisions(&b));
    }

    #[test]
    fn positive_weight_shifts_the_boundary() {
        // Highly imbalanced: 95 negatives, 5 positives, overlapping.
        let mut d = Dataset::new(1);
        for i in 0..95 {
            d.push(&[-0.2 + (i % 10) as f64 * 0.02], 0);
        }
        for i in 0..5 {
            d.push(&[0.1 + i as f64 * 0.02], 1);
        }
        let mut plain = LinearSvm::seeded(4);
        plain.fit(&d);
        let mut weighted = LinearSvm { positive_weight: 19.0, ..LinearSvm::seeded(4) };
        weighted.fit(&d);
        // The weighted model must be at least as positive-happy.
        let probe = 0.05;
        assert!(weighted.decision(&[probe]) >= plain.decision(&[probe]));
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_fit_panics() {
        let d = Dataset::new(2);
        LinearSvm::default().fit(&d);
    }
}
