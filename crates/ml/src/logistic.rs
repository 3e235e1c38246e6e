//! L2-regularized logistic regression trained with SGD.

use crate::data::Dataset;
use crate::Classifier;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Logistic-regression configuration + trained state.
///
/// `decision` returns the log-odds `w·x + b`, whose sigmoid is the
/// model's `P(y = 1 | x)`.
#[derive(Clone, Debug)]
pub struct LogisticRegression {
    /// L2 regularization strength.
    pub lambda: f64,
    /// Initial learning rate (decays as `η₀ / (1 + t·λ)`).
    pub learning_rate: f64,
    /// Passes over the training data.
    pub epochs: usize,
    /// RNG seed for sample ordering.
    pub seed: u64,
    weights: Vec<f64>,
    bias: f64,
}

impl Default for LogisticRegression {
    fn default() -> Self {
        LogisticRegression {
            lambda: 1e-4,
            learning_rate: 0.5,
            epochs: 30,
            seed: 42,
            weights: Vec::new(),
            bias: 0.0,
        }
    }
}

impl LogisticRegression {
    /// Creates a model with default hyper-parameters and the given seed.
    pub fn seeded(seed: u64) -> Self {
        LogisticRegression { seed, ..Default::default() }
    }
}

fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

impl Classifier for LogisticRegression {
    fn fit(&mut self, data: &Dataset) {
        let n = data.len();
        assert!(n > 0, "cannot fit on an empty dataset");
        self.weights = vec![0.0; data.n_features()];
        self.bias = 0.0;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut t = 0.0f64;
        for _ in 0..self.epochs {
            for _ in 0..n {
                let i = rng.random_range(0..n);
                let x = data.row(i);
                let y = f64::from(u8::from(data.label_bool(i)));
                let eta = self.learning_rate / (1.0 + t * self.lambda * self.learning_rate);
                let p = sigmoid(dot(&self.weights, x) + self.bias);
                let err = y - p;
                for (w, &xi) in self.weights.iter_mut().zip(x) {
                    *w += eta * (err * xi - self.lambda * *w);
                }
                self.bias += eta * err;
                t += 1.0;
            }
        }
    }

    fn decision(&self, row: &[f64]) -> f64 {
        dot(&self.weights, row) + self.bias
    }

    fn name(&self) -> &'static str {
        "LR"
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(n: usize, gap: f64) -> Dataset {
        let mut d = Dataset::new(2);
        let mut s = 5u64;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        for i in 0..n {
            let y = i % 2 == 0;
            let c = if y { gap } else { -gap };
            d.push(&[c + next(), next()], u32::from(y));
        }
        d
    }

    #[test]
    fn separable_data_learned() {
        let d = blobs(300, 1.5);
        let mut lr = LogisticRegression::seeded(1);
        lr.fit(&d);
        let correct = (0..d.len()).filter(|&i| lr.predict(d.row(i)) == d.label_bool(i)).count();
        assert!(correct as f64 / d.len() as f64 > 0.97);
    }

    #[test]
    fn probabilities_are_monotone_in_feature() {
        let d = blobs(300, 1.5);
        let mut lr = LogisticRegression::seeded(2);
        lr.fit(&d);
        let p_neg = sigmoid(lr.decision(&[-2.0, 0.0]));
        let p_mid = sigmoid(lr.decision(&[0.0, 0.0]));
        let p_pos = sigmoid(lr.decision(&[2.0, 0.0]));
        assert!(p_neg < p_mid && p_mid < p_pos);
        assert!(p_neg < 0.1 && p_pos > 0.9);
    }

    #[test]
    fn probabilities_bounded() {
        let d = blobs(100, 3.0);
        let mut lr = LogisticRegression::seeded(3);
        lr.fit(&d);
        for x in [-100.0, -1.0, 0.0, 1.0, 100.0] {
            let p = sigmoid(lr.decision(&[x, 0.0]));
            assert!((0.0..=1.0).contains(&p), "p={p} out of range");
        }
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert_eq!(sigmoid(1000.0), 1.0);
        assert!(sigmoid(-1000.0).abs() < 1e-300);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn deterministic_training() {
        let d = blobs(100, 1.0);
        let mut a = LogisticRegression::seeded(9);
        let mut b = LogisticRegression::seeded(9);
        a.fit(&d);
        b.fit(&d);
        let decisions = |m: &LogisticRegression| -> Vec<f64> {
            (0..d.len()).map(|i| m.decision(d.row(i))).collect()
        };
        assert_eq!(decisions(&a), decisions(&b));
    }
}
