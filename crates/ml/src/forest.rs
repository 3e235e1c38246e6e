//! Random forests: bagged CART trees with feature subsampling.

use crate::data::Dataset;
use crate::tree::{DecisionTree, TreeConfig};
use crate::Classifier;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random-forest configuration + trained state.
///
/// Each tree is grown on a bootstrap resample of the training data with
/// `√d` random features considered per split (the scikit-learn default the
/// paper inherits). `decision` is the mean positive-class probability over
/// trees, shifted so 0 is the voting threshold.
#[derive(Clone, Debug)]
pub struct RandomForest {
    /// Number of trees.
    pub n_trees: usize,
    /// Depth limit per tree.
    pub max_depth: usize,
    /// RNG seed (controls bootstraps and per-tree feature subsampling).
    pub seed: u64,
    trees: Vec<DecisionTree>,
}

impl Default for RandomForest {
    fn default() -> Self {
        RandomForest { n_trees: 40, max_depth: 10, seed: 42, trees: Vec::new() }
    }
}

impl RandomForest {
    /// Creates a forest with default hyper-parameters and the given seed.
    pub fn seeded(seed: u64) -> Self {
        RandomForest { seed, ..Default::default() }
    }

    /// Mean positive-class probability over trees.
    pub fn positive_probability(&self, row: &[f64]) -> f64 {
        assert!(!self.trees.is_empty(), "predict before fit");
        self.trees.iter().map(|t| t.class_probability(row, 1)).sum::<f64>()
            / self.trees.len() as f64
    }
}

impl Classifier for RandomForest {
    fn fit(&mut self, data: &Dataset) {
        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        let k = (data.n_features() as f64).sqrt().ceil() as usize;
        let mut rng = StdRng::seed_from_u64(self.seed);
        self.trees = (0..self.n_trees)
            .map(|t| {
                // Bootstrap resample (with replacement).
                let idx: Vec<usize> =
                    (0..data.len()).map(|_| rng.random_range(0..data.len())).collect();
                let sample = data.select(&idx);
                let cfg = TreeConfig {
                    max_depth: self.max_depth,
                    feature_subsample: Some(k.max(1)),
                    seed: self.seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    ..Default::default()
                };
                let mut tree = DecisionTree::new(cfg);
                tree.fit_multiclass(&sample);
                tree
            })
            .collect();
    }

    fn decision(&self, row: &[f64]) -> f64 {
        self.positive_probability(row) - 0.5
    }

    fn name(&self) -> &'static str {
        "RF"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_bands() -> Dataset {
        let mut d = Dataset::new(3);
        let mut s = 3u64;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        for i in 0..300 {
            let y = i % 2 == 0;
            let signal = if y { 1.0 } else { -1.0 };
            d.push(&[signal + next() * 0.8, next(), next()], u32::from(y));
        }
        d
    }

    #[test]
    fn learns_noisy_data() {
        let d = noisy_bands();
        let mut rf = RandomForest::seeded(1);
        rf.fit(&d);
        let correct = (0..d.len()).filter(|&i| rf.predict(d.row(i)) == d.label_bool(i)).count();
        assert!(correct as f64 / d.len() as f64 > 0.9);
    }

    #[test]
    fn probabilities_in_unit_interval() {
        let d = noisy_bands();
        let mut rf = RandomForest::seeded(2);
        rf.fit(&d);
        for x in [-2.0, 0.0, 2.0] {
            let p = rf.positive_probability(&[x, 0.0, 0.0]);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn probability_is_monotone_in_signal() {
        let d = noisy_bands();
        let mut rf = RandomForest::seeded(3);
        rf.fit(&d);
        let lo = rf.positive_probability(&[-2.0, 0.0, 0.0]);
        let hi = rf.positive_probability(&[2.0, 0.0, 0.0]);
        assert!(hi > lo + 0.5, "hi={hi} lo={lo}");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let d = noisy_bands();
        let mut a = RandomForest::seeded(4);
        let mut b = RandomForest::seeded(4);
        a.fit(&d);
        b.fit(&d);
        let row = [0.3, 0.1, -0.2];
        assert_eq!(a.decision(&row), b.decision(&row));
    }

    #[test]
    fn ensemble_smooths_single_tree() {
        // Heavily overlapping classes: forest probability on a point in the
        // overlap should be strictly between 0 and 1 (bootstrap diversity),
        // unlike a deep single tree's hard 0/1.
        let mut d = Dataset::new(1);
        let mut s = 17u64;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        for i in 0..300 {
            let y = i % 2 == 0;
            let c = if y { 0.3 } else { -0.3 };
            d.push(&[c + next() * 3.0], u32::from(y));
        }
        let mut rf = RandomForest::seeded(5);
        rf.fit(&d);
        let p = rf.positive_probability(&[0.0]);
        assert!(p > 0.02 && p < 0.98, "ambiguous point got hard vote {p}");
    }
}
