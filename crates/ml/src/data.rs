//! Dense datasets, standardization, shuffling and undersampling.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A dense feature matrix with integer class labels.
///
/// Binary pipelines use labels `{0, 1}`; the §4.3 algorithm-selection tree
/// uses one class per metric. Rows are stored contiguously.
#[derive(Clone, Debug, Default)]
pub struct Dataset {
    features: Vec<f64>,
    labels: Vec<u32>,
    n_features: usize,
}

impl Dataset {
    /// Creates an empty dataset with `n_features` columns.
    pub fn new(n_features: usize) -> Self {
        Dataset { features: Vec::new(), labels: Vec::new(), n_features }
    }

    /// Appends one sample.
    ///
    /// # Panics
    /// Panics if `row.len() != n_features`.
    pub fn push(&mut self, row: &[f64], label: u32) {
        assert_eq!(row.len(), self.n_features, "feature width mismatch");
        self.features.extend_from_slice(row);
        self.labels.push(label);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of feature columns.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Feature row `i`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.features[i * self.n_features..(i + 1) * self.n_features]
    }

    /// Class label of sample `i`.
    pub fn label(&self, i: usize) -> u32 {
        self.labels[i]
    }

    /// Label of sample `i` as a binary bool (`label != 0`).
    pub fn label_bool(&self, i: usize) -> bool {
        self.labels[i] != 0
    }

    /// Number of distinct classes (max label + 1).
    pub fn n_classes(&self) -> usize {
        self.labels.iter().copied().max().map_or(0, |m| m as usize + 1)
    }

    /// Returns a new dataset containing the given sample indices, in order.
    pub fn select(&self, indices: &[usize]) -> Dataset {
        let mut out = Dataset::new(self.n_features);
        for &i in indices {
            out.push(self.row(i), self.labels[i]);
        }
        out
    }

    /// Deterministic Fisher–Yates shuffle.
    pub fn shuffled(&self, seed: u64) -> Dataset {
        let mut idx: Vec<usize> = (0..self.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..idx.len()).rev() {
            idx.swap(i, rng.random_range(0..=i));
        }
        self.select(&idx)
    }

    /// Fits a standardizer (per-feature mean/std) on this dataset.
    pub fn fit_scaler(&self) -> Scaler {
        let n = self.len().max(1) as f64;
        let mut mean = vec![0.0; self.n_features];
        for i in 0..self.len() {
            for (m, &x) in mean.iter_mut().zip(self.row(i)) {
                *m += x;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut var = vec![0.0; self.n_features];
        for i in 0..self.len() {
            for ((v, &m), &x) in var.iter_mut().zip(&mean).zip(self.row(i)) {
                *v += (x - m) * (x - m);
            }
        }
        let std: Vec<f64> =
            var.iter().map(|&v| (v / n).sqrt()).map(|s| if s < 1e-12 { 1.0 } else { s }).collect();
        Scaler { mean, std }
    }

    /// Applies a scaler, returning the standardized dataset.
    pub fn scaled_by(&self, scaler: &Scaler) -> Dataset {
        let mut out = Dataset::new(self.n_features);
        let mut buf = vec![0.0; self.n_features];
        for i in 0..self.len() {
            scaler.transform_into(self.row(i), &mut buf);
            out.push(&buf, self.labels[i]);
        }
        out
    }
}

/// Per-feature standardization (z-score) fitted on training data and
/// applied to both train and test rows — constant features get unit scale.
#[derive(Clone, Debug)]
pub struct Scaler {
    /// Per-feature means.
    pub mean: Vec<f64>,
    /// Per-feature standard deviations (never zero).
    pub std: Vec<f64>,
}

impl Scaler {
    /// Standardizes `row` into `out`.
    pub fn transform_into(&self, row: &[f64], out: &mut [f64]) {
        for i in 0..row.len() {
            out[i] = (row[i] - self.mean[i]) / self.std[i];
        }
    }

    /// Standardizes `row`, allocating.
    pub fn transform(&self, row: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; row.len()];
        self.transform_into(row, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let mut d = Dataset::new(2);
        d.push(&[1.0, 10.0], 1);
        d.push(&[2.0, 20.0], 0);
        d.push(&[3.0, 30.0], 0);
        d.push(&[4.0, 40.0], 1);
        d
    }

    #[test]
    fn push_and_access() {
        let d = toy();
        assert_eq!(d.len(), 4);
        assert_eq!(d.n_features(), 2);
        assert_eq!(d.row(2), &[3.0, 30.0]);
        assert_eq!(d.label(3), 1);
    }

    #[test]
    fn select_preserves_rows() {
        let d = toy();
        let s = d.select(&[3, 0]);
        assert_eq!(s.row(0), &[4.0, 40.0]);
        assert_eq!(s.label(1), 1);
    }

    #[test]
    fn shuffle_is_permutation_and_deterministic() {
        let d = toy();
        let a = d.shuffled(9);
        let b = d.shuffled(9);
        assert_eq!(a.row(0), b.row(0));
        let mut firsts: Vec<f64> = (0..4).map(|i| a.row(i)[0]).collect();
        firsts.sort_by(f64::total_cmp);
        assert_eq!(firsts, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn scaler_standardizes_train_data() {
        let d = toy();
        let sc = d.fit_scaler();
        let s = d.scaled_by(&sc);
        for f in 0..2 {
            let mean: f64 = (0..4).map(|i| s.row(i)[f]).sum::<f64>() / 4.0;
            let var: f64 = (0..4).map(|i| s.row(i)[f].powi(2)).sum::<f64>() / 4.0;
            assert!(mean.abs() < 1e-12);
            assert!((var - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn scaler_constant_feature_is_safe() {
        let mut d = Dataset::new(1);
        d.push(&[5.0], 0);
        d.push(&[5.0], 1);
        let sc = d.fit_scaler();
        let t = sc.transform(&[5.0]);
        assert_eq!(t, vec![0.0]);
        assert!(t[0].is_finite());
    }

    #[test]
    fn n_classes_counts_max_label() {
        let mut d = Dataset::new(1);
        d.push(&[0.0], 0);
        d.push(&[1.0], 4);
        assert_eq!(d.n_classes(), 5);
    }
}
