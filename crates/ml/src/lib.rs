//! # osn-ml
//!
//! From-scratch classifiers for LinkLens — the Rust stand-in for the
//! scikit-learn stack the paper uses (\[34\] in the paper). The paper's
//! classification experiments (§5) need exactly four binary classifiers —
//! linear SVM, logistic regression, naive Bayes, random forest — plus a
//! decision tree for the §4.3 network→algorithm selection, so those are
//! what this crate provides:
//!
//! * [`data::Dataset`] — dense feature matrix with integer class labels,
//!   standardization and deterministic shuffling.
//! * [`svm::LinearSvm`] — primal linear SVM trained with Pegasos-style
//!   projected SGD on the hinge loss; exposes the raw `|w|` feature
//!   coefficients the paper analyzes in Figure 12.
//! * [`logistic::LogisticRegression`] — L2-regularized logistic regression
//!   via SGD.
//! * [`naive_bayes::GaussianNaiveBayes`] — per-class Gaussian likelihoods.
//! * [`tree::DecisionTree`] — CART (Gini) with depth/leaf controls,
//!   multi-class support and human-readable rule extraction.
//! * [`forest::RandomForest`] — bootstrap aggregation over CART trees with
//!   feature subsampling; vote share as a decision score.
//! * [`platt`] — Platt scaling: calibrated probabilities from any
//!   decision score (addresses §8's "binary results lack granularity").
//! * [`eval`] — ROC AUC.
//!
//! All training is deterministic given the seed in each model's config.
//! Scores returned by [`Classifier::decision`] are *ranking* scores: higher
//! means more likely positive, which is all the top-k link-prediction
//! pipeline consumes. Absolute calibration is out of scope.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod data;
pub mod eval;
pub mod forest;
pub mod logistic;
pub mod naive_bayes;
pub mod platt;
pub mod svm;
pub mod tree;

use data::Dataset;

/// A trained binary classifier usable by the link-prediction pipeline.
pub trait Classifier {
    /// Fits the model to a (binary-labeled) dataset. Labels must be 0/1.
    fn fit(&mut self, data: &Dataset);

    /// Ranking score for one feature row: higher ⇒ more likely positive.
    fn decision(&self, row: &[f64]) -> f64;

    /// Hard binary prediction (default: decision > 0).
    fn predict(&self, row: &[f64]) -> bool {
        self.decision(row) > 0.0
    }

    /// Short display name ("SVM", "LR", "NB", "RF").
    fn name(&self) -> &'static str;
}
