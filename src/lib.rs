//! # LinkLens
//!
//! A Rust reproduction of *"Network Growth and Link Prediction Through an
//! Empirical Lens"* (Liu et al., IMC 2016).
//!
//! This facade crate re-exports the whole workspace so applications can
//! depend on a single crate:
//!
//! * [`graph`] — temporal-graph substrate (snapshots, statistics, sampling).
//! * [`trace`] — synthetic OSN growth-trace generators (the dataset
//!   substitution for the paper's Facebook / Renren / YouTube traces).
//! * [`linalg`] — the small dense/sparse linear-algebra kernel used by the
//!   factorization-based metrics.
//! * [`ml`] — from-scratch classifiers (SVM, logistic regression, naive
//!   Bayes, decision tree, random forest).
//! * [`metrics`] — the paper's 14 metric-based link-prediction algorithms.
//! * [`core`] — the evaluation framework, temporal filters, time-series
//!   models and algorithm-selection machinery.
//!
//! ## Quickstart
//!
//! ```
//! use linklens::prelude::*;
//!
//! // Generate a small friendship-style growth trace and snapshot it.
//! let trace = TraceConfig::facebook_like().scaled(0.02).generate(7);
//! let seq = SnapshotSequence::by_edge_delta(&trace, trace.edge_count() / 6);
//!
//! // Predict the next snapshot's edges with Resource Allocation.
//! let eval = SequenceEvaluator::new(&seq);
//! let outcome = eval.evaluate_metric(&LocalKind::Ra, 1);
//! assert!(outcome.accuracy_ratio >= 0.0);
//! ```

#![forbid(unsafe_code)]

pub use linklens_core as core;
pub use osn_graph as graph;
pub use osn_linalg as linalg;
pub use osn_metrics as metrics;
pub use osn_ml as ml;
pub use osn_trace as trace;

/// Convenience prelude pulling in the names used by nearly every program
/// built on LinkLens.
pub mod prelude {
    pub use linklens_core::{
        classify::{ClassificationConfig, ClassificationPipeline},
        filters::TemporalFilter,
        framework::{PredictionOutcome, SequenceEvaluator},
        selection::NetworkFeatures,
        timeseries::{Aggregation, TimeSeriesPredictor},
    };
    pub use osn_graph::{
        sequence::SnapshotSequence, snapshot::Snapshot, temporal::TemporalGraph, NodeId,
    };
    pub use osn_metrics::{
        all_metrics,
        fused::LocalKind,
        katz::{KatzLr, KatzSc},
        path::{LocalPath, ShortestPath},
        rescal::Rescal,
        traits::Metric,
        walk::{LocalRandomWalk, PersonalizedPageRank},
    };
    pub use osn_ml::{
        forest::RandomForest, logistic::LogisticRegression, naive_bayes::GaussianNaiveBayes,
        svm::LinearSvm, tree::DecisionTree,
    };
    pub use osn_trace::{presets::TraceConfig, GrowthTrace};
}
