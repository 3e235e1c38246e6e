//! # linklens-core
//!
//! The paper's methodology, end to end (Liu et al., IMC 2016):
//!
//! * [`framework`] — the sequence-based evaluation of §3.2/§4.1: predict
//!   the new edges of snapshot `G_t` from `G_{t-1}`, with `k` set to the
//!   ground-truth edge count, scoring both *absolute accuracy* `|E^M|/k`
//!   and the *accuracy ratio* `|E^M| / E|E^R|` against uniform-random
//!   prediction.
//! * [`classify`] — the classification-based pipeline of §5: one sampled
//!   instance per transition (snowball samples, test pairs, in-sample
//!   truth) that every §5 number reads — metric points, and classifier
//!   cells with features from all 14 similarity metrics, undersampling at
//!   ratio θ, multi-seed averaging and SVM coefficient extraction for
//!   Figure 12.
//! * [`temporal`] — the §6.1 temporal measurements: positive/negative pair
//!   construction, idle times, d-day edge counts, common-neighbor time
//!   gaps, and CDFs (Figures 8, 13–15).
//! * [`filters`] — the §6.2 temporal filters (Table 7 thresholds, and
//!   thresholds derived from observed positives at a retention quantile)
//!   that prune the candidate space before any predictor runs.
//! * [`timeseries`] — the §6.3 comparison baseline: per-pair metric-score
//!   series over past snapshots aggregated by moving average or linear
//!   regression (da Silva Soares & Prudêncio \[10\]).
//! * [`selection`] — the §4.3 decision-tree analysis: which metric wins on
//!   which network, as a multi-class tree over network properties plus
//!   per-algorithm binary rules.
//! * [`sampling`] — sampled metric evaluation for graphs too large to
//!   score exhaustively: snowball draws, repeat-averaged accuracy ratios
//!   with per-draw variance, and the draw builder, judge and summary that
//!   [`classify`] shares.
//! * [`altmetrics`] — the alternative evaluation protocols the paper
//!   discusses: sampled AUC (§4.1's argued-against measure) and
//!   missing-link detection (§2's contrasted problem), runnable instead of
//!   assumed.
//! * [`report`] — plain-text table rendering and JSON persistence shared
//!   by the experiment binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod altmetrics;
pub mod chart;
pub mod classify;
pub mod filters;
pub mod framework;
pub mod report;
pub mod sampling;
pub mod selection;
pub mod temporal;
pub mod timeseries;
