//! # osn-metrics
//!
//! The 14 metric-based link-prediction algorithms evaluated by Liu et al.
//! (IMC 2016, Table 3), plus the two Katz implementations the paper
//! compares (low-rank and scalable-proximity). Every metric implements the
//! [`traits::Metric`] trait: given a [`osn_graph::snapshot::Snapshot`] and
//! a batch of unconnected node pairs, produce one ranking score per pair
//! through its one scoring method, the engine hook
//! [`traits::Metric::score_pairs_cached`].
//!
//! | Module | Metrics | Paper reference |
//! |---|---|---|
//! | [`fused`] | CN, JC, AA, RA, PA and the local naive-Bayes BCN, BAA, BRA: the eight variants of [`fused::LocalKind`] | \[32\], \[23\], \[2\], \[45\], \[6\], \[26\] |
//! | [`path`] | SP (shortest path), LP (local path, ε = 1e-4) | \[20\], \[45\] |
//! | [`walk`] | LRW (m = 3), PPR (α = 0.15, forward push) | \[25\], \[5\] |
//! | [`katz`] | Katz-lr (rank-r Lanczos), Katz-sc (landmarks) | \[1\], \[38\] |
//! | [`rescal`] | RESCAL ALS (rank r) | \[33\] |
//!
//! [`timeaware`] adds the recency-weighted extension metrics (the
//! time-aware related work of §6.3 / \[40\]); they are not part of the
//! paper's 14 and are excluded from [`all_metrics`].
//!
//! ## Example
//!
//! ```
//! use osn_graph::snapshot::Snapshot;
//! use osn_metrics::exec;
//! use osn_metrics::fused::LocalKind;
//!
//! // A square with one diagonal: does (1, 3) close next?
//! let snap = Snapshot::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
//! let scores = exec::score_pairs_t(&LocalKind::Ra, &snap, &[(1, 3)], 1);
//! assert!(scores[0] > 0.0, "two shared neighbors back the pair");
//! ```
//!
//! Candidate enumeration lives in [`candidates`]; metrics only ever see a
//! caller-chosen pair batch, so the expensive enumeration is shared across
//! all metrics per snapshot (the evaluation framework exploits this).
//! Top-k selection with deterministic seeded tie-breaking — the paper's
//! "random choice among ties" for SP — is in [`topk`]. Callers score
//! through the engine in [`exec`], which has four entry points
//! ([`exec::score_pairs_t`], [`exec::score_matrix_cached_t`],
//! [`exec::predict_top_k_many_cached_t`], [`exec::score_pairs_targeted`]);
//! predictions are bit-identical across worker counts. The eight local
//! metrics are one type, [`fused::LocalKind`], scored through the
//! source-batched fused kernel in [`fused`]: one witness walk per source
//! instead of per-pair intersections.
//!
//! The crate holds only code the engine runs. The reference
//! implementations the engine is tested and benchmarked against (per-pair
//! local scores, per-source walks and BFS, the dense Rescal fit, the
//! truncated Katz series) live in `linklens_bench::oracles`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bayes;
pub mod candidates;
pub mod exec;
pub mod fused;
pub mod katz;
mod local;
pub mod path;
pub mod rescal;
pub mod solver;
pub mod timeaware;
pub mod topk;
pub mod traits;
pub mod walk;

use fused::LocalKind;
use traits::Metric;

/// All metric instances with the paper's parameters, in Table 4's column
/// order (plus CN/AA/RA, which the paper implements but omits from plots
/// because their naive-Bayes variants dominate them).
pub fn all_metrics() -> Vec<Box<dyn Metric>> {
    vec![
        Box::new(LocalKind::Cn),
        Box::new(LocalKind::Jc),
        Box::new(LocalKind::Aa),
        Box::new(LocalKind::Ra),
        Box::new(LocalKind::Bcn),
        Box::new(LocalKind::Baa),
        Box::new(LocalKind::Bra),
        Box::new(path::LocalPath::default()),
        Box::new(walk::LocalRandomWalk::default()),
        Box::new(walk::PersonalizedPageRank::default()),
        Box::new(path::ShortestPath::default()),
        Box::new(katz::KatzLr::default()),
        Box::new(katz::KatzSc::default()),
        Box::new(rescal::Rescal::default()),
        Box::new(LocalKind::Pa),
    ]
}

/// The 12 metrics shown in the paper's Figure 5 / Table 4 (CN, AA, RA are
/// dropped in favor of their local-naive-Bayes versions, as in the paper).
pub fn figure5_metrics() -> Vec<Box<dyn Metric>> {
    all_metrics().into_iter().filter(|m| !matches!(m.name(), "CN" | "AA" | "RA")).collect()
}

/// Looks a metric up by its display name (e.g. `"BRA"`, `"Katz-lr"`).
pub fn metric_by_name(name: &str) -> Option<Box<dyn Metric>> {
    all_metrics().into_iter().find(|m| m.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_metrics_has_fifteen_entries() {
        // 14 algorithms with Katz counted twice (lr + sc implementations).
        assert_eq!(all_metrics().len(), 15);
    }

    #[test]
    fn figure5_excludes_dominated_locals() {
        let names: Vec<&str> = figure5_metrics().iter().map(|m| m.name()).collect();
        assert!(!names.contains(&"CN"));
        assert!(names.contains(&"BCN"));
        assert_eq!(names.len(), 12);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = all_metrics().iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 15);
    }

    #[test]
    fn lookup_by_name() {
        assert!(metric_by_name("BRA").is_some());
        assert!(metric_by_name("Katz-lr").is_some());
        assert!(metric_by_name("nope").is_none());
    }
}
