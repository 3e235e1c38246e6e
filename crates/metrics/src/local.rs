//! Neighborhood heuristics: CN, JC, AA, RA, PA (Table 3 rows 1–4 and 13).
//!
//! These metrics advertise a [`Metric::fused_kind`], so the engine scores
//! them through the source-batched kernel in [`crate::fused`]; each hook
//! is that same engine call.

use crate::exec;
use crate::fused::LocalKind;
use crate::solver::SolverCache;
use crate::traits::{CandidatePolicy, Metric, ScoreContract};
use osn_graph::snapshot::Snapshot;
use osn_graph::NodeId;

/// Common Neighbors [Newman 2001]: `|Γ(u) ∩ Γ(v)|`.
pub struct CommonNeighbors;

impl Metric for CommonNeighbors {
    fn name(&self) -> &'static str {
        "CN"
    }

    fn candidate_policy(&self) -> CandidatePolicy {
        CandidatePolicy::TwoHop
    }

    fn score_contract(&self) -> ScoreContract {
        ScoreContract::FiniteNonNegative
    }

    fn fused_kind(&self) -> Option<LocalKind> {
        Some(LocalKind::Cn)
    }

    fn score_pairs_cached(
        &self,
        snap: &Snapshot,
        pairs: &[(NodeId, NodeId)],
        threads: usize,
        _cache: &mut SolverCache,
    ) -> Vec<f64> {
        exec::score_pairs_t(self, snap, pairs, threads)
    }
}

/// Jaccard's Coefficient \[23\]: `|Γ(u) ∩ Γ(v)| / |Γ(u) ∪ Γ(v)|`.
/// Zero when both neighborhoods are empty.
pub struct JaccardCoefficient;

impl Metric for JaccardCoefficient {
    fn name(&self) -> &'static str {
        "JC"
    }

    fn candidate_policy(&self) -> CandidatePolicy {
        CandidatePolicy::TwoHop
    }

    fn score_contract(&self) -> ScoreContract {
        ScoreContract::FiniteNonNegative
    }

    fn fused_kind(&self) -> Option<LocalKind> {
        Some(LocalKind::Jc)
    }

    fn score_pairs_cached(
        &self,
        snap: &Snapshot,
        pairs: &[(NodeId, NodeId)],
        threads: usize,
        _cache: &mut SolverCache,
    ) -> Vec<f64> {
        exec::score_pairs_t(self, snap, pairs, threads)
    }
}

/// Adamic/Adar \[2\]: `Σ_{w ∈ Γ(u) ∩ Γ(v)} 1 / log(deg(w))`.
/// Common neighbors always have degree ≥ 2, so the log never vanishes.
pub struct AdamicAdar;

impl Metric for AdamicAdar {
    fn name(&self) -> &'static str {
        "AA"
    }

    fn candidate_policy(&self) -> CandidatePolicy {
        CandidatePolicy::TwoHop
    }

    fn score_contract(&self) -> ScoreContract {
        ScoreContract::FiniteNonNegative
    }

    fn fused_kind(&self) -> Option<LocalKind> {
        Some(LocalKind::Aa)
    }

    fn score_pairs_cached(
        &self,
        snap: &Snapshot,
        pairs: &[(NodeId, NodeId)],
        threads: usize,
        _cache: &mut SolverCache,
    ) -> Vec<f64> {
        exec::score_pairs_t(self, snap, pairs, threads)
    }
}

/// Resource Allocation \[45\]: `Σ_{w ∈ Γ(u) ∩ Γ(v)} 1 / deg(w)`.
pub struct ResourceAllocation;

impl Metric for ResourceAllocation {
    fn name(&self) -> &'static str {
        "RA"
    }

    fn candidate_policy(&self) -> CandidatePolicy {
        CandidatePolicy::TwoHop
    }

    fn score_contract(&self) -> ScoreContract {
        ScoreContract::FiniteNonNegative
    }

    fn fused_kind(&self) -> Option<LocalKind> {
        Some(LocalKind::Ra)
    }

    fn score_pairs_cached(
        &self,
        snap: &Snapshot,
        pairs: &[(NodeId, NodeId)],
        threads: usize,
        _cache: &mut SolverCache,
    ) -> Vec<f64> {
        exec::score_pairs_t(self, snap, pairs, threads)
    }
}

/// Preferential Attachment \[6\]: `deg(u) · deg(v)` — the "rich get richer"
/// score the paper finds near-useless on friendship networks (§4.2).
pub struct PreferentialAttachment;

impl Metric for PreferentialAttachment {
    fn name(&self) -> &'static str {
        "PA"
    }

    fn candidate_policy(&self) -> CandidatePolicy {
        CandidatePolicy::Global
    }

    fn score_contract(&self) -> ScoreContract {
        ScoreContract::FiniteNonNegative
    }

    fn fused_kind(&self) -> Option<LocalKind> {
        Some(LocalKind::Pa)
    }

    fn score_pairs_cached(
        &self,
        snap: &Snapshot,
        pairs: &[(NodeId, NodeId)],
        threads: usize,
        _cache: &mut SolverCache,
    ) -> Vec<f64> {
        exec::score_pairs_t(self, snap, pairs, threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::score_pairs_t;

    /// Square 0-1-2-3 with diagonal 0-2 and pendant 4 attached to 0.
    ///
    /// ```text
    ///   1 — 2
    ///   | / |
    ///   0 — 3
    ///   |
    ///   4
    /// ```
    fn fixture() -> Snapshot {
        Snapshot::from_edges(5, &[(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (0, 4)])
    }

    #[test]
    fn cn_counts() {
        let s = fixture();
        // Pair (1,3): common neighbors {0, 2}.
        assert_eq!(
            score_pairs_t(&CommonNeighbors, &s, &[(1, 3), (1, 4), (2, 4)], 1),
            vec![2.0, 1.0, 1.0]
        );
    }

    #[test]
    fn jc_normalizes_by_union() {
        let s = fixture();
        // (1,3): Γ(1)={0,2}, Γ(3)={0,2} → inter 2, union 2 → 1.0.
        // (1,4): Γ(4)={0} → inter 1, union 2 → 0.5.
        let scores = score_pairs_t(&JaccardCoefficient, &s, &[(1, 3), (1, 4)], 1);
        assert_eq!(scores, vec![1.0, 0.5]);
    }

    #[test]
    fn jc_isolated_pair_is_zero() {
        let s = Snapshot::from_edges(3, &[(0, 1)]);
        // Node 2 is isolated; (1,2) has union = {0}, inter = 0.
        assert_eq!(score_pairs_t(&JaccardCoefficient, &s, &[(1, 2)], 1), vec![0.0]);
    }

    #[test]
    fn aa_weights_low_degree_witnesses_higher() {
        let s = fixture();
        // (1,3) witnesses: 0 (deg 4) and 2 (deg 3).
        let expect = 1.0 / 4.0_f64.ln() + 1.0 / 3.0_f64.ln();
        let got = score_pairs_t(&AdamicAdar, &s, &[(1, 3)], 1)[0];
        assert!((got - expect).abs() < 1e-12);
    }

    #[test]
    fn ra_weights_inverse_degree() {
        let s = fixture();
        let expect = 1.0 / 4.0 + 1.0 / 3.0;
        let got = score_pairs_t(&ResourceAllocation, &s, &[(1, 3)], 1)[0];
        assert!((got - expect).abs() < 1e-12);
    }

    #[test]
    fn ra_bounded_by_cn() {
        // RA ≤ CN/2 because every witness has degree ≥ 2.
        let s = fixture();
        let pairs = [(1, 3), (1, 4), (2, 4), (3, 4)];
        let ra = score_pairs_t(&ResourceAllocation, &s, &pairs, 1);
        let cn = score_pairs_t(&CommonNeighbors, &s, &pairs, 1);
        for (r, c) in ra.iter().zip(&cn) {
            assert!(*r <= c / 2.0 + 1e-12);
        }
    }

    #[test]
    fn pa_is_degree_product() {
        let s = fixture();
        // deg(1)=2, deg(3)=2 → 4; deg(0)=4 … pair (0, 2) is an edge but PA
        // scores any pair it is handed.
        assert_eq!(score_pairs_t(&PreferentialAttachment, &s, &[(1, 3)], 1), vec![4.0]);
        assert_eq!(score_pairs_t(&PreferentialAttachment, &s, &[(1, 4)], 1), vec![2.0]);
    }

    #[test]
    fn scores_are_symmetric_under_pair_order() {
        // The trait takes canonical pairs, but the formulas must not care.
        let s = fixture();
        for m in [
            &CommonNeighbors as &dyn Metric,
            &JaccardCoefficient,
            &AdamicAdar,
            &ResourceAllocation,
            &PreferentialAttachment,
        ] {
            let a = score_pairs_t(m, &s, &[(1, 3)], 1)[0];
            let b = score_pairs_t(m, &s, &[(3, 1)], 1)[0];
            assert_eq!(a, b, "{} asymmetric", m.name());
        }
    }
}
