//! The eight local metrics of Table 3 — CN, JC, AA, RA, PA and the
//! naive-Bayes BCN, BAA, BRA — as one [`Metric`]: the kernel's
//! [`LocalKind`], whose variants carry each formula and citation.
//!
//! Every kind advertises itself as its [`Metric::fused_kind`], so the
//! engine scores it through the source-batched kernel in
//! [`crate::fused`]; the hook is that same engine call.

use crate::exec;
use crate::fused::LocalKind;
use crate::solver::SolverCache;
use crate::traits::{CandidatePolicy, Metric, ScoreContract};
use osn_graph::snapshot::Snapshot;
use osn_graph::NodeId;

impl Metric for LocalKind {
    /// The paper's abbreviation.
    fn name(&self) -> &'static str {
        match self {
            LocalKind::Cn => "CN",
            LocalKind::Jc => "JC",
            LocalKind::Aa => "AA",
            LocalKind::Ra => "RA",
            LocalKind::Pa => "PA",
            LocalKind::Bcn => "BCN",
            LocalKind::Baa => "BAA",
            LocalKind::Bra => "BRA",
        }
    }

    /// `Global` for PA, which scores pairs with no common neighbor;
    /// `TwoHop` for every witness sum.
    fn candidate_policy(&self) -> CandidatePolicy {
        match self {
            LocalKind::Pa => CandidatePolicy::Global,
            _ => CandidatePolicy::TwoHop,
        }
    }

    /// `Finite` for the Bayes kinds, whose log-odds go below zero;
    /// `FiniteNonNegative` for the counts and inverse-degree sums.
    fn score_contract(&self) -> ScoreContract {
        if self.is_bayes() {
            ScoreContract::Finite
        } else {
            ScoreContract::FiniteNonNegative
        }
    }

    fn fused_kind(&self) -> Option<LocalKind> {
        Some(*self)
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
            score_pairs_t(&LocalKind::Cn, &s, &[(1, 3), (1, 4), (2, 4)], 1),
            vec![2.0, 1.0, 1.0]
        );
    }

    #[test]
    fn jc_normalizes_by_union() {
        let s = fixture();
        // (1,3): Γ(1)={0,2}, Γ(3)={0,2} → inter 2, union 2 → 1.0.
        // (1,4): Γ(4)={0} → inter 1, union 2 → 0.5.
        let scores = score_pairs_t(&LocalKind::Jc, &s, &[(1, 3), (1, 4)], 1);
        assert_eq!(scores, vec![1.0, 0.5]);
    }

    #[test]
    fn jc_isolated_pair_is_zero() {
        let s = Snapshot::from_edges(3, &[(0, 1)]);
        // Node 2 is isolated; (1,2) has union = {0}, inter = 0.
        assert_eq!(score_pairs_t(&LocalKind::Jc, &s, &[(1, 2)], 1), vec![0.0]);
    }

    #[test]
    fn aa_weights_low_degree_witnesses_higher() {
        let s = fixture();
        // (1,3) witnesses: 0 (deg 4) and 2 (deg 3).
        let expect = 1.0 / 4.0_f64.ln() + 1.0 / 3.0_f64.ln();
        let got = score_pairs_t(&LocalKind::Aa, &s, &[(1, 3)], 1)[0];
        assert!((got - expect).abs() < 1e-12);
    }

    #[test]
    fn ra_weights_inverse_degree() {
        let s = fixture();
        let expect = 1.0 / 4.0 + 1.0 / 3.0;
        let got = score_pairs_t(&LocalKind::Ra, &s, &[(1, 3)], 1)[0];
        assert!((got - expect).abs() < 1e-12);
    }

    #[test]
    fn ra_bounded_by_cn() {
        // RA ≤ CN/2 because every witness has degree ≥ 2.
        let s = fixture();
        let pairs = [(1, 3), (1, 4), (2, 4), (3, 4)];
        let ra = score_pairs_t(&LocalKind::Ra, &s, &pairs, 1);
        let cn = score_pairs_t(&LocalKind::Cn, &s, &pairs, 1);
        for (r, c) in ra.iter().zip(&cn) {
            assert!(*r <= c / 2.0 + 1e-12);
        }
    }

    #[test]
    fn pa_is_degree_product() {
        let s = fixture();
        // deg(1)=2, deg(3)=2 → 4; deg(0)=4 … pair (0, 2) is an edge but PA
        // scores any pair it is handed.
        assert_eq!(score_pairs_t(&LocalKind::Pa, &s, &[(1, 3)], 1), vec![4.0]);
        assert_eq!(score_pairs_t(&LocalKind::Pa, &s, &[(1, 4)], 1), vec![2.0]);
    }

    #[test]
    fn each_kind_is_named_and_scored_as_in_the_paper() {
        let names = ["CN", "JC", "AA", "RA", "PA", "BCN", "BAA", "BRA"];
        for (kind, name) in LocalKind::ALL.into_iter().zip(names) {
            assert_eq!(kind.name(), name);
            assert_eq!(kind.fused_kind(), Some(kind), "{name} must advertise its kernel kind");
            let global = kind == LocalKind::Pa;
            assert_eq!(kind.candidate_policy() == CandidatePolicy::Global, global, "{name}");
            let finite = kind.is_bayes();
            assert_eq!(kind.score_contract() == ScoreContract::Finite, finite, "{name}");
        }
    }

    #[test]
    fn scores_are_symmetric_under_pair_order() {
        // The trait takes canonical pairs, but the formulas must not care.
        let s = fixture();
        for m in [LocalKind::Cn, LocalKind::Jc, LocalKind::Aa, LocalKind::Ra, LocalKind::Pa] {
            let a = score_pairs_t(&m, &s, &[(1, 3)], 1)[0];
            let b = score_pairs_t(&m, &s, &[(3, 1)], 1)[0];
            assert_eq!(a, b, "{} asymmetric", m.name());
        }
    }
}
