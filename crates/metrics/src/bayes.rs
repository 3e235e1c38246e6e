//! Local naive Bayes metrics (Liu & Zhou \[26\]): BCN, BAA, BRA.
//!
//! The local naive Bayes model re-weights each common neighbor `w` by how
//! much more often it closes triangles than it leaves them open:
//!
//! * `s = |V|(|V|−1)/(2|E|) − 1` — the graph-level prior odds;
//! * `R_w = (N_△w + 1) / (N_∧w + 1)` — `w`'s triangle vs open-wedge odds,
//!   where `N_∧w = C(deg w, 2) − N_△w`;
//! * BCN(u,v) = `|Γ(u)∩Γ(v)|·log s + Σ_w log R_w`;
//! * BAA / BRA re-use AA's / RA's witness weights on `(log s + log R_w)`.
//!
//! Scores can be negative (they are log-odds); only the ranking matters.
//! The three metrics are the kernel kinds `LocalKind::{Bcn, Baa, Bra}`
//! (see [`crate::fused::LocalKind`]); the fused kernel reads their
//! per-witness weights from the tables built here, memoized on the
//! snapshot.

use osn_graph::snapshot::Snapshot;
use osn_graph::{stats, NodeId};

/// One snapshot's naive-Bayes weight tables, derived from its triangle
/// counts ([`stats::triangle_counts`]). The fused kernel (`crate::fused`)
/// keeps them in the snapshot's memo, so a snapshot counts its triangles
/// once however many contexts and workers score it.
pub(crate) struct BayesTables {
    pub(crate) log_s: f64,
    /// `log R_w` per node — BCN's summand.
    pub(crate) log_r: Vec<f64>,
    /// `(log s + log R_w) / ln(deg w)` per node — BAA's exact summand.
    /// Entries for degree < 2 are non-finite but never consulted:
    /// witnesses always have degree ≥ 2.
    pub(crate) baa_w: Vec<f64>,
    /// `(log s + log R_w) / deg w` per node — BRA's exact summand.
    pub(crate) bra_w: Vec<f64>,
}

impl BayesTables {
    pub(crate) fn build(snap: &Snapshot) -> Self {
        let n = snap.node_count() as f64;
        let e = snap.edge_count() as f64;
        // Guard tiny graphs: s must stay positive for the log.
        let log_s = (n * (n - 1.0) / (2.0 * e.max(1.0)) - 1.0).max(1e-9).ln();
        let tri = stats::triangle_counts(snap);
        let degree = |w: usize| snap.degree(w as NodeId) as f64;
        let log_r: Vec<f64> = (0..snap.node_count())
            .map(|w| {
                let d = degree(w);
                let wedges = d * (d - 1.0) / 2.0;
                let t = tri[w] as f64;
                ((t + 1.0) / ((wedges - t) + 1.0)).ln()
            })
            .collect();
        // Exactly the per-pair summands of BAA and BRA: same log-space
        // numerator, same divisor expressions.
        let baa_w = log_r.iter().enumerate().map(|(w, r)| (log_s + r) / degree(w).ln()).collect();
        let bra_w = log_r.iter().enumerate().map(|(w, r)| (log_s + r) / degree(w)).collect();
        BayesTables { log_s, log_r, baa_w, bra_w }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::score_pairs_t;
    use crate::fused::LocalKind;
    use crate::traits::Metric;

    /// Fixture where witness quality differs: witness 1 closes its only
    /// wedge into a triangle; witness 5 has the same degree but an open
    /// wedge structure.
    ///
    /// 0-1, 1-2, 0-2 (triangle), plus 3-5, 5-4 (open wedge), 0-3? no.
    fn closing_vs_open() -> Snapshot {
        Snapshot::from_edges(7, &[(0, 1), (1, 2), (0, 2), (3, 5), (5, 4), (0, 6), (6, 2)])
    }

    #[test]
    fn r_weight_prefers_triangle_closers() {
        let s = closing_vs_open();
        let ctx = BayesTables::build(&s);
        // Node 1: deg 2, 1 triangle, 0 open wedges → R = 2/1 = 2.
        assert!((ctx.log_r[1] - 2.0_f64.ln()).abs() < 1e-12);
        // Node 5: deg 2, 0 triangles, 1 open wedge → R = 1/2.
        assert!((ctx.log_r[5] - 0.5_f64.ln()).abs() < 1e-12);
        assert!(ctx.log_r[1] > ctx.log_r[5]);
    }

    #[test]
    fn bcn_ranks_witness_quality() {
        // Pairs (3,4) via open-wedge witness 5 vs a triangle-closing
        // witness of equal degree: node 6 (deg 2, sits in wedge 0-6-2 where
        // 0-2 is an edge → 1 triangle). Pair (0,2) is an edge; use the
        // wedge pair that 6 would close next: none unconnected — instead
        // compare (3,4) against an equal-CN pair witnessed by node 1.
        // Both witnesses have degree 2, so plain CN ties them; BCN must not.
        let s = closing_vs_open();
        let scores = score_pairs_t(&LocalKind::Bcn, &s, &[(3, 4)], 1);
        // Witness 5 has log R < 0, so BCN < log s · 1.
        let ctx = BayesTables::build(&s);
        assert!(scores[0] < ctx.log_s);
    }

    #[test]
    fn all_bayes_metrics_zero_without_common_neighbors() {
        let s = closing_vs_open();
        let pair = [(3, 6)]; // no shared neighbor
        assert_eq!(score_pairs_t(&LocalKind::Bcn, &s, &pair, 1), vec![0.0]);
        assert_eq!(score_pairs_t(&LocalKind::Baa, &s, &pair, 1), vec![0.0]);
        assert_eq!(score_pairs_t(&LocalKind::Bra, &s, &pair, 1), vec![0.0]);
    }

    #[test]
    fn baa_bra_share_sign_structure_with_bcn() {
        let s = closing_vs_open();
        let pairs = [(3, 4), (0, 4)];
        let bcn = score_pairs_t(&LocalKind::Bcn, &s, &pairs, 1);
        let baa = score_pairs_t(&LocalKind::Baa, &s, &pairs, 1);
        let bra = score_pairs_t(&LocalKind::Bra, &s, &pairs, 1);
        for i in 0..pairs.len() {
            assert_eq!(bcn[i] == 0.0, baa[i] == 0.0);
            assert_eq!(baa[i] == 0.0, bra[i] == 0.0);
        }
    }

    #[test]
    fn dense_graph_prior_is_guarded() {
        // Complete graph minus one edge: s would be ≤ 0 without the guard.
        let s = Snapshot::from_edges(3, &[(0, 1), (1, 2)]);
        let scores = score_pairs_t(&LocalKind::Bcn, &s, &[(0, 2)], 1);
        assert!(scores[0].is_finite());
    }

    #[test]
    fn scores_symmetric() {
        let s = closing_vs_open();
        for m in [LocalKind::Bcn, LocalKind::Baa, LocalKind::Bra] {
            let a = score_pairs_t(&m, &s, &[(3, 4)], 1)[0];
            let b = score_pairs_t(&m, &s, &[(4, 3)], 1)[0];
            assert_eq!(a, b, "{} asymmetric", m.name());
        }
    }
}
