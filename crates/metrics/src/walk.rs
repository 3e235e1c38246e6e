//! Random-walk metrics: Local Random Walk (LRW) and Personalized PageRank
//! (PPR).
//!
//! Both are defined two-sided, summing a walk from each endpoint:
//!
//! * LRW: `(d_u/2E)·π_uv(m) + (d_v/2E)·π_vu(m)`;
//! * PPR: `π_u(v) + π_v(u)`.
//!
//! On an undirected graph walks are reversible. The `m`-step transition
//! probabilities satisfy `d_u·π_uv(m) = d_v·π_vu(m)`, and PPR with restart
//! `α` satisfies `π_u(v)/d_v = π_v(u)/d_u`. So one endpoint's walk carries
//! both terms. Production scoring evaluates each pair one-sided, from its
//! batch's *solve side* `s` (see [`crate::solver`]) with partner `t`:
//!
//! * LRW: `2·(d_s/2E)·π_st(m)`;
//! * PPR: `π_s(t)·(1 + d_s/d_t)`, or `π_s(t)` when `d_t = 0`, where
//!   `π_s(t) = 0` exactly.
//!
//! A batch then needs one solved column per side, and a served query (all
//! pairs holding the source) needs exactly one. The identities are exact
//! for the exact walks; LRW's `prune` and PPR's solver tolerance break
//! them by a bounded amount, so a score depends on (snapshot, pair list)
//! — the side a batch picks — within those bounds.
//!
//! Scoring runs on the batched multi-source solver engine in
//! [`crate::solver`] (one CSR sweep advances a block of side columns per
//! step). The original two-sided per-source frontier walk and
//! forward-push implementations are reference oracles in
//! `linklens_bench::oracles`, and the equivalence tests in
//! `tests/global_equivalence.rs` pin the engine to them.

use crate::solver::{self, SolverCache};
use crate::traits::{CandidatePolicy, Metric, ScoreContract};
use osn_graph::snapshot::Snapshot;
use osn_graph::NodeId;

/// Local Random Walk \[25\]:
/// `deg(u)/2|E| · π_uv(m) + deg(v)/2|E| · π_vu(m)`,
/// where `π_uv(m)` is the probability of an `m`-step walk from `u` ending
/// at `v`. The paper uses small `m`; we default to `m = 3`. The engine
/// evaluates the equal one-sided form `2·deg(s)/2|E| · π_st(m)` from the
/// pair's solve side `s` (see the module docs).
///
/// Walk distributions are computed by explicit probability propagation
/// with a prune threshold: probability mass below `prune` is dropped (and
/// with it the exponential blow-up around supernodes). `prune = 0`
/// recovers the exact distribution; a step drops at most `prune·2|E|` of
/// mass, so a pruned one-sided score is within `2·m·prune·deg(s)` of the
/// exact one.
#[derive(Clone, Debug)]
pub struct LocalRandomWalk {
    /// Number of walk steps `m`.
    pub steps: usize,
    /// Probability mass below which a frontier entry is not propagated.
    pub prune: f64,
}

impl Default for LocalRandomWalk {
    fn default() -> Self {
        LocalRandomWalk { steps: 3, prune: 1e-7 }
    }
}

impl Metric for LocalRandomWalk {
    fn name(&self) -> &'static str {
        "LRW"
    }

    fn candidate_policy(&self) -> CandidatePolicy {
        CandidatePolicy::ThreeHop
    }

    fn score_contract(&self) -> ScoreContract {
        ScoreContract::FiniteNonNegative
    }

    fn score_pairs_cached(
        &self,
        snap: &Snapshot,
        pairs: &[(NodeId, NodeId)],
        threads: usize,
        cache: &mut SolverCache,
    ) -> Vec<f64> {
        cache.ensure_snapshot(snap);
        match solver::lrw_scores_t(snap, pairs, self.steps, self.prune, threads, "LRW") {
            Ok(scores) => scores,
            // The Metric trait has no error channel; a tripped solver guard
            // is a hard invariant violation, same class as an audit panic.
            Err(e) => panic!("{e}"),
        }
    }
}

/// Personalized PageRank \[5\]: `π_uv + π_vu` with restart probability
/// `α = 0.15`. The engine evaluates the equal one-sided form
/// `π_st·(1 + deg(s)/deg(t))` from the pair's solve side `s` with a
/// tolerance-certified batched solve (see the module docs); the
/// per-source reference approximates both terms by the forward-push
/// algorithm (Andersen–Chung–Lang): push while any residual exceeds
/// `epsilon · deg`, giving per-entry error ≤ `epsilon · deg`.
#[derive(Clone, Debug)]
pub struct PersonalizedPageRank {
    /// Restart probability α.
    pub alpha: f64,
    /// Push tolerance (smaller = more accurate, slower).
    pub epsilon: f64,
}

impl Default for PersonalizedPageRank {
    fn default() -> Self {
        PersonalizedPageRank { alpha: 0.15, epsilon: 1e-5 }
    }
}

impl Metric for PersonalizedPageRank {
    fn name(&self) -> &'static str {
        "PPR"
    }

    fn candidate_policy(&self) -> CandidatePolicy {
        CandidatePolicy::ThreeHop
    }

    fn score_contract(&self) -> ScoreContract {
        ScoreContract::FiniteNonNegative
    }

    fn score_pairs_cached(
        &self,
        snap: &Snapshot,
        pairs: &[(NodeId, NodeId)],
        threads: usize,
        cache: &mut SolverCache,
    ) -> Vec<f64> {
        cache.ensure_snapshot(snap);
        let tol = self.solver_tol();
        match solver::ppr_scores_t(snap, pairs, self.alpha, tol, threads, cache, "PPR") {
            Ok(scores) => scores,
            // The Metric trait has no error channel; a tripped solver guard
            // is a hard invariant violation, same class as an audit panic.
            Err(e) => panic!("{e}"),
        }
    }
}

impl PersonalizedPageRank {
    /// Residual L1 tolerance the batched Chebyshev solver targets,
    /// derived from the push tolerance so the solver path is at least as
    /// accurate as the per-source reference (push guarantees per-entry
    /// error ≤ `epsilon · deg`; the solver certifies total L1 error
    /// ≤ `solver_tol / alpha`).
    pub fn solver_tol(&self) -> f64 {
        10.0 * self.epsilon
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::score_pairs_t;

    fn path4() -> Snapshot {
        Snapshot::from_edges(4, &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn lrw_respects_walk_parity_on_bipartite_graphs() {
        // On the bipartite path 0-1-2-3, a 3-step walk can never land at
        // even distance: π_{02}(3) = 0 exactly, while the distance-3 pair
        // gets positive mass. This is faithful to the paper's formula.
        let s = path4();
        let lrw = LocalRandomWalk::default();
        let scores = score_pairs_t(&lrw, &s, &[(0, 2), (0, 3)], 1);
        assert_eq!(scores[0], 0.0, "even-distance pair unreachable in 3 steps");
        assert!(scores[1] > 0.0, "3-step walk reaches distance 3");
    }

    #[test]
    fn lrw_prefers_near_pairs_on_non_bipartite_graph() {
        // Two triangles bridged (odd cycles break parity): 0-1-2 and 3-4-5
        // triangles joined by edge 2-3.
        let s = Snapshot::from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]);
        let lrw = LocalRandomWalk::default();
        let scores = score_pairs_t(&lrw, &s, &[(0, 3), (0, 4)], 1);
        assert!(scores[0] > scores[1], "distance-2 pair should beat distance-3: {scores:?}");
        assert!(scores[1] > 0.0);
    }

    #[test]
    fn lrw_symmetric_in_pair_order() {
        let s = Snapshot::from_edges(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]);
        let lrw = LocalRandomWalk::default();
        let a = score_pairs_t(&lrw, &s, &[(0, 3)], 1)[0];
        let b = score_pairs_t(&lrw, &s, &[(3, 0)], 1)[0];
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn ppr_scores_rank_by_proximity() {
        let s = path4();
        let ppr = PersonalizedPageRank::default();
        let scores = score_pairs_t(&ppr, &s, &[(0, 2), (0, 3)], 1);
        assert!(scores[0] > scores[1]);
        assert!(scores[1] > 0.0);
    }

    #[test]
    fn ppr_handles_isolated_source() {
        let s = Snapshot::from_edges(3, &[(0, 1)]);
        let ppr = PersonalizedPageRank::default();
        let scores = score_pairs_t(&ppr, &s, &[(0, 2)], 1);
        assert!(scores[0] < 1e-6);
    }

    #[test]
    fn lrw_prune_trades_accuracy_for_speed() {
        // With aggressive pruning, far-away mass disappears but near-by
        // scores survive.
        let s = path4();
        let exact = LocalRandomWalk { steps: 3, prune: 0.0 };
        let pruned = LocalRandomWalk { steps: 3, prune: 0.4 };
        let e = score_pairs_t(&exact, &s, &[(0, 2)], 1)[0];
        let p = score_pairs_t(&pruned, &s, &[(0, 2)], 1)[0];
        assert!(p <= e + 1e-12);
        assert!(p >= 0.0);
    }
}
