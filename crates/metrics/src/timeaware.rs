//! Time-aware similarity metrics — the "assign more weight to new links"
//! family the paper cites as related work (Tylenda et al. \[40\], Sharan &
//! Neville \[37\]) and compares its filters against in §6.3.
//!
//! Each metric is a recency-weighted variant of a Table 3 neighborhood
//! metric: the contribution of a common neighbor `w` decays exponentially
//! with the age of the *newer* of the two edges `(u,w)`, `(v,w)`:
//!
//! `weight(w) = exp(−age(w) / τ)` with `age(w) = t_snap − max(t_uw, t_vw)`.
//!
//! With `τ → ∞` the metrics reduce exactly to their static counterparts
//! (tested below). These serve two roles in LinkLens: an implementation of
//! the cited alternative temporal approach, and an ablation point between
//! "static metric" and "static metric + temporal filter".

use crate::exec;
use crate::solver::SolverCache;
use crate::traits::{CandidatePolicy, Metric, ScoreContract};
use osn_graph::snapshot::Snapshot;
use osn_graph::{NodeId, Timestamp, DAY};

/// Exponential recency weight for a pair's common neighbor given the
/// snapshot time, the two edge times, and the decay constant in days.
#[inline]
fn recency_weight(snap_time: Timestamp, t_uw: Timestamp, t_vw: Timestamp, tau_days: f64) -> f64 {
    let age_days = (snap_time - t_uw.max(t_vw)) as f64 / DAY as f64;
    (-age_days / tau_days).exp()
}

/// Walks the common neighbors of `(u, v)` with their edge times, summing
/// `per_witness(w, weight)`.
fn weighted_cn_sum<F: FnMut(NodeId, f64) -> f64>(
    snap: &Snapshot,
    u: NodeId,
    v: NodeId,
    tau_days: f64,
    mut per_witness: F,
) -> f64 {
    let (nu, tu) = (snap.neighbors(u), snap.neighbor_times(u));
    let (nv, tv) = (snap.neighbors(v), snap.neighbor_times(v));
    let (mut i, mut j) = (0usize, 0usize);
    let mut acc = 0.0;
    while i < nu.len() && j < nv.len() {
        match nu[i].cmp(&nv[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let w = nu[i];
                let weight = recency_weight(snap.time(), tu[i], tv[j], tau_days);
                acc += per_witness(w, weight);
                i += 1;
                j += 1;
            }
        }
    }
    acc
}

/// Recency-weighted Common Neighbors: `Σ_w exp(−age(w)/τ)`.
#[derive(Clone, Copy, Debug)]
pub struct RecencyCommonNeighbors {
    /// Decay constant τ in days.
    pub tau_days: f64,
}

impl Default for RecencyCommonNeighbors {
    fn default() -> Self {
        RecencyCommonNeighbors { tau_days: 14.0 }
    }
}

impl Metric for RecencyCommonNeighbors {
    fn name(&self) -> &'static str {
        "tCN"
    }

    fn candidate_policy(&self) -> CandidatePolicy {
        CandidatePolicy::TwoHop
    }

    fn score_contract(&self) -> ScoreContract {
        ScoreContract::FiniteNonNegative
    }

    fn score_pairs_cached(
        &self,
        snap: &Snapshot,
        pairs: &[(NodeId, NodeId)],
        threads: usize,
        _cache: &mut SolverCache,
    ) -> Vec<f64> {
        exec::score_chunked(pairs, threads, |chunk| {
            chunk
                .iter()
                .map(|&(u, v)| weighted_cn_sum(snap, u, v, self.tau_days, |_, w| w))
                .collect()
        })
    }
}

/// Recency-weighted Adamic/Adar: `Σ_w exp(−age(w)/τ) / log(deg w)`.
#[derive(Clone, Copy, Debug)]
pub struct RecencyAdamicAdar {
    /// Decay constant τ in days.
    pub tau_days: f64,
}

impl Default for RecencyAdamicAdar {
    fn default() -> Self {
        RecencyAdamicAdar { tau_days: 14.0 }
    }
}

impl Metric for RecencyAdamicAdar {
    fn name(&self) -> &'static str {
        "tAA"
    }

    fn candidate_policy(&self) -> CandidatePolicy {
        CandidatePolicy::TwoHop
    }

    fn score_contract(&self) -> ScoreContract {
        ScoreContract::FiniteNonNegative
    }

    fn score_pairs_cached(
        &self,
        snap: &Snapshot,
        pairs: &[(NodeId, NodeId)],
        threads: usize,
        _cache: &mut SolverCache,
    ) -> Vec<f64> {
        exec::score_chunked(pairs, threads, |chunk| {
            chunk
                .iter()
                .map(|&(u, v)| {
                    weighted_cn_sum(snap, u, v, self.tau_days, |w, weight| {
                        weight / (snap.degree(w) as f64).ln()
                    })
                })
                .collect()
        })
    }
}

/// Recency-weighted Resource Allocation: `Σ_w exp(−age(w)/τ) / deg w`.
#[derive(Clone, Copy, Debug)]
pub struct RecencyResourceAllocation {
    /// Decay constant τ in days.
    pub tau_days: f64,
}

impl Default for RecencyResourceAllocation {
    fn default() -> Self {
        RecencyResourceAllocation { tau_days: 14.0 }
    }
}

impl Metric for RecencyResourceAllocation {
    fn name(&self) -> &'static str {
        "tRA"
    }

    fn candidate_policy(&self) -> CandidatePolicy {
        CandidatePolicy::TwoHop
    }

    fn score_contract(&self) -> ScoreContract {
        ScoreContract::FiniteNonNegative
    }

    fn score_pairs_cached(
        &self,
        snap: &Snapshot,
        pairs: &[(NodeId, NodeId)],
        threads: usize,
        _cache: &mut SolverCache,
    ) -> Vec<f64> {
        exec::score_chunked(pairs, threads, |chunk| {
            chunk
                .iter()
                .map(|&(u, v)| {
                    weighted_cn_sum(snap, u, v, self.tau_days, |w, weight| {
                        weight / snap.degree(w) as f64
                    })
                })
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::score_pairs_t;
    use crate::fused::LocalKind;
    use osn_graph::temporal::TemporalGraph;

    /// Pair (0,1) with two witnesses: node 2 via fresh edges, node 3 via
    /// stale edges.
    fn fixture() -> Snapshot {
        let mut g = TemporalGraph::new();
        for _ in 0..4 {
            g.add_node(0);
        }
        g.add_edge(0, 3, DAY); // stale witness edges (day 1)
        g.add_edge(1, 3, DAY + 1);
        g.add_edge(0, 2, 30 * DAY); // fresh witness edges (day 30)
        g.add_edge(1, 2, 30 * DAY + 1);
        Snapshot::up_to(&g, 4)
    }

    #[test]
    fn fresh_witnesses_weigh_more() {
        let s = fixture();
        // Remove the fresh witness: score should drop by nearly 1 (weight
        // ≈ 1); removing the stale witness drops almost nothing.
        let tcn = RecencyCommonNeighbors { tau_days: 5.0 };
        let full = score_pairs_t(&tcn, &s, &[(0, 1)], 1)[0];
        assert!(full > 0.99 && full < 1.1, "fresh≈1 + stale≈0, got {full}");
    }

    #[test]
    fn large_tau_recovers_static_metrics() {
        let s = fixture();
        let pairs = [(0u32, 1u32)];
        let tau = 1e12;
        let tcn = score_pairs_t(&RecencyCommonNeighbors { tau_days: tau }, &s, &pairs, 1)[0];
        let cn = score_pairs_t(&LocalKind::Cn, &s, &pairs, 1)[0];
        assert!((tcn - cn).abs() < 1e-6, "tCN {tcn} vs CN {cn}");
        let taa = score_pairs_t(&RecencyAdamicAdar { tau_days: tau }, &s, &pairs, 1)[0];
        let aa = score_pairs_t(&LocalKind::Aa, &s, &pairs, 1)[0];
        assert!((taa - aa).abs() < 1e-6);
        let tra = score_pairs_t(&RecencyResourceAllocation { tau_days: tau }, &s, &pairs, 1)[0];
        let ra = score_pairs_t(&LocalKind::Ra, &s, &pairs, 1)[0];
        assert!((tra - ra).abs() < 1e-6);
    }

    #[test]
    fn ranks_recently_closed_wedges_first() {
        // Two candidate pairs with one witness each: (0,1) has only a stale
        // witness in this graph; (4,5) a fresh one.
        let mut g = TemporalGraph::new();
        for _ in 0..6 {
            g.add_node(0);
        }
        g.add_edge(0, 2, DAY);
        g.add_edge(1, 2, DAY + 1);
        g.add_edge(4, 3, 30 * DAY);
        g.add_edge(5, 3, 30 * DAY + 1);
        let s = Snapshot::up_to(&g, 4);
        let tcn = RecencyCommonNeighbors { tau_days: 5.0 };
        let scores = score_pairs_t(&tcn, &s, &[(0, 1), (4, 5)], 1);
        assert!(scores[1] > scores[0], "fresh wedge should outrank stale: {scores:?}");
        // The static metric ties them.
        let cn = score_pairs_t(&LocalKind::Cn, &s, &[(0, 1), (4, 5)], 1);
        assert_eq!(cn[0], cn[1]);
    }

    #[test]
    fn weights_bounded_by_static_score() {
        let s = fixture();
        let pairs = [(0u32, 1u32)];
        for tau in [1.0, 5.0, 50.0] {
            let t = score_pairs_t(&RecencyCommonNeighbors { tau_days: tau }, &s, &pairs, 1)[0];
            let stat = score_pairs_t(&LocalKind::Cn, &s, &pairs, 1)[0];
            assert!(t <= stat + 1e-12);
            assert!(t >= 0.0);
        }
    }
}
