//! Path-based metrics: Shortest Path (SP) and Local Path (LP).
//!
//! Production scoring groups a batch by the solve sides of
//! `crate::solver::SidePlan`, the plan the walk solvers share: each pair
//! is scored from the endpoint in more of the batch's pairs, so a served
//! query (every pair holding the source) costs one BFS or one scan. SP
//! walks up to 64 sides at once through [`traversal::MultiSourceBfs`]
//! (one edge touch per combined frontier level instead of per source),
//! and LP reads its 2-walk counts from the epoch-stamped
//! [`traversal::Walk2Scan`] scatter core. Hop distances and walk counts
//! are symmetric exact integers, so the result does not depend on which
//! endpoint is the side. Both are bit-identical to the per-source
//! references in `linklens_bench::oracles`, one BFS or one plain scatter
//! per first endpoint.
//!
//! A score depends only on (snapshot, pair), so each hook scores
//! source-aligned chunks in parallel through [`exec::score_chunked`],
//! one plan per chunk.

use crate::exec;
use crate::solver::{SidePlan, SolverCache};
use crate::traits::{CandidatePolicy, Metric, ScoreContract};
use osn_graph::snapshot::Snapshot;
use osn_graph::{traversal, NodeId};

/// Shortest Path: the score is the *negated* BFS hop count, so closer pairs
/// rank higher. The paper notes SP effectively reduces to a random pick
/// among 2-hop pairs — all of which tie at distance 2 — which is exactly
/// what the seeded tie-breaking in [`crate::topk`] reproduces (§4.2).
#[derive(Clone, Debug)]
pub struct ShortestPath {
    /// BFS depth cap; pairs farther apart score `-(max_depth + 1)`.
    pub max_depth: u32,
}

impl Default for ShortestPath {
    fn default() -> Self {
        ShortestPath { max_depth: 6 }
    }
}

impl Metric for ShortestPath {
    fn name(&self) -> &'static str {
        "SP"
    }

    fn candidate_policy(&self) -> CandidatePolicy {
        CandidatePolicy::ThreeHop
    }

    fn score_pairs_cached(
        &self,
        snap: &Snapshot,
        pairs: &[(NodeId, NodeId)],
        threads: usize,
        _cache: &mut SolverCache,
    ) -> Vec<f64> {
        exec::score_chunked(pairs, threads, |chunk| {
            // Batch up to 64 sides per multi-source BFS: one edge touch per
            // combined frontier level instead of one BFS per side.
            let n = snap.node_count();
            let plan = SidePlan::build(chunk);
            let unreached = -f64::from(self.max_depth + 1);
            let mut scores = vec![unreached; chunk.len()];
            let mut bfs = traversal::MultiSourceBfs::new(n);
            // qmask[v]: bits of the current batch's sides querying v,
            // cleared between batches via the touched list.
            let mut qmask = vec![0u64; n];
            let mut qtouched: Vec<NodeId> = Vec::new();
            // (partner, side bit, pair index), sorted so the visit callback
            // can binary-search the partner's query span.
            let mut queries: Vec<(NodeId, usize, usize)> = Vec::new();
            for (b, sources) in plan.sides().chunks(64).enumerate() {
                queries.clear();
                for s in 0..sources.len() {
                    for &(idx, v) in plan.queries(b * 64 + s) {
                        if qmask[v as usize] == 0 {
                            qtouched.push(v);
                        }
                        qmask[v as usize] |= 1u64 << s;
                        queries.push((v, s, idx as usize));
                    }
                }
                queries.sort_unstable();
                bfs.run(snap, sources, self.max_depth, |v, depth, new_bits| {
                    let hits = new_bits & qmask[v as usize];
                    if hits == 0 {
                        return;
                    }
                    let start = queries.partition_point(|q| q.0 < v);
                    for &(qv, s, idx) in &queries[start..] {
                        if qv != v {
                            break;
                        }
                        if hits & (1u64 << s) != 0 {
                            scores[idx] = -f64::from(depth);
                        }
                    }
                });
                for &v in &qtouched {
                    qmask[v as usize] = 0;
                }
                qtouched.clear();
            }
            scores
        })
    }
}

/// Local Path \[45\]: `|paths²(u,v)| + ε·|paths³(u,v)|` with ε = 1e-4.
///
/// `paths²` is the common-neighbor count; `paths³` is the number of length-3
/// walks, computed per source with a scatter buffer (`A²` restricted to the
/// source row), so a batch grouped by source costs
/// O(Σ_{a∈Γ(u)} deg a + Σ deg v) instead of per-pair recomputation.
#[derive(Clone, Debug)]
pub struct LocalPath {
    /// Weight of 3-hop paths (the paper tunes ε = 1e-4).
    pub epsilon: f64,
}

impl Default for LocalPath {
    fn default() -> Self {
        LocalPath { epsilon: 1e-4 }
    }
}

impl Metric for LocalPath {
    fn name(&self) -> &'static str {
        "LP"
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
        _cache: &mut SolverCache,
    ) -> Vec<f64> {
        exec::score_chunked(pairs, threads, |chunk| {
            // The shared epoch-stamped scatter core: one 2-walk scan per side,
            // O(1) reset between sides.
            let mut scan = traversal::Walk2Scan::new(snap.node_count());
            let plan = SidePlan::build(chunk);
            let mut scores = vec![0.0; chunk.len()];
            for (si, &u) in plan.sides().iter().enumerate() {
                scan.scan(snap, u);
                for &(idx, v) in plan.queries(si) {
                    // paths² = 2-step walks landing exactly on v.
                    let p2 = f64::from(scan.count(v));
                    // paths³ = Σ_{b ∈ Γ(v)} walk2[b], excluding walks whose
                    // middle edge is (u,b) with b = u … for unconnected (u,v)
                    // walks cannot revisit the endpoints, so A³ is exact.
                    let p3: u32 = snap.neighbors(v).iter().map(|&b| scan.count(b)).sum();
                    scores[idx as usize] = p2 + self.epsilon * f64::from(p3);
                }
            }
            scores
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::score_pairs_t;

    /// Path 0-1-2-3-4 plus chord 1-3.
    fn fixture() -> Snapshot {
        Snapshot::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)])
    }

    #[test]
    fn sp_scores_negative_distance() {
        let s = fixture();
        let scores = score_pairs_t(&ShortestPath::default(), &s, &[(0, 2), (0, 3), (0, 4)], 1);
        assert_eq!(scores, vec![-2.0, -2.0, -3.0]);
    }

    #[test]
    fn sp_caps_unreachable() {
        let s = Snapshot::from_edges(4, &[(0, 1), (2, 3)]);
        let sp = ShortestPath { max_depth: 4 };
        assert_eq!(score_pairs_t(&sp, &s, &[(0, 2)], 1), vec![-5.0]);
    }

    #[test]
    fn lp_counts_two_and_three_paths() {
        let s = fixture();
        let lp = LocalPath { epsilon: 0.01 };
        // Pair (0,2): one 2-path (0-1-2); 3-walks 0→2: 0-1-3-2 → p3 = 1.
        let got = score_pairs_t(&lp, &s, &[(0, 2)], 1)[0];
        assert!((got - (1.0 + 0.01)).abs() < 1e-12, "got {got}");
    }

    #[test]
    fn lp_pure_three_hop_pair() {
        let s = Snapshot::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let lp = LocalPath { epsilon: 0.5 };
        // (0,3): no 2-paths, exactly one 3-path.
        assert_eq!(score_pairs_t(&lp, &s, &[(0, 3)], 1), vec![0.5]);
    }

    #[test]
    fn lp_multiple_parallel_paths_accumulate() {
        // Two disjoint 2-paths from 0 to 3: via 1 and via 2.
        let s = Snapshot::from_edges(4, &[(0, 1), (1, 3), (0, 2), (2, 3)]);
        let lp = LocalPath::default();
        let got = score_pairs_t(&lp, &s, &[(0, 3)], 1)[0];
        assert!((got - 2.0).abs() < 1e-3, "two 2-paths expected, got {got}");
    }

    #[test]
    fn lp_batches_match_single_queries() {
        let s = fixture();
        let lp = LocalPath::default();
        let pairs = [(0, 2), (0, 3), (2, 4), (0, 4)];
        let batch = score_pairs_t(&lp, &s, &pairs, 1);
        for (i, &p) in pairs.iter().enumerate() {
            assert_eq!(score_pairs_t(&lp, &s, &[p], 1)[0], batch[i], "pair {p:?}");
        }
    }

    #[test]
    fn lp_epsilon_zero_reduces_to_cn() {
        let s = fixture();
        let lp = LocalPath { epsilon: 0.0 };
        let pairs = [(0, 2), (0, 3), (2, 4)];
        let got = score_pairs_t(&lp, &s, &pairs, 1);
        let cn = score_pairs_t(&crate::fused::LocalKind::Cn, &s, &pairs, 1);
        assert_eq!(got, cn);
    }
}
