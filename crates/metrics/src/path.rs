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
//! endpoint is the side, and both paths are bit-identical to the retained
//! per-source references ([`ShortestPath::score_pairs_per_source`],
//! [`LocalPath::score_pairs_per_source`]), which group by first endpoint.

use crate::solver::SidePlan;
use crate::traits::{CandidatePolicy, Metric, ScoreContract};
use osn_graph::snapshot::Snapshot;
use osn_graph::{traversal, NodeId};

/// Groups `pairs` by first endpoint, for the per-source references:
/// returns the index permutation sorted by source plus the contiguous
/// range of each distinct source.
fn source_groups(pairs: &[(NodeId, NodeId)]) -> (Vec<usize>, Vec<std::ops::Range<usize>>) {
    let mut order: Vec<usize> = (0..pairs.len()).collect();
    order.sort_unstable_by_key(|&i| pairs[i].0);
    let mut groups = Vec::new();
    let mut i = 0;
    while i < order.len() {
        let u = pairs[order[i]].0;
        let mut j = i;
        while j < order.len() && pairs[order[j]].0 == u {
            j += 1;
        }
        groups.push(i..j);
        i = j;
    }
    (order, groups)
}

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

    fn score_pairs(&self, snap: &Snapshot, pairs: &[(NodeId, NodeId)]) -> Vec<f64> {
        // Batch up to 64 sides per multi-source BFS: one edge touch per
        // combined frontier level instead of one BFS per side.
        let n = snap.node_count();
        let plan = SidePlan::build(pairs);
        let unreached = -f64::from(self.max_depth + 1);
        let mut scores = vec![unreached; pairs.len()];
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
    }
}

impl ShortestPath {
    /// Per-source reference path: one [`traversal::bfs_distances`] per
    /// distinct source. Kept as the oracle the batched walker is tested
    /// and benchmarked against; not used by the engine.
    pub fn score_pairs_per_source(&self, snap: &Snapshot, pairs: &[(NodeId, NodeId)]) -> Vec<f64> {
        let (order, groups) = source_groups(pairs);
        let mut scores = vec![0.0; pairs.len()];
        for g in groups {
            let u = pairs[order[g.start]].0;
            // linklens-allow(per-source-power-iteration): reference oracle; the engine runs MS-BFS
            let dist = traversal::bfs_distances(snap, u, self.max_depth);
            for &idx in &order[g] {
                let v = pairs[idx].1;
                let d = dist[v as usize];
                scores[idx] =
                    if d == u32::MAX { -f64::from(self.max_depth + 1) } else { -f64::from(d) };
            }
        }
        scores
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

    fn score_pairs(&self, snap: &Snapshot, pairs: &[(NodeId, NodeId)]) -> Vec<f64> {
        // The shared epoch-stamped scatter core: one 2-walk scan per side,
        // O(1) reset between sides.
        let mut scan = traversal::Walk2Scan::new(snap.node_count());
        let plan = SidePlan::build(pairs);
        let mut scores = vec![0.0; pairs.len()];
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
    }
}

impl LocalPath {
    /// Per-source reference path with a plain scatter buffer (the original
    /// implementation, independent of [`traversal::Walk2Scan`]'s epoch
    /// discipline). Kept as the oracle the production path is tested
    /// against; not used by the engine.
    pub fn score_pairs_per_source(&self, snap: &Snapshot, pairs: &[(NodeId, NodeId)]) -> Vec<f64> {
        let n = snap.node_count();
        let (order, groups) = source_groups(pairs);
        let mut scores = vec![0.0; pairs.len()];
        // walk2[x] = number of 2-step walks u → x.
        let mut walk2 = vec![0u32; n];
        let mut touched: Vec<NodeId> = Vec::new();
        for g in groups {
            let u = pairs[order[g.start]].0;
            for &a in snap.neighbors(u) {
                for &x in snap.neighbors(a) {
                    if walk2[x as usize] == 0 {
                        touched.push(x);
                    }
                    walk2[x as usize] += 1;
                }
            }
            for &idx in &order[g] {
                let v = pairs[idx].1;
                let p2 = walk2[v as usize] as f64;
                let p3: u32 = snap.neighbors(v).iter().map(|&b| walk2[b as usize]).sum();
                scores[idx] = p2 + self.epsilon * f64::from(p3);
            }
            for &x in &touched {
                walk2[x as usize] = 0;
            }
            touched.clear();
        }
        scores
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Path 0-1-2-3-4 plus chord 1-3.
    fn fixture() -> Snapshot {
        Snapshot::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)])
    }

    #[test]
    fn sp_scores_negative_distance() {
        let s = fixture();
        let scores = ShortestPath::default().score_pairs(&s, &[(0, 2), (0, 3), (0, 4)]);
        assert_eq!(scores, vec![-2.0, -2.0, -3.0]);
    }

    #[test]
    fn sp_caps_unreachable() {
        let s = Snapshot::from_edges(4, &[(0, 1), (2, 3)]);
        let sp = ShortestPath { max_depth: 4 };
        assert_eq!(sp.score_pairs(&s, &[(0, 2)]), vec![-5.0]);
    }

    #[test]
    fn lp_counts_two_and_three_paths() {
        let s = fixture();
        let lp = LocalPath { epsilon: 0.01 };
        // Pair (0,2): one 2-path (0-1-2); 3-walks 0→2: 0-1-3-2 → p3 = 1.
        let got = lp.score_pairs(&s, &[(0, 2)])[0];
        assert!((got - (1.0 + 0.01)).abs() < 1e-12, "got {got}");
    }

    #[test]
    fn lp_pure_three_hop_pair() {
        let s = Snapshot::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let lp = LocalPath { epsilon: 0.5 };
        // (0,3): no 2-paths, exactly one 3-path.
        assert_eq!(lp.score_pairs(&s, &[(0, 3)]), vec![0.5]);
    }

    #[test]
    fn lp_multiple_parallel_paths_accumulate() {
        // Two disjoint 2-paths from 0 to 3: via 1 and via 2.
        let s = Snapshot::from_edges(4, &[(0, 1), (1, 3), (0, 2), (2, 3)]);
        let lp = LocalPath::default();
        let got = lp.score_pairs(&s, &[(0, 3)])[0];
        assert!((got - 2.0).abs() < 1e-3, "two 2-paths expected, got {got}");
    }

    #[test]
    fn lp_batches_match_single_queries() {
        let s = fixture();
        let lp = LocalPath::default();
        let pairs = [(0, 2), (0, 3), (2, 4), (0, 4)];
        let batch = lp.score_pairs(&s, &pairs);
        for (i, &p) in pairs.iter().enumerate() {
            assert_eq!(lp.score_pairs(&s, &[p])[0], batch[i], "pair {p:?}");
        }
    }

    #[test]
    fn lp_epsilon_zero_reduces_to_cn() {
        let s = fixture();
        let lp = LocalPath { epsilon: 0.0 };
        let pairs = [(0, 2), (0, 3), (2, 4)];
        let got = lp.score_pairs(&s, &pairs);
        let cn = crate::local::CommonNeighbors.score_pairs(&s, &pairs);
        assert_eq!(got, cn);
    }
}
