//! Network-property measurements used throughout the paper: Figures 2–4
//! (degree, path length, clustering over time), the §4.3 decision-tree
//! features, per-node triangle counts (local naive Bayes metrics), and the
//! 2-hop edge ratio λ₂ of §4.2.

use crate::snapshot::Snapshot;
use crate::traversal::bfs_distances;
use crate::NodeId;
use serde::Serialize;

/// Summary statistics of a degree distribution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, serde::Deserialize)]
pub struct DegreeStats {
    /// Mean degree (2|E| / |V|).
    pub mean: f64,
    /// Population standard deviation of degree — the paper's top decision-
    /// tree feature ("node degree heterogeneity").
    pub std_dev: f64,
    /// Median (50th percentile) degree.
    pub median: f64,
    /// 90th-percentile degree.
    pub p90: f64,
    /// 99th-percentile degree.
    pub p99: f64,
    /// Maximum degree.
    pub max: usize,
}

/// Computes [`DegreeStats`] for a snapshot.
pub fn degree_stats(snap: &Snapshot) -> DegreeStats {
    let n = snap.node_count();
    if n == 0 {
        return DegreeStats::default();
    }
    let mut degs: Vec<usize> = (0..n as NodeId).map(|u| snap.degree(u)).collect();
    degs.sort_unstable();
    let mean = degs.iter().sum::<usize>() as f64 / n as f64;
    let var = degs.iter().map(|&d| (d as f64 - mean).powi(2)).sum::<f64>() / n as f64;
    DegreeStats {
        mean,
        std_dev: var.sqrt(),
        median: percentile_sorted(&degs, 0.50),
        p90: percentile_sorted(&degs, 0.90),
        p99: percentile_sorted(&degs, 0.99),
        // linklens-allow(unwrap-in-lib): callers guard n > 0, so the sorted degree list is non-empty
        max: *degs.last().expect("n > 0"),
    }
}

/// Nearest-rank percentile of a pre-sorted slice, `q` in \[0, 1\].
fn percentile_sorted(sorted: &[usize], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// Per-node triangle counts: `out[u]` = number of triangles containing `u`.
///
/// The degree-ordered forward count: every edge points from the endpoint
/// earlier in `(degree, id)` order to the later one, so each node keeps at
/// most O(√|E|) out-neighbours. For each node `u` the kernel stamps `u`'s
/// out-list in a marker array and scans the out-lists of its
/// out-neighbours; a stamped hit `w` in `v`'s list closes triangle
/// `(u, v, w)`. Each triangle is found exactly once, at its earliest
/// corner, and credited to all three, for O(|E|·√|E|) work in all.
///
/// Uncached: a caller that reads the counts more than once per snapshot
/// keeps what it derives from them in the snapshot's memo
/// ([`Snapshot::derived`]), as the naive-Bayes weight tables of
/// `osn_metrics` do.
pub fn triangle_counts(snap: &Snapshot) -> Vec<u64> {
    let n = snap.node_count();
    let before = |a: NodeId, b: NodeId| (snap.degree(a), a) < (snap.degree(b), b);
    let mut out_off = Vec::with_capacity(n + 1);
    let mut out: Vec<NodeId> = Vec::with_capacity(snap.edge_count());
    out_off.push(0);
    for u in 0..n as NodeId {
        out.extend(snap.neighbors(u).iter().copied().filter(|&v| before(u, v)));
        out_off.push(out.len());
    }
    let mut tri = vec![0u64; n];
    let mut mark = vec![false; n];
    for u in 0..n {
        let out_u = &out[out_off[u]..out_off[u + 1]];
        out_u.iter().for_each(|&v| mark[v as usize] = true);
        for &v in out_u {
            let v = v as usize;
            for &w in &out[out_off[v]..out_off[v + 1]] {
                if mark[w as usize] {
                    tri[u] += 1;
                    tri[v] += 1;
                    tri[w as usize] += 1;
                }
            }
        }
        out_u.iter().for_each(|&v| mark[v as usize] = false);
    }
    tri
}

/// Average local clustering coefficient (Watts–Strogatz): mean over all
/// nodes of `2·tri(u) / (deg(u)·(deg(u)−1))`, counting nodes of degree < 2
/// as zero — Figure 4's y-axis.
pub fn avg_clustering(snap: &Snapshot) -> f64 {
    let n = snap.node_count();
    if n == 0 {
        return 0.0;
    }
    let tri = triangle_counts(snap);
    let mut acc = 0.0;
    for (u, &t) in tri.iter().enumerate() {
        let d = snap.degree(u as NodeId);
        if d >= 2 {
            acc += 2.0 * t as f64 / (d as f64 * (d - 1) as f64);
        }
    }
    acc / n as f64
}

/// Average shortest-path length over connected pairs, estimated by BFS from
/// `sources` starting points chosen deterministically (stride sampling over
/// non-isolated nodes). Exact when `sources >= |V|`. Figure 3's y-axis.
pub fn avg_path_length(snap: &Snapshot, sources: usize) -> f64 {
    let n = snap.node_count();
    let candidates: Vec<NodeId> = (0..n as NodeId).filter(|&u| snap.degree(u) > 0).collect();
    if candidates.is_empty() {
        return 0.0;
    }
    let take = sources.max(1).min(candidates.len());
    let stride = candidates.len() / take;
    let mut total = 0u64;
    let mut pairs = 0u64;
    for i in 0..take {
        let src = candidates[i * stride];
        let dist = bfs_distances(snap, src, u32::MAX);
        for &d in &dist {
            if d != u32::MAX && d > 0 {
                total += d as u64;
                pairs += 1;
            }
        }
    }
    if pairs == 0 {
        0.0
    } else {
        total as f64 / pairs as f64
    }
}

/// Degree assortativity: the Pearson correlation of (excess) degrees across
/// edge endpoints. Positive for Facebook/Renren-style friendship graphs,
/// negative for YouTube-style subscription graphs (§4.2).
pub fn degree_assortativity(snap: &Snapshot) -> f64 {
    let mut sx = 0.0;
    let mut sy = 0.0;
    let mut sxy = 0.0;
    let mut sx2 = 0.0;
    let mut sy2 = 0.0;
    let mut m = 0.0;
    for (u, v) in snap.edges() {
        // Count each undirected edge in both orientations so the
        // correlation is symmetric.
        let du = snap.degree(u) as f64;
        let dv = snap.degree(v) as f64;
        for (x, y) in [(du, dv), (dv, du)] {
            sx += x;
            sy += y;
            sxy += x * y;
            sx2 += x * x;
            sy2 += y * y;
            m += 1.0;
        }
    }
    if m == 0.0 {
        return 0.0;
    }
    let cov = sxy / m - (sx / m) * (sy / m);
    let vx = sx2 / m - (sx / m).powi(2);
    let vy = sy2 / m - (sy / m).powi(2);
    if vx <= 0.0 || vy <= 0.0 {
        0.0
    } else {
        cov / (vx * vy).sqrt()
    }
}

/// The paper's λ₂ (§4.2): the fraction of `new_edges` whose endpoints were
/// at distance exactly 2 in `prev` (i.e. unconnected but sharing a
/// neighbor). Edges between nodes that share no neighbor or were already
/// connected don't count toward the numerator.
pub fn two_hop_edge_ratio(prev: &Snapshot, new_edges: &[(NodeId, NodeId)]) -> f64 {
    if new_edges.is_empty() {
        return 0.0;
    }
    let hits = new_edges
        .iter()
        .filter(|&&(u, v)| !prev.has_edge(u, v) && prev.common_neighbor_count(u, v) > 0)
        .count();
    hits as f64 / new_edges.len() as f64
}

/// Fraction of `new_edges` touching any of the top `frac` highest-degree
/// nodes of `prev` — the supernode concentration measurement of §4.2
/// ("more than 40% of new edges involve the top 0.1% nodes in YouTube").
pub fn top_degree_edge_share(prev: &Snapshot, new_edges: &[(NodeId, NodeId)], frac: f64) -> f64 {
    if new_edges.is_empty() {
        return 0.0;
    }
    let n = prev.node_count();
    let top_k = ((n as f64 * frac).ceil() as usize).max(1).min(n);
    let mut by_degree: Vec<NodeId> = (0..n as NodeId).collect();
    by_degree.sort_unstable_by_key(|&u| std::cmp::Reverse(prev.degree(u)));
    let mut is_top = vec![false; n];
    for &u in &by_degree[..top_k] {
        is_top[u as usize] = true;
    }
    let hits = new_edges.iter().filter(|&&(u, v)| is_top[u as usize] || is_top[v as usize]).count();
    hits as f64 / new_edges.len() as f64
}

/// All the per-snapshot features the §4.3 decision trees consume, bundled.
#[derive(Clone, Copy, Debug, Serialize, serde::Deserialize)]
pub struct SnapshotProperties {
    /// Node count |V|.
    pub nodes: usize,
    /// Edge count |E|.
    pub edges: usize,
    /// Degree statistics.
    pub degree: DegreeStats,
    /// Average local clustering coefficient.
    pub clustering: f64,
    /// Estimated average shortest-path length.
    pub avg_path_length: f64,
    /// Degree assortativity.
    pub assortativity: f64,
}

/// Measures every [`SnapshotProperties`] field. `path_sources` bounds the
/// BFS sampling for the path-length estimate.
pub fn snapshot_properties(snap: &Snapshot, path_sources: usize) -> SnapshotProperties {
    SnapshotProperties {
        nodes: snap.node_count(),
        edges: snap.edge_count(),
        degree: degree_stats(snap),
        clustering: avg_clustering(snap),
        avg_path_length: avg_path_length(snap, path_sources),
        assortativity: degree_assortativity(snap),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_tail() -> Snapshot {
        // Triangle 0-1-2 with tail 2-3.
        Snapshot::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)])
    }

    #[test]
    fn degree_stats_on_fixture() {
        let s = triangle_plus_tail();
        let d = degree_stats(&s);
        assert!((d.mean - 2.0).abs() < 1e-12); // degrees 2,2,3,1
        assert_eq!(d.max, 3);
        assert_eq!(d.median, 2.0);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let sorted = vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        assert_eq!(percentile_sorted(&sorted, 0.5), 5.0);
        assert_eq!(percentile_sorted(&sorted, 0.9), 9.0);
        assert_eq!(percentile_sorted(&sorted, 1.0), 10.0);
        assert_eq!(percentile_sorted(&sorted, 0.0), 1.0);
    }

    #[test]
    fn triangle_counts_fixture() {
        let s = triangle_plus_tail();
        assert_eq!(triangle_counts(&s), vec![1, 1, 1, 0]);
    }

    #[test]
    fn triangle_counts_k4() {
        let s = Snapshot::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        // K4 has 4 triangles; each node is in C(3,2)=3 of them.
        assert_eq!(triangle_counts(&s), vec![3, 3, 3, 3]);
    }

    #[test]
    fn clustering_triangle_is_one() {
        let s = Snapshot::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        assert!((avg_clustering(&s) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clustering_fixture() {
        let s = triangle_plus_tail();
        // c(0)=c(1)=1, c(2)=2*1/(3*2)=1/3, c(3)=0 → mean = (1+1+1/3)/4.
        let expect = (1.0 + 1.0 + 1.0 / 3.0) / 4.0;
        assert!((avg_clustering(&s) - expect).abs() < 1e-12);
    }

    #[test]
    fn path_length_exact_on_path_graph() {
        let s = Snapshot::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        // All-pairs distances: 1,2,3,1,2,1 (×2 directions) → mean 10/6.
        let apl = avg_path_length(&s, 100);
        assert!((apl - 10.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn assortativity_star_is_negative() {
        let s = Snapshot::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert!(degree_assortativity(&s) < 0.0);
    }

    #[test]
    fn assortativity_regular_cycle_is_degenerate_zero() {
        // Every node has degree 2 → zero variance → defined as 0 here.
        let s = Snapshot::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(degree_assortativity(&s), 0.0);
    }

    #[test]
    fn lambda2_counts_only_two_hop_closures() {
        let s = Snapshot::from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        // (0,2) closes a 2-hop; (0,3) spans components; (2,4) no shared nbr.
        let r = two_hop_edge_ratio(&s, &[(0, 2), (0, 3), (2, 4)]);
        assert!((r - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn top_degree_share() {
        let s = Snapshot::from_edges(10, &[(0, 1), (0, 2), (0, 3), (0, 4), (5, 6)]);
        // Top 10% = 1 node = node 0 (degree 4).
        let share = top_degree_edge_share(&s, &[(0, 7), (5, 7), (8, 9)], 0.1);
        assert!((share - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn snapshot_properties_populates_all() {
        let s = triangle_plus_tail();
        let p = snapshot_properties(&s, 10);
        assert_eq!(p.nodes, 4);
        assert_eq!(p.edges, 4);
        assert!(p.clustering > 0.0);
        assert!(p.avg_path_length > 0.0);
    }
}
