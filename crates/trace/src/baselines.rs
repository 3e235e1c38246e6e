//! Null-model growth traces: Erdős–Rényi and Barabási–Albert.
//!
//! These are *calibration instruments*, not OSN stand-ins. Each null model
//! has a known ground truth about which predictor can work:
//!
//! * on **ER growth** (every new edge uniform over unconnected pairs) *no*
//!   structural metric carries signal — every predictor's accuracy ratio
//!   must hover around 1;
//! * on **BA growth** (every new edge degree-proportional) preferential
//!   attachment is the *generative model*, so PA must beat the
//!   neighborhood metrics.
//!
//! The root crate's `tests/extension_features.rs` and the `ext-nulls`
//! experiment row use these to validate the metric implementations
//! end-to-end, through the evaluation framework: an implementation bug that
//! *inflates* accuracy would show up as "beating random on ER", which is
//! impossible for a correct pipeline.

use crate::GrowthTrace;
use osn_graph::{NodeId, DAY};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates an Erdős–Rényi growth trace: `initial_nodes` nodes at day 0,
/// then `edges_per_day` uniform-random edges per day for `days` days, with
/// `nodes_per_day` fresh arrivals per day.
pub fn erdos_renyi_growth(
    initial_nodes: usize,
    nodes_per_day: usize,
    edges_per_day: usize,
    days: u32,
    seed: u64,
) -> GrowthTrace {
    assert!(initial_nodes >= 2);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xE2D0_5EED);
    let mut g = GrowthTrace::new();
    for _ in 0..initial_nodes {
        g.add_node(0);
    }
    for day in 1..=days as u64 {
        let t_base = day * DAY;
        for _ in 0..nodes_per_day {
            g.add_node(t_base);
        }
        let n = g.node_count() as u32;
        let mut offset = 1u64;
        let mut added = 0usize;
        let mut attempts = 0usize;
        while added < edges_per_day && attempts < edges_per_day * 30 {
            attempts += 1;
            let u = rng.random_range(0..n);
            let v = rng.random_range(0..n);
            if u != v && g.add_edge(u, v, t_base + offset) {
                offset += 1;
                added += 1;
            }
        }
    }
    g
}

/// Generates a Barabási–Albert growth trace: each day `nodes_per_day`
/// fresh nodes arrive and attach `edges_per_node` edges degree-
/// proportionally (plus-one smoothing so isolated nodes are reachable).
pub fn barabasi_albert_growth(
    initial_nodes: usize,
    nodes_per_day: usize,
    edges_per_node: usize,
    days: u32,
    seed: u64,
) -> GrowthTrace {
    barabasi_albert_with_internal(initial_nodes, nodes_per_day, edges_per_node, 0, days, seed)
}

/// Like [`barabasi_albert_growth`] but additionally creates
/// `internal_edges_per_day` edges per day between two degree-
/// proportionally sampled *existing* nodes. Pure BA creates edges only at
/// node arrival, which leaves the link-prediction ground truth (edges
/// among existing nodes) empty; the internal variant is the null model the
/// calibration experiment needs — and on it, PA is the generative model.
pub fn barabasi_albert_with_internal(
    initial_nodes: usize,
    nodes_per_day: usize,
    edges_per_node: usize,
    internal_edges_per_day: usize,
    days: u32,
    seed: u64,
) -> GrowthTrace {
    assert!(initial_nodes >= 2 && edges_per_node >= 1);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBA1B_A5EED);
    let mut g = GrowthTrace::new();
    // Endpoint pool: degree-proportional sampling; seeded with every node
    // once (the +1 smoothing).
    let mut pool: Vec<NodeId> = Vec::new();
    for _ in 0..initial_nodes {
        let id = g.add_node(0);
        pool.push(id);
    }
    // Seed ring so the pool has edges to reinforce.
    for i in 0..initial_nodes {
        let a = i as NodeId;
        let b = ((i + 1) % initial_nodes) as NodeId;
        if g.add_edge(a, b, 1 + i as u64) {
            pool.push(a);
            pool.push(b);
        }
    }
    for day in 1..=days as u64 {
        let t_base = day * DAY;
        let mut offset = 1u64;
        for _ in 0..nodes_per_day {
            let u = g.add_node(t_base);
            pool.push(u);
            let mut added = 0usize;
            let mut attempts = 0usize;
            while added < edges_per_node && attempts < edges_per_node * 30 {
                attempts += 1;
                let v = pool[rng.random_range(0..pool.len())];
                if v != u && g.add_edge(u, v, t_base + offset) {
                    pool.push(u);
                    pool.push(v);
                    offset += 1;
                    added += 1;
                }
            }
        }
        // Internal edges: both endpoints degree-proportional.
        let mut added = 0usize;
        let mut attempts = 0usize;
        while added < internal_edges_per_day && attempts < internal_edges_per_day * 40 {
            attempts += 1;
            let a = pool[rng.random_range(0..pool.len())];
            let b = pool[rng.random_range(0..pool.len())];
            if a != b && g.add_edge(a, b, t_base + offset) {
                pool.push(a);
                pool.push(b);
                offset += 1;
                added += 1;
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::snapshot::Snapshot;
    use osn_graph::stats;

    #[test]
    fn er_growth_counts() {
        let g = erdos_renyi_growth(100, 5, 40, 20, 1);
        assert_eq!(g.node_count(), 200);
        assert!(g.edge_count() >= 20 * 38, "most daily edge budgets should be met");
    }

    #[test]
    fn er_has_no_clustering_to_speak_of() {
        let g = erdos_renyi_growth(300, 0, 60, 20, 2);
        let s = Snapshot::up_to(&g, g.edge_count());
        // ER clustering ≈ density = 2E/(n(n-1)) ≈ 0.027; triadic graphs are 10x+.
        assert!(stats::avg_clustering(&s) < 0.08);
    }

    #[test]
    fn ba_is_heavy_tailed() {
        let g = barabasi_albert_growth(10, 10, 3, 60, 3);
        let s = Snapshot::up_to(&g, g.edge_count());
        let d = stats::degree_stats(&s);
        // The +1-smoothed pool softens the tail slightly vs textbook BA;
        // 5× max/mean still clearly separates it from ER (≈2-3×).
        assert!(d.max as f64 > 5.0 * d.mean, "BA should grow hubs: max {} mean {}", d.max, d.mean);
    }

    #[test]
    fn ba_attachment_targets_are_high_degree() {
        // Pure BA edges always involve the brand-new node, so there is no
        // "among existing nodes" ground truth; instead verify that the
        // *existing* endpoint of late edges is disproportionately a hub.
        let g = barabasi_albert_growth(10, 8, 2, 60, 4);
        let split = g.edge_count() * 3 / 4;
        let snap = Snapshot::up_to(&g, split);
        let n = snap.node_count() as NodeId;
        let targets: Vec<NodeId> = g.edges()[split..]
            .iter()
            .filter_map(|e| {
                if e.u < n {
                    Some(e.u)
                } else if e.v < n {
                    Some(e.v)
                } else {
                    None
                }
            })
            .collect();
        assert!(!targets.is_empty());
        // Hubs: top 5% by degree in the observed snapshot.
        let mut by_degree: Vec<NodeId> = (0..n).collect();
        by_degree.sort_unstable_by_key(|&u| std::cmp::Reverse(snap.degree(u)));
        let top: std::collections::HashSet<NodeId> =
            by_degree[..(n as usize / 20).max(1)].iter().copied().collect();
        let share =
            targets.iter().filter(|t| top.contains(t)).count() as f64 / targets.len() as f64;
        // Under uniform attachment the top-5% set would receive ~5% of the
        // attachments; degree-proportional attachment (with +1 smoothing)
        // should at least double that.
        assert!(share > 0.10, "top-5% hubs should attract ≫5% of attachments, got {share:.2}");
    }

    #[test]
    fn ba_internal_edges_create_existing_node_truth() {
        let g = barabasi_albert_with_internal(10, 5, 2, 20, 30, 6);
        let seq = osn_graph::sequence::SnapshotSequence::with_count(&g, 6);
        // Pure BA has zero ground truth among existing nodes; the internal
        // variant must have plenty.
        let truth = seq.new_edges(4);
        assert!(truth.len() > 10, "internal edges should create predictable truth");
    }

    #[test]
    fn null_models_are_deterministic() {
        let a = erdos_renyi_growth(50, 2, 20, 10, 7);
        let b = erdos_renyi_growth(50, 2, 20, 10, 7);
        assert_eq!(a.edges(), b.edges());
        let c = barabasi_albert_growth(10, 5, 2, 10, 7);
        let d = barabasi_albert_growth(10, 5, 2, 10, 7);
        assert_eq!(c.edges(), d.edges());
    }
}
