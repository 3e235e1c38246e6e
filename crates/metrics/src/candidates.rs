//! Shared candidate-pair enumeration.
//!
//! Scoring all `O(|V|²)` unconnected pairs is exactly what the paper calls
//! out as infeasible (88 days of feature computation for one Renren
//! snapshot, §5). Every metric's *top-k* prediction, however, only needs
//! pairs the metric can rank above the floor:
//!
//! * neighborhood metrics are zero beyond 2 hops;
//! * LP / SP / walk / Katz scores decay so fast with distance that the
//!   top-k always sits within 3 hops (LP is *identically* zero beyond 3);
//! * PA and Rescal can rank distant pairs, but their top scores involve
//!   high-degree nodes — so the candidate set adds every pair touching the
//!   top-degree nodes.
//!
//! [`CandidateSet::build`] materializes the union once per snapshot, from
//! the two enumerators of [`osn_graph::traversal`] (`two_hop_pairs` and
//! `within3_pairs`), and is shared by all metrics under evaluation. This
//! mirrors the paper's own approximation strategy (its PA implementation
//! "only considers top-K node pairs", §3.2) and is documented as such in
//! DESIGN.md.

use crate::traits::CandidatePolicy;
use osn_graph::activity::Prune;
use osn_graph::snapshot::Snapshot;
use osn_graph::{par, traversal, NodeId};

/// A deduplicated, canonically ordered batch of unconnected node pairs.
#[derive(Clone, Debug)]
pub struct CandidateSet {
    pairs: Vec<(NodeId, NodeId)>,
}

impl CandidateSet {
    /// Builds the candidate set for `policy` on `snap`.
    ///
    /// * `TwoHop` — unconnected distance-2 pairs.
    /// * `ThreeHop` — unconnected pairs at distance 2 or 3.
    /// * `Global` — `ThreeHop` plus all unconnected pairs touching the
    ///   `top_degree` highest-degree nodes.
    pub fn build(snap: &Snapshot, policy: CandidatePolicy, top_degree: usize) -> Self {
        Self::build_pruned(snap, policy, top_degree, None)
    }

    /// [`build`](Self::build) with optional §6.2 pruning pushed into the
    /// enumeration walks themselves. With `Some` pruning the result equals
    /// post-hoc Table 7 filtering of the unpruned set — same pairs, same
    /// order (property-tested in `linklens-core`) — but rejected pairs are
    /// never materialized or scored.
    pub fn build_pruned(
        snap: &Snapshot,
        policy: CandidatePolicy,
        top_degree: usize,
        prune: Prune<'_>,
    ) -> Self {
        match policy {
            CandidatePolicy::TwoHop => {
                CandidateSet { pairs: traversal::two_hop_pairs(snap, prune, par::max_threads()) }
            }
            CandidatePolicy::ThreeHop => Self::three_hop_from_base(Self::within3_base(snap, prune)),
            CandidatePolicy::Global => {
                Self::global_from_base(snap, Self::within3_base(snap, prune), top_degree, prune)
            }
        }
    }

    /// The distance-≤3 pair enumeration shared by the `ThreeHop` and
    /// `Global` policies. Framework sweeps evaluating both policies build
    /// this once and feed it to [`three_hop_from_base`](Self::three_hop_from_base)
    /// and [`global_from_base`](Self::global_from_base), instead of paying
    /// the bounded-BFS twice per snapshot.
    pub fn within3_base(snap: &Snapshot, prune: Prune<'_>) -> Vec<(NodeId, NodeId)> {
        traversal::within3_pairs(snap, prune, par::max_threads())
    }

    /// Wraps a [`within3_base`](Self::within3_base) enumeration as the
    /// `ThreeHop` candidate set (the base already is that set).
    pub fn three_hop_from_base(base: Vec<(NodeId, NodeId)>) -> Self {
        CandidateSet { pairs: base }
    }

    /// Extends a [`within3_base`](Self::within3_base) enumeration with the
    /// `Global` policy's top-degree hub fan-out, then sorts and dedups.
    /// Hub pairs honor the same pruning as the base so the combined
    /// set still equals post-hoc filtering of the unpruned build.
    pub fn global_from_base(
        snap: &Snapshot,
        mut pairs: Vec<(NodeId, NodeId)>,
        top_degree: usize,
        prune: Prune<'_>,
    ) -> Self {
        let n = snap.node_count();
        let mut by_degree: Vec<NodeId> = (0..n as NodeId).collect();
        by_degree.sort_unstable_by_key(|&u| std::cmp::Reverse(snap.degree(u)));
        let top = &by_degree[..top_degree.min(n)];
        for &h in top {
            // Neighbor lists are sorted ascending, so a single merge
            // pass over `0..n` finds every non-neighbor in
            // O(n + deg h) instead of a per-pair adjacency probe.
            let mut adj = snap.neighbors(h).iter().copied().peekable();
            for v in 0..n as NodeId {
                while adj.next_if(|&a| a < v).is_some() {}
                if adj.peek() == Some(&v) {
                    adj.next();
                    continue;
                }
                if v != h {
                    let (a, b) = osn_graph::canonical(h, v);
                    if prune.is_none_or(|act| act.pair_passes(snap, a, b)) {
                        pairs.push((a, b));
                    }
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        CandidateSet { pairs }
    }

    /// Caps the candidate count: when the set exceeds `max_pairs`, a
    /// deterministic stride subsample is kept (`max_pairs = 0` ⇒
    /// uncapped). This is a documented approximation for supernode-heavy
    /// snapshots whose 2-hop pair count explodes quadratically (the paper
    /// hit the same wall and restricted PA to top-K pairs, §3.2). Chained
    /// after [`build_pruned`](Self::build_pruned), the cap applies *after*
    /// pruning, so rejected pairs never crowd surviving ones out of the
    /// subsample.
    pub fn capped(mut self, max_pairs: usize) -> Self {
        if max_pairs > 0 && self.pairs.len() > max_pairs {
            let stride = self.pairs.len().div_ceil(max_pairs);
            self.pairs = self.pairs.iter().copied().step_by(stride).collect();
        }
        self
    }

    /// Builds from an explicit pair list. The input is repaired to the
    /// invariants [`build`](Self::build) guarantees: self-pairs dropped,
    /// reversed `(v, u)` pairs canonicalized, and — unless the cleaned
    /// list is already strictly ascending, in which case its order is
    /// preserved — sorted and deduplicated.
    pub fn from_pairs(pairs: Vec<(NodeId, NodeId)>) -> Self {
        let mut canon: Vec<(NodeId, NodeId)> = Vec::with_capacity(pairs.len());
        for (a, b) in pairs {
            if a != b {
                canon.push(osn_graph::canonical(a, b));
            }
        }
        if !canon.windows(2).all(|w| w[0] < w[1]) {
            canon.sort_unstable();
            canon.dedup();
        }
        CandidateSet { pairs: canon }
    }

    /// The candidate pairs, canonical and deduplicated.
    pub fn pairs(&self) -> &[(NodeId, NodeId)] {
        &self.pairs
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when no candidates exist.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::activity::{NodeActivity, TemporalFilter};

    /// Path 0-1-2-3-4 plus hub 5 connected to 0.
    fn fixture() -> Snapshot {
        Snapshot::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 5)])
    }

    #[test]
    fn two_hop_set() {
        let s = fixture();
        let c = CandidateSet::build(&s, CandidatePolicy::TwoHop, 0);
        assert!(c.pairs().contains(&(0, 2)));
        assert!(c.pairs().contains(&(1, 5)));
        assert!(!c.pairs().contains(&(0, 3)), "distance 3 excluded");
    }

    #[test]
    fn three_hop_set_is_superset() {
        let s = fixture();
        let two = CandidateSet::build(&s, CandidatePolicy::TwoHop, 0);
        let three = CandidateSet::build(&s, CandidatePolicy::ThreeHop, 0);
        assert!(three.len() > two.len());
        for p in two.pairs() {
            assert!(three.pairs().contains(p));
        }
        assert!(three.pairs().contains(&(0, 3)));
    }

    #[test]
    fn global_adds_hub_pairs() {
        let s = fixture();
        // Node 2 has degree 2; take top-1 by degree. Nodes 0..3 have degrees
        // 2,2,2,2 — ties break by id, so hub = node 0.
        let g = CandidateSet::build(&s, CandidatePolicy::Global, 1);
        // Pair (0,4) is at distance 4: only reachable via the Global policy.
        assert!(g.pairs().contains(&(0, 4)));
    }

    #[test]
    fn global_set_is_deduplicated_and_sorted() {
        let s = fixture();
        let g = CandidateSet::build(&s, CandidatePolicy::Global, 3);
        let mut sorted = g.pairs().to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), g.len(), "duplicates survived");
        assert!(g.pairs().iter().all(|&(u, v)| u < v));
    }

    #[test]
    fn from_pairs_repairs_messy_input() {
        // Reversed pairs, duplicates (including a reversed duplicate),
        // self-pairs, unsorted order — the repaired set must satisfy the
        // build() invariants.
        let messy = vec![(4u32, 1u32), (2, 2), (0, 3), (1, 4), (3, 0), (5, 5), (2, 0)];
        let c = CandidateSet::from_pairs(messy);
        assert_eq!(c.pairs(), &[(0, 2), (0, 3), (1, 4)]);
        assert!(c.pairs().iter().all(|&(u, v)| u < v));
    }

    #[test]
    fn from_pairs_preserves_already_clean_order() {
        // A strictly ascending canonical list passes through untouched
        // (no sort, no reallocation of order).
        let clean = vec![(0u32, 2u32), (0, 5), (1, 3), (2, 7)];
        let c = CandidateSet::from_pairs(clean.clone());
        assert_eq!(c.pairs(), &clean[..]);
    }

    /// Temporal ring + chords for the pruning test.
    fn temporal_fixture() -> Snapshot {
        use osn_graph::temporal::TemporalGraph;
        let n = 30u32;
        let mut g = TemporalGraph::new();
        for _ in 0..n {
            g.add_node(0);
        }
        let mut edges = Vec::new();
        for i in 0..n {
            edges.push(osn_graph::canonical(i, (i + 1) % n));
            if i % 4 == 0 {
                edges.push(osn_graph::canonical(i, (i + 9) % n));
            }
        }
        edges.sort_unstable();
        edges.dedup();
        let mut timed: Vec<(NodeId, NodeId, osn_graph::Timestamp)> = edges
            .into_iter()
            .map(|(a, b)| (a, b, ((a * 13 + b * 7) % n) as osn_graph::Timestamp * osn_graph::DAY))
            .collect();
        timed.sort_by_key(|&(_, _, t)| t);
        for (a, b, t) in timed {
            g.add_edge(a, b, t);
        }
        Snapshot::up_to(&g, g.edge_count())
    }

    fn probe_filter() -> TemporalFilter {
        TemporalFilter {
            active_idle_days: 12.0,
            inactive_idle_days: 22.0,
            window_days: 7.0,
            min_recent_edges: 1,
            cn_gap_days: 15.0,
        }
    }

    #[test]
    fn pruned_build_equals_posthoc_filtering() {
        let s = temporal_fixture();
        let act = NodeActivity::build(&s, &probe_filter());
        for policy in [CandidatePolicy::TwoHop, CandidatePolicy::ThreeHop, CandidatePolicy::Global]
        {
            let full = CandidateSet::build(&s, policy, 4);
            let posthoc: Vec<(NodeId, NodeId)> =
                full.pairs().iter().copied().filter(|&(u, v)| act.pair_passes(&s, u, v)).collect();
            let pruned = CandidateSet::build_pruned(&s, policy, 4, Some(&act));
            assert_eq!(pruned.pairs(), &posthoc[..], "{policy:?}");
            assert!(pruned.len() < full.len(), "{policy:?}: fixture must drop pairs");
            assert!(!pruned.is_empty(), "{policy:?}: fixture must keep pairs");
        }
    }

    #[test]
    fn no_existing_edges_in_candidates() {
        let s = fixture();
        for policy in [CandidatePolicy::TwoHop, CandidatePolicy::ThreeHop, CandidatePolicy::Global]
        {
            let c = CandidateSet::build(&s, policy, 2);
            for &(u, v) in c.pairs() {
                assert!(!s.has_edge(u, v), "{policy:?} contains existing edge ({u},{v})");
            }
        }
    }
}
