//! Temporal properties of edge creation (§6.1, Figures 8 and 13–15).

use osn_graph::sequence::SnapshotSequence;
use osn_graph::snapshot::Snapshot;
use osn_graph::{NodeId, Timestamp, DAY};
use std::collections::HashSet;

/// Positive and negative pair sets, as returned by
/// [`positive_negative_pairs`].
pub type PairSets = (Vec<(NodeId, NodeId)>, Vec<(NodeId, NodeId)>);

/// Per-pair temporal features, measured on the *observed* snapshot (all in
/// days relative to the snapshot time).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PairTemporalFeatures {
    /// Idle time of the more recently active endpoint ("active node").
    /// `f64::INFINITY` for never-active nodes.
    pub active_idle_days: f64,
    /// Idle time of the less recently active endpoint ("inactive node").
    pub inactive_idle_days: f64,
    /// Edges the active node created within the feature window.
    pub recent_edges_active: usize,
    /// Days since the pair last gained a common neighbor (`None` when the
    /// pair has no common neighbor — i.e. is beyond 2 hops).
    pub cn_gap_days: Option<f64>,
}

/// Measures [`PairTemporalFeatures`] for a pair on a snapshot, counting
/// recent edges within `window` (trace seconds).
pub fn pair_features(
    snap: &Snapshot,
    u: NodeId,
    v: NodeId,
    window: Timestamp,
) -> PairTemporalFeatures {
    let t = snap.time();
    let idle = |x: NodeId| {
        snap.last_activity(x).map(|last| (t - last) as f64 / DAY as f64).unwrap_or(f64::INFINITY)
    };
    let (iu, iv) = (idle(u), idle(v));
    // "Active" = smaller idle time; ties pick u.
    let (active, active_idle, inactive_idle) = if iu <= iv { (u, iu, iv) } else { (v, iv, iu) };
    PairTemporalFeatures {
        active_idle_days: active_idle,
        inactive_idle_days: inactive_idle,
        recent_edges_active: snap.recent_edge_count(active, window),
        cn_gap_days: snap.cn_time_gap(u, v).map(|g| g as f64 / DAY as f64),
    }
}

/// Builds the §6.1 measurement sets for transition `t` from its observed
/// snapshot `prev = G_{t-1}`: positive pairs (the ground-truth new edges
/// of `G_t` among `G_{t-1}` nodes) and up to `negative_cap` negative pairs
/// (unconnected pairs that do *not* connect), drawn deterministically from
/// `seed`.
pub fn positive_negative_pairs(
    seq: &SnapshotSequence<'_>,
    prev: &Snapshot,
    t: usize,
    negative_cap: usize,
    seed: u64,
) -> PairSets {
    assert!(t >= 1 && t < seq.len());
    debug_assert_eq!(prev.prefix_len(), seq.boundary(t - 1));
    let positives = seq.new_edges(t);
    let pos_set: HashSet<(NodeId, NodeId)> = positives.iter().copied().collect();

    let n = prev.node_count() as u64;
    let mut negatives = Vec::with_capacity(negative_cap);
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut draws = 0usize;
    while negatives.len() < negative_cap && draws < negative_cap * 50 {
        draws += 1;
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = osn_graph::mix64(state);
        let u = (z % n) as NodeId;
        let v = ((z >> 32) % n) as NodeId;
        if u == v {
            continue;
        }
        let pair = osn_graph::canonical(u, v);
        if !prev.has_edge(pair.0, pair.1) && !pos_set.contains(&pair) {
            negatives.push(pair);
        }
    }
    (positives, negatives)
}

/// Fraction of `values` strictly below `threshold` — reads a CDF point the
/// way the paper quotes them ("more than 90% of positive node pairs have
/// < 3 days idle time").
pub fn fraction_below(values: &[f64], threshold: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().filter(|&&v| v < threshold).count() as f64 / values.len() as f64
}

/// Nearest-rank percentile (q ∈ \[0,1\]) of unsorted values; infinite values
/// participate. Returns 0 for empty input.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::temporal::TemporalGraph;

    fn staggered() -> TemporalGraph {
        let mut g = TemporalGraph::new();
        for _ in 0..6 {
            g.add_node(0);
        }
        g.add_edge(0, 1, DAY); // day 1
        g.add_edge(1, 2, 2 * DAY); // day 2
        g.add_edge(2, 3, 5 * DAY); // day 5
        g.add_edge(0, 2, 10 * DAY); // day 10 = snapshot time
        g
    }

    #[test]
    fn pair_features_pick_active_side() {
        let g = staggered();
        let s = Snapshot::up_to(&g, 4);
        // Node 0 last active day 10, node 3 last active day 5.
        let f = pair_features(&s, 0, 3, 7 * DAY);
        assert_eq!(f.active_idle_days, 0.0);
        assert_eq!(f.inactive_idle_days, 5.0);
        // Active node (0) created edges at day 1 and day 10; window (3,10]:
        // only the day-10 edge counts.
        assert_eq!(f.recent_edges_active, 1);
    }

    #[test]
    fn pair_features_cn_gap() {
        let g = staggered();
        let s = Snapshot::up_to(&g, 4);
        // Pair (1,3): common neighbor 2 via edges day2 + day5 → arrived day
        // 5 → gap 5 days.
        let f = pair_features(&s, 1, 3, 7 * DAY);
        assert_eq!(f.cn_gap_days, Some(5.0));
        // Pair (0,3)… CN = 2 via day10/day5 → arrived day 10 → gap 0.
        assert_eq!(pair_features(&s, 0, 3, DAY).cn_gap_days, Some(0.0));
    }

    #[test]
    fn isolated_node_idles_forever() {
        let g = staggered();
        let s = Snapshot::up_to(&g, 4);
        let f = pair_features(&s, 4, 5, DAY);
        assert!(f.active_idle_days.is_infinite());
        assert!(f.cn_gap_days.is_none());
    }

    #[test]
    fn positive_negative_sets_are_disjoint_and_valid() {
        let mut g = TemporalGraph::new();
        for _ in 0..20 {
            g.add_node(0);
        }
        let mut t = DAY;
        for i in 0..19u32 {
            g.add_edge(i, i + 1, t);
            t += DAY / 4;
        }
        let seq = osn_graph::sequence::SnapshotSequence::by_edge_delta(&g, 9);
        let prev = seq.snapshot(0);
        let (pos, neg) = positive_negative_pairs(&seq, &prev, 1, 30, 7);
        let pos_set: HashSet<_> = pos.iter().collect();
        for p in &neg {
            assert!(!pos_set.contains(p), "negative duplicates a positive");
            assert!(!prev.has_edge(p.0, p.1), "negative is an existing edge");
        }
        assert!(!neg.is_empty());
    }

    #[test]
    fn fraction_below_counts_strictly() {
        let v = vec![1.0, 2.0, 3.0, f64::INFINITY];
        assert_eq!(fraction_below(&v, 3.0), 0.5);
        assert_eq!(fraction_below(&v, 100.0), 0.75);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = vec![10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 0.5), 20.0);
        assert_eq!(percentile(&v, 0.9), 40.0);
        assert_eq!(percentile(&v, 0.25), 10.0);
    }
}
