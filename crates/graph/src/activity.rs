//! The §6.2 temporal filter and the per-snapshot node-activity table it
//! decides with.
//!
//! The paper's Table 7 filter rejects a candidate pair from four per-pair
//! features: the active node's idle time, the inactive node's idle time,
//! the active node's recent-edge count, and the common-neighbor time gap.
//! [`TemporalFilter`] holds its thresholds. Its [`NodeActivity`] table
//! precomputes the two per-*node* features once per snapshot, so
//! enumeration can drop doomed sources before their frontier is walked
//! and doomed targets the moment they are discovered, and a given pair
//! list is filtered with the same predicate. The CN time gap is the one
//! genuinely per-pair feature, and the two-hop frontier walk already
//! visits every witness — [`crate::traversal::two_hop_pairs`] folds it
//! into its walk at one `max` per 2-path.
//!
//! The table reproduces the per-pair feature expressions *bit-for-bit*:
//! idle days are `(t - last) as f64 / DAY as f64` (the `pair_features`
//! expression), recent counts use the same `t > time - window` strict
//! cutoff as [`Snapshot::recent_edge_count`], and the gap conversion
//! matches `cn_time_gap` days. Pruned enumeration therefore keeps the same
//! pairs, in the same order, as a per-pair feature scan of the unpruned
//! list — property-tested against that scan (the oracle in
//! `linklens_bench::oracles::candidates`) in `linklens-core`'s
//! `prune_equivalence` suite.

use crate::snapshot::Snapshot;
use crate::{NodeId, Timestamp, DAY};
use serde::Serialize;

/// The §6.2 temporal filter: Table 7's thresholds, all durations in days.
///
/// A pair passes when all four criteria hold:
///
/// 1. its active endpoint (the less idle one) has been idle fewer than
///    `active_idle_days` days;
/// 2. its other endpoint has been idle fewer than `inactive_idle_days`;
/// 3. the active endpoint created at least `min_recent_edges` edges in
///    the last `window_days` days;
/// 4. its latest common neighbor arrived fewer than `cn_gap_days` days
///    ago — applied only to pairs that *have* a common neighbor (the
///    paper skips this criterion for pairs beyond 2 hops).
///
/// A bound of `f64::INFINITY` admits every pair, including one whose
/// endpoint has no edge and so is infinitely idle.
///
/// ```
/// use osn_graph::activity::TemporalFilter;
/// let filter = TemporalFilter::renren();
/// assert_eq!(filter.min_recent_edges, 3);
/// assert_eq!(TemporalFilter::for_preset("renren-like"), Some(filter));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct TemporalFilter {
    /// `d_act`: max idle days of the active (less idle) endpoint.
    pub active_idle_days: f64,
    /// `d_inact`: max idle days of the inactive endpoint.
    pub inactive_idle_days: f64,
    /// `d`: the recent-edge window, days.
    pub window_days: f64,
    /// `E_new`: min edges the active endpoint created within the window.
    pub min_recent_edges: usize,
    /// `d_CN`: max days since the latest common-neighbor arrival.
    pub cn_gap_days: f64,
}

/// Optional §6.2 pruning context for the candidate enumerators:
/// `Some(activity)` pushes its filter's criteria into enumeration itself
/// (doomed sources never walk, doomed targets drop at discovery), `None`
/// enumerates the full universe.
pub type Prune<'a> = Option<&'a NodeActivity>;

impl TemporalFilter {
    /// Table 7, Facebook row: 15 / 40 / 21 / 2 / 40.
    pub fn facebook() -> Self {
        TemporalFilter {
            active_idle_days: 15.0,
            inactive_idle_days: 40.0,
            window_days: 21.0,
            min_recent_edges: 2,
            cn_gap_days: 40.0,
        }
    }

    /// Table 7, YouTube row: 3 / 30 / 7 / 3 / 20.
    pub fn youtube() -> Self {
        TemporalFilter {
            active_idle_days: 3.0,
            inactive_idle_days: 30.0,
            window_days: 7.0,
            min_recent_edges: 3,
            cn_gap_days: 20.0,
        }
    }

    /// Table 7, Renren row: 3 / 20 / 7 / 3 / 10.
    pub fn renren() -> Self {
        TemporalFilter {
            active_idle_days: 3.0,
            inactive_idle_days: 20.0,
            window_days: 7.0,
            min_recent_edges: 3,
            cn_gap_days: 10.0,
        }
    }

    /// Picks the Table 7 row matching a trace-preset name
    /// ("facebook-like" / "renren-like" / "youtube-like").
    pub fn for_preset(name: &str) -> Option<Self> {
        if name.contains("facebook") {
            Some(Self::facebook())
        } else if name.contains("renren") {
            Some(Self::renren())
        } else if name.contains("youtube") {
            Some(Self::youtube())
        } else {
            None
        }
    }

    /// The recent-edge window in trace seconds,
    /// `(window_days * DAY) as Timestamp`.
    pub fn window(&self) -> Timestamp {
        (self.window_days * DAY as f64) as Timestamp
    }

    /// The pairs of `pairs` that pass on `snap`, in order: each decided by
    /// [`NodeActivity::pair_passes`] over one table built for `snap`.
    pub fn filter_pairs(
        &self,
        snap: &Snapshot,
        pairs: &[(NodeId, NodeId)],
    ) -> Vec<(NodeId, NodeId)> {
        let act = NodeActivity::build(snap, self);
        pairs.iter().copied().filter(|&(u, v)| act.pair_passes(snap, u, v)).collect()
    }
}

/// Whether `x` is under the strict bound `max`. An infinite bound admits
/// every value, `x = ∞` included.
#[inline]
fn within(x: f64, max: f64) -> bool {
    x < max || max == f64::INFINITY
}

/// Per-node activity features of one snapshot under one filter: idle time
/// and the recent-edge count over the filter's window, computed in a
/// single CSR pass and shared by every enumerator of the snapshot.
pub struct NodeActivity {
    filter: TemporalFilter,
    /// `(time - last_activity) / DAY` as f64; `INFINITY` for never-active
    /// nodes — exactly the `pair_features` idle expression.
    idle_days: Vec<f64>,
    /// Exact [`Snapshot::recent_edge_count`] over the filter's window.
    recent: Vec<u32>,
}

impl NodeActivity {
    /// Builds `filter`'s table for `snap`. One pass over the CSR timestamp
    /// arrays; O(V + E) time and O(V) space.
    pub fn build(snap: &Snapshot, filter: &TemporalFilter) -> Self {
        let n = snap.node_count();
        let t = snap.time();
        let lo = t.saturating_sub(filter.window());
        let mut idle_days = Vec::with_capacity(n);
        let mut recent = Vec::with_capacity(n);
        for u in 0..n {
            let times = snap.neighbor_times(u as NodeId);
            let mut last: Option<Timestamp> = None;
            let mut count = 0u32;
            for &et in times {
                last = Some(last.map_or(et, |l| l.max(et)));
                if et > lo {
                    count += 1;
                }
            }
            idle_days.push(last.map(|l| (t - l) as f64 / DAY as f64).unwrap_or(f64::INFINITY));
            recent.push(count);
        }
        NodeActivity { filter: *filter, idle_days, recent }
    }

    /// Days since `u`'s most recent edge (`INFINITY` if none) — the
    /// `pair_features` idle expression, bit-for-bit.
    #[inline]
    pub fn idle_days(&self, u: NodeId) -> f64 {
        self.idle_days[u as usize]
    }

    /// `u`'s edge count within the filter's window — exactly
    /// [`Snapshot::recent_edge_count`] at that window.
    #[inline]
    pub fn recent_edges(&self, u: NodeId) -> usize {
        self.recent[u as usize] as usize
    }

    /// Whether node `u` can appear in *any* surviving pair. A pair's
    /// active endpoint needs idle `< d_act` and `≥ E_new` recent edges; an
    /// inactive endpoint needs idle `< d_inact`. A node failing both roles
    /// dooms every pair containing it, so enumeration skips its frontier
    /// walk entirely (and drops it as a target of other sources' walks via
    /// [`pair_passes_pre_cn`](Self::pair_passes_pre_cn)).
    #[inline]
    pub fn source_may_pass(&self, u: NodeId) -> bool {
        let f = &self.filter;
        let idle = self.idle_days(u);
        within(idle, f.inactive_idle_days)
            || (within(idle, f.active_idle_days) && self.recent_edges(u) >= f.min_recent_edges)
    }

    /// Criteria 1–3 of Table 7 (everything except the CN gap) for pair
    /// `(u, v)`. The active endpoint is the one with the smaller idle
    /// time, ties picking `u` — the same `iu <= iv` rule as
    /// `pair_features`, so the recent-edge criterion consults the same
    /// node as a per-pair feature scan.
    #[inline]
    pub fn pair_passes_pre_cn(&self, u: NodeId, v: NodeId) -> bool {
        let f = &self.filter;
        let iu = self.idle_days(u);
        let iv = self.idle_days(v);
        let (active, active_idle, inactive_idle) = if iu <= iv { (u, iu, iv) } else { (v, iv, iu) };
        within(active_idle, f.active_idle_days)
            && within(inactive_idle, f.inactive_idle_days)
            && self.recent_edges(active) >= f.min_recent_edges
    }

    /// Criterion 4: whether a CN gap of `gap` seconds (from
    /// [`Snapshot::cn_time_gap`] or a pruned scan's running arrival max)
    /// is fresh enough. Converts to days with the `pair_features`
    /// expression before the strict comparison.
    #[inline]
    pub fn cn_gap_passes(&self, gap: Timestamp) -> bool {
        within(gap as f64 / DAY as f64, self.filter.cn_gap_days)
    }

    /// All four criteria for pair `(u, v)` of `snap`, the snapshot this
    /// table was built for, computing the CN gap from the snapshot. Pairs
    /// without a common neighbor skip criterion 4 (the paper applies it
    /// only within 2 hops).
    pub fn pair_passes(&self, snap: &Snapshot, u: NodeId, v: NodeId) -> bool {
        self.pair_passes_pre_cn(u, v)
            && match snap.cn_time_gap(u, v) {
                Some(g) => self.cn_gap_passes(g),
                None => true,
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temporal::TemporalGraph;

    /// Snapshot at day 30: nodes 0–2 hot, nodes 3–4 cold since day 1,
    /// node 5 bridging both eras.
    fn fixture() -> Snapshot {
        let mut g = TemporalGraph::new();
        for _ in 0..6 {
            g.add_node(0);
        }
        g.add_edge(3, 4, DAY);
        g.add_edge(3, 5, DAY + 1);
        g.add_edge(0, 1, 28 * DAY);
        g.add_edge(1, 2, 29 * DAY);
        g.add_edge(0, 5, 30 * DAY);
        Snapshot::up_to(&g, 5)
    }

    fn filter() -> TemporalFilter {
        TemporalFilter {
            active_idle_days: 3.0,
            inactive_idle_days: 20.0,
            window_days: 7.0,
            min_recent_edges: 2,
            cn_gap_days: 10.0,
        }
    }

    #[test]
    fn idle_and_recent_match_snapshot_expressions() {
        let s = fixture();
        let f = filter();
        let act = NodeActivity::build(&s, &f);
        let t = s.time();
        for u in 0..s.node_count() as NodeId {
            let want_idle = s
                .last_activity(u)
                .map(|last| (t - last) as f64 / DAY as f64)
                .unwrap_or(f64::INFINITY);
            assert_eq!(act.idle_days(u).to_bits(), want_idle.to_bits(), "idle u={u}");
            assert_eq!(act.recent_edges(u), s.recent_edge_count(u, f.window()), "recent u={u}");
        }
    }

    #[test]
    fn never_active_node_is_infinitely_idle() {
        let mut g = TemporalGraph::new();
        for _ in 0..3 {
            g.add_node(0);
        }
        g.add_edge(0, 1, DAY);
        let s = Snapshot::up_to(&g, 1);
        let act = NodeActivity::build(&s, &TemporalFilter { window_days: 1.0, ..filter() });
        assert!(act.idle_days(2).is_infinite());
        assert_eq!(act.recent_edges(2), 0);
    }

    #[test]
    fn source_skip_is_sound() {
        // A node failing `source_may_pass` must fail `pair_passes_pre_cn`
        // against every partner.
        let s = fixture();
        let act = NodeActivity::build(&s, &filter());
        for u in 0..s.node_count() as NodeId {
            if act.source_may_pass(u) {
                continue;
            }
            for v in 0..s.node_count() as NodeId {
                if v != u {
                    assert!(!act.pair_passes_pre_cn(u, v), "u={u} v={v}");
                }
            }
        }
        // And the fixture actually exercises the skip: nodes 3 and 4 are
        // 29 days idle, past every threshold.
        assert!(!act.source_may_pass(3));
        assert!(!act.source_may_pass(4));
        assert!(act.source_may_pass(0));
    }

    #[test]
    fn pair_passes_matches_manual_criteria() {
        let s = fixture();
        let act = NodeActivity::build(&s, &filter());
        // (0,2): node 0 idle 0d with 2 recent edges, node 2 idle 1d, CN
        // gap 1d — survives everything.
        assert!(act.pair_passes(&s, 0, 2));
        // (3,4): both ~29 days idle.
        assert!(!act.pair_passes(&s, 3, 4));
        // (4,5): CN (node 3) arrived day 1 → stale gap even with loose
        // idle thresholds.
        let loose = TemporalFilter {
            active_idle_days: 100.0,
            inactive_idle_days: 100.0,
            window_days: 30.0,
            min_recent_edges: 1,
            cn_gap_days: 10.0,
        };
        assert!(!NodeActivity::build(&s, &loose).pair_passes(&s, 4, 5));
        // (2,5): no common neighbor → criterion 4 skipped.
        let strict_cn = TemporalFilter { cn_gap_days: 0.001, ..loose };
        assert!(NodeActivity::build(&s, &strict_cn).pair_passes(&s, 2, 5));
    }
}
