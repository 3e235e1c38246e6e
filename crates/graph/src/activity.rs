//! Per-snapshot node-activity table and the §6.2 candidate-pruning spec.
//!
//! The paper's Table 7 temporal filters reject a candidate pair from four
//! per-pair features: the active node's idle time, the inactive node's
//! idle time, the active node's recent-edge count, and the
//! common-neighbor time gap. Computing those features *after* enumeration
//! (the post-hoc path in `linklens_core::filters`) pays a timestamp scan
//! per pair per criterion; this module precomputes the two per-*node*
//! features once per snapshot so enumeration itself can drop doomed
//! sources before their frontier is walked and doomed targets the moment
//! they are discovered. The CN time gap is the one genuinely per-pair
//! feature, and the two-hop frontier walk already visits every witness —
//! [`crate::traversal::two_hop_pairs`] folds it into its walk at one
//! `max` per 2-path.
//!
//! Everything here reproduces the post-hoc expressions *bit-for-bit*:
//! idle days are `(t - last) as f64 / DAY as f64` (the `pair_features`
//! expression), recent counts use the same `t > time - window` strict
//! cutoff as [`Snapshot::recent_edge_count`], and the gap conversion
//! matches `cn_time_gap` days. Pruned enumeration is therefore the same
//! *set* as post-hoc filtering, in the same order — property-tested in
//! `linklens-core`'s `prune_equivalence` suite.

use crate::snapshot::Snapshot;
use crate::{NodeId, Timestamp, DAY};

/// Table 7 thresholds in enumeration-ready form. Mirrors
/// `linklens_core::filters::FilterThresholds` field-for-field; the core
/// crate converts via `FilterThresholds::prune_spec`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PruneSpec {
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
/// `Some((activity, spec))` pushes the Table 7 criteria into enumeration
/// itself (doomed sources never walk, doomed targets drop at discovery),
/// `None` enumerates the full universe.
pub type Prune<'a> = Option<(&'a NodeActivity, &'a PruneSpec)>;

impl PruneSpec {
    /// The recent-edge window in trace seconds — the exact conversion the
    /// post-hoc filter applies (`(window_days * DAY) as Timestamp`), so
    /// both paths count the same edges as "recent".
    pub fn window(&self) -> Timestamp {
        (self.window_days * DAY as f64) as Timestamp
    }

    /// Whether node `u` can appear in *any* surviving pair. A pair's
    /// active endpoint needs idle `< d_act` and `≥ E_new` recent edges; an
    /// inactive endpoint needs idle `< d_inact`. A node failing both roles
    /// dooms every pair containing it, so enumeration skips its frontier
    /// walk entirely (and drops it as a target of other sources' walks via
    /// [`pair_passes_pre_cn`](Self::pair_passes_pre_cn)).
    #[inline]
    pub fn source_may_pass(&self, act: &NodeActivity, u: NodeId) -> bool {
        let idle = act.idle_days(u);
        idle < self.inactive_idle_days
            || (idle < self.active_idle_days && act.recent_edges(u) >= self.min_recent_edges)
    }

    /// Criteria 1–3 of Table 7 (everything except the CN gap) for pair
    /// `(u, v)`. The active endpoint is the one with the smaller idle
    /// time, ties picking `u` — the same `iu <= iv` rule as
    /// `pair_features`, so the recent-edge criterion consults the same
    /// node on both paths.
    #[inline]
    pub fn pair_passes_pre_cn(&self, act: &NodeActivity, u: NodeId, v: NodeId) -> bool {
        let iu = act.idle_days(u);
        let iv = act.idle_days(v);
        let (active, active_idle, inactive_idle) = if iu <= iv { (u, iu, iv) } else { (v, iv, iu) };
        active_idle < self.active_idle_days
            && inactive_idle < self.inactive_idle_days
            && act.recent_edges(active) >= self.min_recent_edges
    }

    /// Criterion 4: whether a CN gap of `gap` seconds (from
    /// [`Snapshot::cn_time_gap`] or a pruned scan's running arrival max)
    /// is fresh enough. Converts to days with the post-hoc expression
    /// before the strict comparison.
    #[inline]
    pub fn cn_gap_passes(&self, gap: Timestamp) -> bool {
        (gap as f64 / DAY as f64) < self.cn_gap_days
    }

    /// All four criteria for pair `(u, v)`, computing the CN gap from the
    /// snapshot. Pairs without a common neighbor skip criterion 4 (the
    /// paper applies it only within 2 hops). Used by enumerators that do
    /// not walk witnesses themselves (BFS-based and hub fan-out paths).
    pub fn pair_passes(&self, snap: &Snapshot, act: &NodeActivity, u: NodeId, v: NodeId) -> bool {
        self.pair_passes_pre_cn(act, u, v)
            && match snap.cn_time_gap(u, v) {
                Some(g) => self.cn_gap_passes(g),
                None => true,
            }
    }
}

/// Per-node activity features of one snapshot: idle time and recent-edge
/// count, computed in a single CSR pass and shared by every enumerator of
/// the snapshot.
pub struct NodeActivity {
    window: Timestamp,
    /// `(time - last_activity) / DAY` as f64; `INFINITY` for never-active
    /// nodes — exactly the `pair_features` idle expression.
    idle_days: Vec<f64>,
    /// Exact [`Snapshot::recent_edge_count`] for the build window.
    recent: Vec<u32>,
}

impl NodeActivity {
    /// Builds the table for `snap` with a recent-edge `window` in seconds
    /// (normally [`PruneSpec::window`]). One pass over the CSR timestamp
    /// arrays; O(V + E) time and O(V) space.
    pub fn build(snap: &Snapshot, window: Timestamp) -> Self {
        let n = snap.node_count();
        let t = snap.time();
        let lo = t.saturating_sub(window);
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
        NodeActivity { window, idle_days, recent }
    }

    /// The window this table was built for, in seconds.
    pub fn window(&self) -> Timestamp {
        self.window
    }

    /// Days since `u`'s most recent edge (`INFINITY` if none) — the
    /// `pair_features` idle expression, bit-for-bit.
    #[inline]
    pub fn idle_days(&self, u: NodeId) -> f64 {
        self.idle_days[u as usize]
    }

    /// `u`'s edge count within the build window — exactly
    /// [`Snapshot::recent_edge_count`] at that window.
    #[inline]
    pub fn recent_edges(&self, u: NodeId) -> usize {
        self.recent[u as usize] as usize
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

    fn spec() -> PruneSpec {
        PruneSpec {
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
        let spec = spec();
        let act = NodeActivity::build(&s, spec.window());
        let t = s.time();
        for u in 0..s.node_count() as NodeId {
            let want_idle = s
                .last_activity(u)
                .map(|last| (t - last) as f64 / DAY as f64)
                .unwrap_or(f64::INFINITY);
            assert_eq!(act.idle_days(u).to_bits(), want_idle.to_bits(), "idle u={u}");
            assert_eq!(act.recent_edges(u), s.recent_edge_count(u, spec.window()), "recent u={u}");
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
        let act = NodeActivity::build(&s, DAY);
        assert!(act.idle_days(2).is_infinite());
        assert_eq!(act.recent_edges(2), 0);
    }

    #[test]
    fn source_skip_is_sound() {
        // A node failing `source_may_pass` must fail `pair_passes_pre_cn`
        // against every partner.
        let s = fixture();
        let spec = spec();
        let act = NodeActivity::build(&s, spec.window());
        for u in 0..s.node_count() as NodeId {
            if spec.source_may_pass(&act, u) {
                continue;
            }
            for v in 0..s.node_count() as NodeId {
                if v != u {
                    assert!(!spec.pair_passes_pre_cn(&act, u, v), "u={u} v={v}");
                }
            }
        }
        // And the fixture actually exercises the skip: nodes 3 and 4 are
        // 29 days idle, past every threshold.
        assert!(!spec.source_may_pass(&act, 3));
        assert!(!spec.source_may_pass(&act, 4));
        assert!(spec.source_may_pass(&act, 0));
    }

    #[test]
    fn pair_passes_matches_manual_criteria() {
        let s = fixture();
        let spec = spec();
        let act = NodeActivity::build(&s, spec.window());
        // (0,2): node 0 idle 0d with 2 recent edges, node 2 idle 1d, CN
        // gap 1d — survives everything.
        assert!(spec.pair_passes(&s, &act, 0, 2));
        // (3,4): both ~29 days idle.
        assert!(!spec.pair_passes(&s, &act, 3, 4));
        // (4,5): CN (node 3) arrived day 1 → stale gap even with loose
        // idle thresholds.
        let loose = PruneSpec {
            active_idle_days: 100.0,
            inactive_idle_days: 100.0,
            window_days: 30.0,
            min_recent_edges: 1,
            cn_gap_days: 10.0,
        };
        let act30 = NodeActivity::build(&s, loose.window());
        assert!(!loose.pair_passes(&s, &act30, 4, 5));
        // (2,5): no common neighbor → criterion 4 skipped.
        let strict_cn = PruneSpec { cn_gap_days: 0.001, ..loose };
        assert!(strict_cn.pair_passes(&s, &act30, 2, 5));
    }
}
