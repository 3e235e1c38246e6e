//! Temporal filters (§6.2): prune unlikely-to-connect candidate pairs
//! before any predictor runs.
//!
//! A pair survives only if it satisfies *all four* criteria of Table 7:
//!
//! 1. idle time of the active node `< d_act` days;
//! 2. idle time of the inactive node `< d_inact` days;
//! 3. the active node created `≥ E_new` edges in the last `d` days;
//! 4. the common-neighbor time gap `< d_CN` days — applied only to pairs
//!    that *have* a common neighbor (the paper skips this criterion for
//!    pairs beyond 2 hops).

use crate::temporal::{pair_features, percentile};
use osn_graph::activity::PruneSpec;
use osn_graph::snapshot::Snapshot;
use osn_graph::{NodeId, Timestamp, DAY};
use serde::Serialize;

/// Table 7 threshold set (all durations in days).
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct FilterThresholds {
    /// `d_act`: max idle days of the active node.
    pub active_idle_days: f64,
    /// `d_inact`: max idle days of the inactive node.
    pub inactive_idle_days: f64,
    /// `d`: the recent-edge window, days.
    pub window_days: f64,
    /// `E_new`: min edges the active node created within the window.
    pub min_recent_edges: usize,
    /// `d_CN`: max days since the last common-neighbor arrival.
    pub cn_gap_days: f64,
}

impl FilterThresholds {
    /// Table 7, Facebook row: 15 / 40 / 21 / 2 / 40.
    pub fn facebook() -> Self {
        FilterThresholds {
            active_idle_days: 15.0,
            inactive_idle_days: 40.0,
            window_days: 21.0,
            min_recent_edges: 2,
            cn_gap_days: 40.0,
        }
    }

    /// Table 7, YouTube row: 3 / 30 / 7 / 3 / 20.
    pub fn youtube() -> Self {
        FilterThresholds {
            active_idle_days: 3.0,
            inactive_idle_days: 30.0,
            window_days: 7.0,
            min_recent_edges: 3,
            cn_gap_days: 20.0,
        }
    }

    /// Table 7, Renren row: 3 / 20 / 7 / 3 / 10.
    pub fn renren() -> Self {
        FilterThresholds {
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

    /// These thresholds in enumeration-ready form, for pushing the filter
    /// into candidate enumeration ([`osn_graph::activity`]). The spec
    /// carries the same five fields; pruned enumeration with it equals
    /// post-hoc [`TemporalFilter::filter_pairs`] bit-for-bit.
    pub fn prune_spec(&self) -> PruneSpec {
        PruneSpec {
            active_idle_days: self.active_idle_days,
            inactive_idle_days: self.inactive_idle_days,
            window_days: self.window_days,
            min_recent_edges: self.min_recent_edges,
            cn_gap_days: self.cn_gap_days,
        }
    }
}

/// Pooled temporal features of positive pairs across a snapshot sweep —
/// the empirical CDFs behind §6.2's threshold choice, kept as raw samples
/// so thresholds can be re-derived at any retention quantile.
///
/// Feed it each transition's positives measured on that transition's own
/// observed snapshot ([`observe`](Self::observe)), then read thresholds at
/// a retention quantile `q` ([`thresholds_at`](Self::thresholds_at)).
///
/// `q = 1.0` gives the tightest thresholds that retain every observed
/// positive: the maximum-pruning point of §6.2's trade-off that provably
/// cannot cost accuracy. All four criteria are monotone in their
/// thresholds, so the component-wise extrema of the positives' features
/// (max idle times and CN gap, min recent-edge count) are simultaneously
/// feasible and tightest: any stricter setting rejects some positive.
/// Retaining every positive makes top-k hits per transition no worse than
/// unpruned: surviving pairs keep identical scores and pair-seeded
/// tie-break keys, so pruning only removes competitors (up to 64-bit
/// jitter collisions). Lower `q` trades a `1 − q` tail of
/// temporal-outlier positives for more pruning, the paper's actual
/// operating point.
#[derive(Clone, Debug, Default)]
pub struct PositiveFeatureStats {
    act: Vec<f64>,
    inact: Vec<f64>,
    recent: Vec<f64>,
    gap: Vec<f64>,
    window_days: f64,
}

impl PositiveFeatureStats {
    /// Empty pool using `window_days` for the recent-edge feature.
    pub fn new(window_days: f64) -> Self {
        PositiveFeatureStats { window_days, ..Default::default() }
    }

    /// Adds one transition's positives, measured on its observed snapshot.
    pub fn observe(&mut self, snap: &Snapshot, positives: &[(NodeId, NodeId)]) {
        let window = (self.window_days * DAY as f64) as Timestamp;
        for &(u, v) in positives {
            let f = pair_features(snap, u, v, window);
            self.act.push(f.active_idle_days);
            self.inact.push(f.inactive_idle_days);
            self.recent.push(f.recent_edges_active as f64);
            if let Some(g) = f.cn_gap_days {
                self.gap.push(g);
            }
        }
    }

    /// Number of pooled positive samples.
    pub fn len(&self) -> usize {
        self.act.len()
    }

    /// Whether no positives have been observed yet.
    pub fn is_empty(&self) -> bool {
        self.act.is_empty()
    }

    /// Thresholds retaining roughly the `q` fraction of pooled positives
    /// per criterion: idle/gap bounds at the `q` quantile, the recent-edge
    /// floor at the `1 − q` quantile. `None` until something was observed.
    pub fn thresholds_at(&self, q: f64) -> Option<FilterThresholds> {
        if self.is_empty() {
            return None;
        }
        // A hair above the quantile converts the strict `>=`-rejects
        // criteria into "the quantile sample itself is retained".
        let above = |d: f64| d + d.abs() * 1e-9 + 1e-6;
        Some(FilterThresholds {
            active_idle_days: above(percentile(&self.act, q)),
            inactive_idle_days: above(percentile(&self.inact, q)),
            window_days: self.window_days,
            min_recent_edges: percentile(&self.recent, 1.0 - q).floor().max(0.0) as usize,
            // No CN-having positives → the gap criterion is unconstrained;
            // stay conservative rather than rejecting every CN pair.
            cn_gap_days: if self.gap.is_empty() {
                36_500.0
            } else {
                above(percentile(&self.gap, q))
            },
        })
    }
}

/// A configured temporal filter.
///
/// ```
/// use linklens_core::filters::{FilterThresholds, TemporalFilter};
/// let filter = TemporalFilter::new(FilterThresholds::renren());
/// assert_eq!(filter.thresholds.min_recent_edges, 3);
/// ```
#[derive(Clone, Copy, Debug, Serialize)]
pub struct TemporalFilter {
    /// The thresholds in force.
    pub thresholds: FilterThresholds,
}

impl TemporalFilter {
    /// Wraps a threshold set.
    pub fn new(thresholds: FilterThresholds) -> Self {
        TemporalFilter { thresholds }
    }

    /// Whether a candidate pair survives all four criteria on `snap`.
    pub fn passes(&self, snap: &Snapshot, u: NodeId, v: NodeId) -> bool {
        let th = &self.thresholds;
        let window = (th.window_days * DAY as f64) as Timestamp;
        let f = pair_features(snap, u, v, window);
        if f.active_idle_days >= th.active_idle_days {
            return false;
        }
        if f.inactive_idle_days >= th.inactive_idle_days {
            return false;
        }
        if f.recent_edges_active < th.min_recent_edges {
            return false;
        }
        match f.cn_gap_days {
            Some(g) if g >= th.cn_gap_days => false,
            // Pairs beyond 2 hops skip the CN criterion (paper footnote 5).
            _ => true,
        }
    }

    /// The thresholds in enumeration-ready form; see
    /// [`FilterThresholds::prune_spec`].
    pub fn prune_spec(&self) -> PruneSpec {
        self.thresholds.prune_spec()
    }

    /// Filters a caller-chosen pair list, preserving order. Production
    /// calls it where the pairs are not enumerated here: the sampled
    /// evaluator's sampled universe (`sampling`) and the classifier's
    /// labelled training and test pairs (`classify`). The post-hoc oracle
    /// the pruned enumeration is property-tested against is the
    /// candidate function in `linklens_bench::oracles`, which builds the
    /// full candidate set and calls this.
    pub fn filter_pairs(
        &self,
        snap: &Snapshot,
        pairs: &[(NodeId, NodeId)],
    ) -> Vec<(NodeId, NodeId)> {
        pairs.iter().copied().filter(|&(u, v)| self.passes(snap, u, v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::temporal::TemporalGraph;

    /// Snapshot at day 30 with: a hot pair (0,1)-ish neighborhood where
    /// nodes 0 and 2 are recently active with a fresh common neighbor, and
    /// a cold region (nodes 3,4) idle since day 1.
    fn fixture() -> Snapshot {
        let mut g = TemporalGraph::new();
        for _ in 0..6 {
            g.add_node(0);
        }
        g.add_edge(3, 4, DAY); // cold edge, day 1
        g.add_edge(3, 5, DAY + 1); // gives (4,5) a stale common neighbor
        g.add_edge(0, 1, 28 * DAY); // hot
        g.add_edge(1, 2, 29 * DAY); // hot; (0,2) common neighbor 1 @ day 29
        g.add_edge(0, 5, 30 * DAY); // hot, keeps node 0 busy (2 recent edges)
        Snapshot::up_to(&g, 5)
    }

    fn tight() -> TemporalFilter {
        TemporalFilter::new(FilterThresholds {
            active_idle_days: 3.0,
            inactive_idle_days: 20.0,
            window_days: 7.0,
            min_recent_edges: 2,
            cn_gap_days: 10.0,
        })
    }

    #[test]
    fn hot_pair_passes() {
        let s = fixture();
        // (0,2): active node 0 idle 0d, inactive node 2 idle 1d; node 0 has
        // edges at days 28 and 30 in window (23,30] → 2; CN gap = 1d.
        assert!(tight().passes(&s, 0, 2));
    }

    #[test]
    fn cold_pair_fails_on_idle() {
        let s = fixture();
        // (3,4): both idle ~29 days.
        assert!(!tight().passes(&s, 3, 4));
    }

    #[test]
    fn stale_cn_gap_fails() {
        let s = fixture();
        // (4,5): node 5 active day 30 (idle 0), node 4 idle 29d → fails
        // inactive criterion already; loosen it to isolate the CN check.
        let f = TemporalFilter::new(FilterThresholds {
            active_idle_days: 100.0,
            inactive_idle_days: 100.0,
            window_days: 30.0,
            min_recent_edges: 1,
            cn_gap_days: 10.0,
        });
        // CN of (4,5) is node 3, arrived day 1 → gap 29d ≥ 10 → reject.
        assert!(!f.passes(&s, 4, 5));
    }

    #[test]
    fn pairs_without_cn_skip_that_criterion() {
        let s = fixture();
        let f = TemporalFilter::new(FilterThresholds {
            active_idle_days: 100.0,
            inactive_idle_days: 100.0,
            window_days: 30.0,
            min_recent_edges: 1,
            cn_gap_days: 0.001, // would reject everything with a CN
        });
        // (2,5): neighbors {1} and {3,0} — no common neighbor → criterion
        // skipped; everything else passes.
        assert!(f.passes(&s, 2, 5));
    }

    #[test]
    fn recent_edge_criterion() {
        let s = fixture();
        let f = TemporalFilter::new(FilterThresholds {
            active_idle_days: 100.0,
            inactive_idle_days: 100.0,
            window_days: 7.0,
            min_recent_edges: 2,
            cn_gap_days: 100.0,
        });
        // (1,5): active node is 5 (idle 0) or 1 (idle 1)? Node 5's edges:
        // day 1 (3-5) and day 30 → idle 0; node 1: days 28,29 → idle 1.
        // Active = 5 with 1 edge in (23,30] → fails min 2.
        assert!(!f.passes(&s, 1, 5));
        // (0,2): node 0 has 2 recent → passes.
        assert!(f.passes(&s, 0, 2));
    }

    #[test]
    fn filter_pairs_preserves_order_and_drops() {
        let s = fixture();
        let kept = tight().filter_pairs(&s, &[(3, 4), (0, 2), (4, 5)]);
        assert_eq!(kept, vec![(0, 2)]);
    }

    #[test]
    fn table7_presets_match_paper() {
        let fb = FilterThresholds::facebook();
        assert_eq!(fb.active_idle_days, 15.0);
        assert_eq!(fb.min_recent_edges, 2);
        let rr = FilterThresholds::renren();
        assert_eq!(rr.cn_gap_days, 10.0);
        let yt = FilterThresholds::youtube();
        assert_eq!(yt.inactive_idle_days, 30.0);
        assert_eq!(FilterThresholds::for_preset("renren-like"), Some(rr));
        assert!(FilterThresholds::for_preset("mystery").is_none());
    }

    #[test]
    fn prune_spec_predicate_matches_passes() {
        use osn_graph::activity::NodeActivity;
        let s = fixture();
        for f in [
            tight(),
            TemporalFilter::new(FilterThresholds::facebook()),
            TemporalFilter::new(FilterThresholds::renren()),
            TemporalFilter::new(FilterThresholds::youtube()),
        ] {
            let spec = f.prune_spec();
            let act = NodeActivity::build(&s, spec.window());
            for u in 0..s.node_count() as NodeId {
                for v in (u + 1)..s.node_count() as NodeId {
                    assert_eq!(
                        spec.pair_passes(&s, &act, u, v),
                        f.passes(&s, u, v),
                        "({u},{v}) under {:?}",
                        f.thresholds
                    );
                }
            }
        }
    }

    #[test]
    fn feature_stats_full_quantile_retains_everything_and_tightens_monotonically() {
        let s = fixture();
        let positives = vec![(0, 2), (1, 5)];
        let mut stats = PositiveFeatureStats::new(7.0);
        assert!(stats.thresholds_at(1.0).is_none(), "no observations yet");
        stats.observe(&s, &positives);
        assert_eq!(stats.len(), 2);
        let full = stats.thresholds_at(1.0).expect("observed");
        assert_eq!(
            TemporalFilter::new(full).filter_pairs(&s, &positives),
            positives,
            "q = 1.0 must retain every observed positive"
        );
        // And it is tight: a bound at the worst positive's feature, or a
        // recent-edge floor one higher, rejects some positive.
        let worst_inact = positives
            .iter()
            .map(|&(u, v)| {
                pair_features(&s, u, v, (7.0 * DAY as f64) as Timestamp).inactive_idle_days
            })
            .fold(0.0, f64::max);
        let mut at_worst = full;
        at_worst.inactive_idle_days = worst_inact;
        assert!(
            TemporalFilter::new(at_worst).filter_pairs(&s, &positives).len() < positives.len(),
            "bound at the worst positive's feature must reject it (strict criterion)"
        );
        let mut more_recent = full;
        more_recent.min_recent_edges += 1;
        assert!(
            TemporalFilter::new(more_recent).filter_pairs(&s, &positives).len() < positives.len()
        );
        let tighter = stats.thresholds_at(0.5).expect("observed");
        assert!(tighter.active_idle_days <= full.active_idle_days);
        assert!(tighter.inactive_idle_days <= full.inactive_idle_days);
        assert!(tighter.cn_gap_days <= full.cn_gap_days);
        assert!(tighter.min_recent_edges >= full.min_recent_edges);
    }
}
