//! Temporal filters (§6.2): prune unlikely-to-connect candidate pairs
//! before any predictor runs.
//!
//! The filter itself, [`TemporalFilter`] with Table 7's rows as its
//! constructors, lives in [`osn_graph::activity`] beside the per-snapshot
//! [`NodeActivity`](osn_graph::activity::NodeActivity) table that decides
//! it, both inside candidate enumeration and over a given pair list
//! ([`TemporalFilter::filter_pairs`]). This module re-exports it and adds
//! [`PositiveFeatureStats`], which derives thresholds from the positives a
//! trace shows.

use crate::temporal::{pair_features, percentile};
use osn_graph::snapshot::Snapshot;
use osn_graph::{NodeId, Timestamp, DAY};

/// The §6.2 filter, re-exported from [`osn_graph::activity`].
///
/// ```
/// use linklens_core::filters::TemporalFilter;
/// let filter = TemporalFilter::renren();
/// assert_eq!(filter.min_recent_edges, 3);
/// ```
pub use osn_graph::activity::TemporalFilter;

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
    ///
    /// A positive with an endpoint that had no edge yet is infinitely
    /// idle. Where such a positive is the quantile sample, the bound is
    /// `f64::INFINITY`, which admits every pair.
    pub fn thresholds_at(&self, q: f64) -> Option<TemporalFilter> {
        if self.is_empty() {
            return None;
        }
        // A hair above the quantile converts the strict `>=`-rejects
        // criteria into "the quantile sample itself is retained".
        let above = |d: f64| d + d.abs() * 1e-9 + 1e-6;
        Some(TemporalFilter {
            active_idle_days: above(percentile(&self.act, q)),
            inactive_idle_days: above(percentile(&self.inact, q)),
            window_days: self.window_days,
            min_recent_edges: percentile(&self.recent, 1.0 - q).floor().max(0.0) as usize,
            // No CN-having positives → the gap criterion is unconstrained;
            // stay conservative rather than rejecting every CN pair.
            cn_gap_days: if self.gap.is_empty() {
                f64::INFINITY
            } else {
                above(percentile(&self.gap, q))
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::temporal::TemporalGraph;

    /// Snapshot at day 30 with: a hot pair (0,1)-ish neighborhood where
    /// nodes 0 and 2 are recently active with a fresh common neighbor, a
    /// cold region (nodes 3,4) idle since day 1, and node 6, which never
    /// gains an edge.
    fn fixture() -> Snapshot {
        let mut g = TemporalGraph::new();
        for _ in 0..7 {
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
        TemporalFilter {
            active_idle_days: 3.0,
            inactive_idle_days: 20.0,
            window_days: 7.0,
            min_recent_edges: 2,
            cn_gap_days: 10.0,
        }
    }

    /// Whether `filter` keeps `(u, v)` on `s`.
    fn keeps(filter: &TemporalFilter, s: &Snapshot, u: NodeId, v: NodeId) -> bool {
        filter.filter_pairs(s, &[(u, v)]) == [(u, v)]
    }

    #[test]
    fn hot_pair_passes() {
        let s = fixture();
        // (0,2): active node 0 idle 0d, inactive node 2 idle 1d; node 0 has
        // edges at days 28 and 30 in window (23,30] → 2; CN gap = 1d.
        assert!(keeps(&tight(), &s, 0, 2));
    }

    #[test]
    fn cold_pair_fails_on_idle() {
        let s = fixture();
        // (3,4): both idle ~29 days.
        assert!(!keeps(&tight(), &s, 3, 4));
    }

    #[test]
    fn stale_cn_gap_fails() {
        let s = fixture();
        // (4,5): node 5 active day 30 (idle 0), node 4 idle 29d → fails
        // inactive criterion already; loosen it to isolate the CN check.
        let f = TemporalFilter {
            active_idle_days: 100.0,
            inactive_idle_days: 100.0,
            window_days: 30.0,
            min_recent_edges: 1,
            cn_gap_days: 10.0,
        };
        // CN of (4,5) is node 3, arrived day 1 → gap 29d ≥ 10 → reject.
        assert!(!keeps(&f, &s, 4, 5));
    }

    #[test]
    fn pairs_without_cn_skip_that_criterion() {
        let s = fixture();
        let f = TemporalFilter {
            active_idle_days: 100.0,
            inactive_idle_days: 100.0,
            window_days: 30.0,
            min_recent_edges: 1,
            cn_gap_days: 0.001, // would reject everything with a CN
        };
        // (2,5): neighbors {1} and {3,0} — no common neighbor → criterion
        // skipped; everything else passes.
        assert!(keeps(&f, &s, 2, 5));
    }

    #[test]
    fn recent_edge_criterion() {
        let s = fixture();
        let f = TemporalFilter {
            active_idle_days: 100.0,
            inactive_idle_days: 100.0,
            window_days: 7.0,
            min_recent_edges: 2,
            cn_gap_days: 100.0,
        };
        // (1,5): active node is 5 (idle 0) or 1 (idle 1)? Node 5's edges:
        // day 1 (3-5) and day 30 → idle 0; node 1: days 28,29 → idle 1.
        // Active = 5 with 1 edge in (23,30] → fails min 2.
        assert!(!keeps(&f, &s, 1, 5));
        // (0,2): node 0 has 2 recent → passes.
        assert!(keeps(&f, &s, 0, 2));
    }

    #[test]
    fn filter_pairs_preserves_order_and_drops() {
        let s = fixture();
        let kept = tight().filter_pairs(&s, &[(3, 4), (0, 2), (4, 5), (0, 6)]);
        assert_eq!(kept, vec![(0, 2)]);
        // An infinite inactive bound admits the never-active node 6 as a
        // pair's inactive endpoint. The active endpoint must still pass:
        // node 2 has one recent edge, under the floor of 2.
        let open = TemporalFilter { inactive_idle_days: f64::INFINITY, ..tight() };
        let kept = open.filter_pairs(&s, &[(0, 6), (3, 4), (0, 2), (2, 6)]);
        assert_eq!(kept, vec![(0, 6), (0, 2)]);
    }

    #[test]
    fn table7_presets_match_paper() {
        let fb = TemporalFilter::facebook();
        assert_eq!(fb.active_idle_days, 15.0);
        assert_eq!(fb.min_recent_edges, 2);
        let rr = TemporalFilter::renren();
        assert_eq!(rr.cn_gap_days, 10.0);
        let yt = TemporalFilter::youtube();
        assert_eq!(yt.inactive_idle_days, 30.0);
        assert_eq!(TemporalFilter::for_preset("renren-like"), Some(rr));
        assert!(TemporalFilter::for_preset("mystery").is_none());
    }

    #[test]
    fn feature_stats_full_quantile_retains_everything_and_tightens_monotonically() {
        let s = fixture();
        // (0,6): node 6 never gained an edge, so the pair's inactive idle
        // time is infinite.
        let positives = vec![(0, 2), (1, 5), (0, 6)];
        let mut stats = PositiveFeatureStats::new(7.0);
        assert!(stats.thresholds_at(1.0).is_none(), "no observations yet");
        stats.observe(&s, &positives);
        assert_eq!(stats.len(), 3);
        let full = stats.thresholds_at(1.0).expect("observed");
        assert_eq!(full.inactive_idle_days, f64::INFINITY);
        assert_eq!(
            full.filter_pairs(&s, &positives),
            positives,
            "q = 1.0 must retain every observed positive"
        );
        // And it is tight on every finite feature: a bound at the worst
        // positive's feature, or a recent-edge floor one higher, rejects
        // some positive.
        let features: Vec<_> = positives
            .iter()
            .map(|&(u, v)| pair_features(&s, u, v, (7.0 * DAY as f64) as Timestamp))
            .collect();
        let worst_act = features.iter().map(|f| f.active_idle_days).fold(0.0, f64::max);
        let worst_gap = features.iter().filter_map(|f| f.cn_gap_days).fold(0.0, f64::max);
        for at_worst in [
            TemporalFilter { active_idle_days: worst_act, ..full },
            TemporalFilter { cn_gap_days: worst_gap, ..full },
        ] {
            assert!(
                at_worst.filter_pairs(&s, &positives).len() < positives.len(),
                "a bound at the worst positive's feature must reject it (strict criterion)"
            );
        }
        let more_recent = TemporalFilter { min_recent_edges: full.min_recent_edges + 1, ..full };
        assert!(more_recent.filter_pairs(&s, &positives).len() < positives.len());
        let tighter = stats.thresholds_at(0.5).expect("observed");
        assert!(tighter.active_idle_days <= full.active_idle_days);
        assert!(tighter.inactive_idle_days <= full.inactive_idle_days);
        assert!(tighter.cn_gap_days <= full.cn_gap_days);
        assert!(tighter.min_recent_edges >= full.min_recent_edges);
    }
}
