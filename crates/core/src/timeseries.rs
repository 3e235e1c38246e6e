//! Time-series-based link prediction (§6.3 comparison baseline, after da
//! Silva Soares & Prudêncio \[10\]).
//!
//! For each candidate pair, the metric score is measured at `window`
//! equally spaced past snapshots and aggregated into a final score:
//!
//! * **Moving Average (MA)** — the mean of the series (the paper finds MA
//!   the stronger of the two and plots it as "Time Model");
//! * **Linear Regression (LR)** — fit `score ~ a + b·step` and extrapolate
//!   one step past the observed snapshot.

use osn_graph::builder::SnapshotBuilder;
use osn_graph::sequence::SnapshotSequence;
use osn_graph::{par, NodeId};
use osn_metrics::exec;
use osn_metrics::traits::Metric;

/// Series aggregation method.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Aggregation {
    /// Mean of the past scores.
    MovingAverage,
    /// Least-squares extrapolation to the next step.
    LinearRegression,
}

/// A time-series wrapper around any metric.
#[derive(Clone, Copy, Debug)]
pub struct TimeSeriesPredictor {
    /// Number of past snapshots to aggregate (including the observed one).
    pub window: usize,
    /// Aggregation method.
    pub aggregation: Aggregation,
}

impl Default for TimeSeriesPredictor {
    fn default() -> Self {
        TimeSeriesPredictor { window: 4, aggregation: Aggregation::MovingAverage }
    }
}

impl TimeSeriesPredictor {
    /// Scores `pairs` for the transition predicting snapshot `t`: the
    /// series runs over snapshots `t-window .. t-1` (clamped at the start
    /// of the sequence; the window shrinks near the beginning).
    ///
    /// # Panics
    /// Panics unless `1 <= t < seq.len()` and the window is ≥ 1.
    pub fn score_pairs(
        &self,
        seq: &SnapshotSequence<'_>,
        metric: &dyn Metric,
        t: usize,
        pairs: &[(NodeId, NodeId)],
    ) -> Vec<f64> {
        assert!(self.window >= 1, "window must be at least 1");
        assert!(t >= 1 && t < seq.len(), "transition out of range");
        let last = t - 1; // the observed snapshot index
        let first = last.saturating_sub(self.window - 1);
        let mut series: Vec<Vec<f64>> = Vec::with_capacity(last - first + 1);
        // The window's snapshots are consecutive boundaries, so one
        // incremental arena walks them instead of rebuilding each CSR.
        let mut builder = SnapshotBuilder::new(seq.trace());
        for s in first..=last {
            // linklens-allow(unwrap-in-lib): a slice read does no I/O, and TemporalGraph::add_edge drops repeated pairs
            let snap = builder.advance_to(seq.boundary(s)).expect("an in-core advance cannot fail");
            // Nodes may not exist yet in earlier snapshots: such scores are
            // 0 (no structure → no similarity), matching the metric's
            // zero-for-unknown semantics.
            let n = snap.node_count() as NodeId;
            let valid: Vec<(NodeId, NodeId)> =
                pairs.iter().copied().filter(|&(u, v)| u < n && v < n).collect();
            let valid_scores = exec::score_pairs_t(metric, snap, &valid, par::max_threads());
            let mut scores = vec![0.0; pairs.len()];
            let mut vi = 0;
            for (i, &(u, v)) in pairs.iter().enumerate() {
                if u < n && v < n {
                    scores[i] = valid_scores[vi];
                    vi += 1;
                }
            }
            series.push(scores);
        }
        let w = series.len();
        (0..pairs.len())
            .map(|i| {
                let ys: Vec<f64> = series.iter().map(|s| s[i]).collect();
                match self.aggregation {
                    Aggregation::MovingAverage => ys.iter().sum::<f64>() / w as f64,
                    Aggregation::LinearRegression => extrapolate(&ys),
                }
            })
            .collect()
    }
}

/// Least-squares fit of `y ~ a + b·x` over `x = 0..n`, evaluated at `x = n`
/// (one step beyond the last observation). Degenerates to the value itself
/// for a single point.
fn extrapolate(ys: &[f64]) -> f64 {
    let n = ys.len();
    if n == 1 {
        return ys[0];
    }
    let nf = n as f64;
    let x_mean = (nf - 1.0) / 2.0;
    let y_mean = ys.iter().sum::<f64>() / nf;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    for (x, &y) in ys.iter().enumerate() {
        let dx = x as f64 - x_mean;
        sxy += dx * (y - y_mean);
        sxx += dx * dx;
    }
    let b = if sxx > 0.0 { sxy / sxx } else { 0.0 };
    let a = y_mean - b * x_mean;
    a + b * nf
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::temporal::TemporalGraph;
    use osn_metrics::fused::LocalKind;

    /// Star that accretes spokes over time: CN(1,2) grows as hub edges
    /// appear. Nodes 1..k are connected to hub 0 one per snapshot... here
    /// we grow common neighbors of the pair (10, 11) step by step.
    fn growing_cn_trace() -> TemporalGraph {
        let mut g = TemporalGraph::new();
        for _ in 0..12 {
            g.add_node(0);
        }
        let mut t = 1u64;
        // Each "round" adds a fresh common neighbor for (10, 11).
        for w in 0..5u32 {
            g.add_edge(10, w, t);
            t += 1;
            g.add_edge(11, w, t);
            t += 1;
        }
        // Filler so the last snapshot has extra edges.
        g.add_edge(5, 6, t);
        g.add_edge(6, 7, t + 1);
        g
    }

    #[test]
    fn extrapolate_linear_series_exactly() {
        assert!((extrapolate(&[1.0, 2.0, 3.0]) - 4.0).abs() < 1e-12);
        assert!((extrapolate(&[5.0, 5.0, 5.0]) - 5.0).abs() < 1e-12);
        assert_eq!(extrapolate(&[7.0]), 7.0);
    }

    #[test]
    fn moving_average_smooths_series() {
        let trace = growing_cn_trace();
        let seq = SnapshotSequence::by_edge_delta(&trace, 3);
        let t = seq.len() - 1;
        let ma = TimeSeriesPredictor { window: 3, aggregation: Aggregation::MovingAverage };
        let pairs = [(10u32, 11u32)];
        let ma_score = ma.score_pairs(&seq, &LocalKind::Cn, t, &pairs)[0];
        let now = exec::score_pairs_t(&LocalKind::Cn, &seq.snapshot(t - 1), &pairs, 1)[0];
        // CN grows over time, so the trailing average sits below the
        // current value.
        assert!(ma_score < now, "MA {ma_score} should lag current {now}");
        assert!(ma_score > 0.0);
    }

    #[test]
    fn linear_regression_extrapolates_growth() {
        let trace = growing_cn_trace();
        let seq = SnapshotSequence::by_edge_delta(&trace, 3);
        let t = seq.len() - 1;
        let lr = TimeSeriesPredictor { window: 3, aggregation: Aggregation::LinearRegression };
        let ma = TimeSeriesPredictor { window: 3, aggregation: Aggregation::MovingAverage };
        let pairs = [(10u32, 11u32)];
        let lr_score = lr.score_pairs(&seq, &LocalKind::Cn, t, &pairs)[0];
        let ma_score = ma.score_pairs(&seq, &LocalKind::Cn, t, &pairs)[0];
        assert!(lr_score > ma_score, "LR should extrapolate an increasing series above its mean");
    }

    #[test]
    fn window_one_equals_static_metric() {
        let trace = growing_cn_trace();
        let seq = SnapshotSequence::by_edge_delta(&trace, 3);
        let t = 2;
        let ts = TimeSeriesPredictor { window: 1, aggregation: Aggregation::MovingAverage };
        let pairs = [(10u32, 11u32), (0u32, 1u32)];
        let got = ts.score_pairs(&seq, &LocalKind::Cn, t, &pairs);
        let direct = exec::score_pairs_t(&LocalKind::Cn, &seq.snapshot(t - 1), &pairs, 1);
        assert_eq!(got, direct);
    }

    #[test]
    fn early_transitions_shrink_the_window() {
        let trace = growing_cn_trace();
        let seq = SnapshotSequence::by_edge_delta(&trace, 3);
        // t = 1 has only snapshot 0 behind it; a window of 4 must not panic.
        let ts = TimeSeriesPredictor { window: 4, aggregation: Aggregation::MovingAverage };
        let got = ts.score_pairs(&seq, &LocalKind::Cn, 1, &[(10, 11)]);
        assert_eq!(got.len(), 1);
    }
}
