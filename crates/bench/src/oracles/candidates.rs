//! The post-hoc candidate path the §6.2 pruning pushdown replaced, and the
//! per-pair feature scan the node-activity table replaced.

use linklens_core::filters::TemporalFilter;
use linklens_core::framework::SequenceEvaluator;
use linklens_core::temporal::pair_features;
use osn_graph::snapshot::Snapshot;
use osn_graph::NodeId;
use osn_metrics::candidates::CandidateSet;
use osn_metrics::traits::{CandidatePolicy, Metric};

/// Whether pair `(u, v)` passes `filter` on `snap`, from the pair's own
/// features: both endpoints' edge times rescanned
/// ([`pair_features`]) and each Table 7 criterion tested on them. The
/// reference the filter's
/// [`NodeActivity`](osn_graph::activity::NodeActivity) predicate is
/// tested against; like it, an infinite bound admits every value.
pub fn passes(filter: &TemporalFilter, snap: &Snapshot, u: NodeId, v: NodeId) -> bool {
    let within = |x: f64, max: f64| max == f64::INFINITY || x < max;
    let f = pair_features(snap, u, v, filter.window());
    within(f.active_idle_days, filter.active_idle_days)
        && within(f.inactive_idle_days, filter.inactive_idle_days)
        && f.recent_edges_active >= filter.min_recent_edges
        // Pairs beyond 2 hops skip the CN criterion (paper footnote 5).
        && f.cn_gap_days.is_none_or(|g| within(g, filter.cn_gap_days))
}

/// The oracle [`SequenceEvaluator::candidates_for`] is verified against:
/// the full candidate set for the loosest policy of `metrics`, then the
/// Table 7 criteria applied pair by pair with [`passes`], then the
/// evaluator's pair cap. The filtered list goes through
/// [`CandidateSet::from_pairs`], which keeps the `Global` policy's
/// ascending enumeration order and sorts the two-hop and three-hop walks'
/// discovery order, so the pair lists match pruned enumeration exactly
/// under `Global` and as sets otherwise.
pub fn posthoc(
    eval: &SequenceEvaluator<'_>,
    snap: &Snapshot,
    metrics: &[&dyn Metric],
    filter: Option<&TemporalFilter>,
) -> CandidateSet {
    let policy =
        metrics.iter().map(|m| m.candidate_policy()).max().unwrap_or(CandidatePolicy::TwoHop);
    let cands = CandidateSet::build(snap, policy, eval.top_degree_candidates);
    let cands = match filter {
        None => cands,
        Some(f) => CandidateSet::from_pairs(
            cands.pairs().iter().copied().filter(|&(u, v)| passes(f, snap, u, v)).collect(),
        ),
    };
    cands.capped(eval.max_candidate_pairs)
}
