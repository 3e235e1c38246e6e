//! The post-hoc candidate path the §6.2 pruning pushdown replaced.

use linklens_core::filters::TemporalFilter;
use linklens_core::framework::SequenceEvaluator;
use osn_graph::snapshot::Snapshot;
use osn_metrics::candidates::CandidateSet;
use osn_metrics::traits::{CandidatePolicy, Metric};

/// The oracle [`SequenceEvaluator::candidates_for`] is verified against:
/// the full candidate set for the loosest policy of `metrics`, then the
/// Table 7 criteria applied pair by pair with
/// [`TemporalFilter::filter_pairs`], then the evaluator's pair cap. The
/// filtered list goes through [`CandidateSet::from_pairs`], which keeps
/// the `Global` policy's ascending enumeration order and sorts the
/// two-hop and three-hop walks' discovery order, so the pair lists match
/// pruned enumeration exactly under `Global` and as sets otherwise.
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
        Some(f) => CandidateSet::from_pairs(f.filter_pairs(snap, cands.pairs())),
    };
    cands.capped(eval.max_candidate_pairs)
}
