//! Reference implementations the scoring engine is tested and benchmarked
//! against, and each metric's contract with them.
//!
//! The library crates hold only code the engine runs. Each path here is a
//! plain function, not a [`Metric`](osn_metrics::traits::Metric) impl: the
//! original slow algorithm a fast path replaced, kept so equivalence tests
//! and `scalecheck` can compare the two and time the gap.
//!
//! | Module | References |
//! |---|---|
//! | [`local`] | per-pair CN, JC, AA, RA, PA, BCN, BAA, BRA (one intersection per pair) |
//! | [`path`] | per-source SP (one BFS per source) and LP (one plain scatter per source) |
//! | [`walk`] | two-sided per-source LRW (frontier walk) and PPR (forward push), and their bounds |
//! | [`katz`] | Katz-sc from per-landmark columns, and the dense truncated Katz series |
//! | [`rescal`] | the serial ALS fit |
//! | [`candidates`] | the per-pair §6.2 feature scan, and post-hoc filtered candidate sets |
//!
//! [`contract`] gives every metric of `osn_metrics::all_metrics` its
//! reference and tolerance, the one table the equivalence harness
//! (`crates/metrics/tests/common/harness.rs`) and `scalecheck` read.
//! Integration tests reach this module as a dev-dependency; a unit test
//! inside a library crate cannot, since it compiles against its own copy
//! of that crate.

pub mod candidates;
pub mod katz;
pub mod local;
pub mod path;
pub mod rescal;
pub mod walk;

use osn_graph::snapshot::Snapshot;
use osn_graph::NodeId;
use osn_metrics::exec;
use osn_metrics::katz::KatzSc;
use osn_metrics::path::{LocalPath, ShortestPath};
use osn_metrics::walk::{LocalRandomWalk, PersonalizedPageRank};

/// A reference scorer: one score per pair of a batch on a snapshot, over
/// a worker count. Every reference scores each pair on its own, whatever
/// else the batch holds, and gives the same scores at every worker count.
pub type Reference = Box<dyn Fn(&Snapshot, &[(NodeId, NodeId)], usize) -> Vec<f64>>;

/// A per-pair tolerance: how far the engine's score of a pair on a
/// snapshot may sit from the reference's.
pub type Bound = fn(&Snapshot, (NodeId, NodeId)) -> f64;

/// One metric's contract with the engine, at the metric's default
/// parameters: the reference its engine scores are checked against, and
/// how close they must come.
pub struct Contract {
    /// The reference; `None` for Katz-lr and Rescal. Each Lanczos step or
    /// ALS sweep is already one global product, so neither has a distinct
    /// per-source path, and their engine scores are held to the engine's
    /// own one-worker scores instead.
    pub reference: Option<Reference>,
    /// `None` when the engine must match bit for bit; otherwise the
    /// per-pair bound it must stay within.
    pub bound: Option<Bound>,
}

impl Contract {
    /// Checks the engine's scores of `pairs` on `snap` against `want`,
    /// the reference's scores of the same pairs (or, without a
    /// reference, the engine's one-worker scores): bit for bit without a
    /// bound, pair by pair within it with one. The error names the first
    /// pair out of contract.
    pub fn check(
        &self,
        snap: &Snapshot,
        pairs: &[(NodeId, NodeId)],
        engine: &[f64],
        want: &[f64],
    ) -> Result<(), String> {
        if engine.len() != pairs.len() || want.len() != pairs.len() {
            return Err(format!(
                "{} engine and {} wanted scores for {} pairs",
                engine.len(),
                want.len(),
                pairs.len()
            ));
        }
        for (i, (&pair, (&e, &w))) in pairs.iter().zip(engine.iter().zip(want)).enumerate() {
            match self.bound {
                None if e.to_bits() != w.to_bits() => {
                    return Err(format!("pair {i} {pair:?}: {e:e} != {w:e}"));
                }
                Some(bound) if (e - w).abs() > bound(snap, pair) => {
                    return Err(format!(
                        "pair {i} {pair:?}: {e:e} vs {w:e} beyond the bound {:e}",
                        bound(snap, pair)
                    ));
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// The contract of the metric named `name`: exact for the per-pair local
/// references (run in the engine's source-aligned chunks over the
/// worker count) and the per-source SP, LP and Katz-sc ones; within
/// [`walk::lrw_bound`] of the two-sided LRW reference and within
/// [`walk::ppr_bound`] of the forward-push PPR one; no reference for
/// Katz-lr and Rescal. `None` for a name with no contract row.
pub fn contract(name: &str) -> Option<Contract> {
    let exact = |reference: Reference| Contract { reference: Some(reference), bound: None };
    Some(match name {
        "CN" => exact(per_pair(local::common_neighbors)),
        "JC" => exact(per_pair(local::jaccard_coefficient)),
        "AA" => exact(per_pair(local::adamic_adar)),
        "RA" => exact(per_pair(local::resource_allocation)),
        "PA" => exact(per_pair(local::preferential_attachment)),
        "BCN" => exact(per_pair(local::bayes_common_neighbors)),
        "BAA" => exact(per_pair(local::bayes_adamic_adar)),
        "BRA" => exact(per_pair(local::bayes_resource_allocation)),
        "SP" => exact(Box::new(|snap, pairs, _| {
            path::shortest_path(&ShortestPath::default(), snap, pairs)
        })),
        "LP" => {
            exact(Box::new(|snap, pairs, _| path::local_path(&LocalPath::default(), snap, pairs)))
        }
        "Katz-sc" => {
            exact(Box::new(|snap, pairs, _| katz::katz_sc(&KatzSc::default(), snap, pairs)))
        }
        "LRW" => Contract {
            reference: Some(Box::new(|snap, pairs, threads| {
                walk::local_random_walk(&LocalRandomWalk::default(), snap, pairs, threads)
            })),
            bound: Some(|snap, pair| walk::lrw_bound(&LocalRandomWalk::default(), snap, pair)),
        },
        "PPR" => Contract {
            reference: Some(Box::new(|snap, pairs, threads| {
                walk::personalized_pagerank(&PersonalizedPageRank::default(), snap, pairs, threads)
            })),
            bound: Some(|snap, pair| walk::ppr_bound(&PersonalizedPageRank::default(), snap, pair)),
        },
        "Katz-lr" | "Rescal" => Contract { reference: None, bound: None },
        _ => return None,
    })
}

/// A per-pair local reference in the engine's source-aligned chunks over
/// the worker count.
fn per_pair<F>(score: F) -> Reference
where
    F: Fn(&Snapshot, &[(NodeId, NodeId)]) -> Vec<f64> + Sync + 'static,
{
    Box::new(move |snap, pairs, threads| {
        exec::score_chunked(pairs, threads, |chunk| score(snap, chunk))
    })
}
