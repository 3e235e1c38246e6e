//! Reference implementations the scoring engine is tested and benchmarked
//! against.
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
//! | [`walk`] | two-sided per-source LRW (frontier walk) and PPR (forward push) |
//! | [`katz`] | Katz-sc from per-landmark columns, and the dense truncated Katz series |
//! | [`rescal`] | the serial dense ALS fit |
//! | [`candidates`] | post-hoc filtered candidate sets |
//!
//! [`per_source`] picks a global metric's per-source reference by name.
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
use osn_metrics::katz::KatzSc;
use osn_metrics::path::{LocalPath, ShortestPath};
use osn_metrics::walk::{LocalRandomWalk, PersonalizedPageRank};

/// The per-source reference of SP, LP, LRW, PPR or Katz-sc at their
/// default parameters, the paths the batched engine is checked against;
/// `None` for every other metric. Katz-lr has no distinct per-source
/// reference: each Lanczos step is already one global matvec. LRW and PPR
/// run their sources over `threads` workers.
pub fn per_source(
    name: &str,
    snap: &Snapshot,
    pairs: &[(NodeId, NodeId)],
    threads: usize,
) -> Option<Vec<f64>> {
    Some(match name {
        "SP" => path::shortest_path(&ShortestPath::default(), snap, pairs),
        "LP" => path::local_path(&LocalPath::default(), snap, pairs),
        "LRW" => walk::local_random_walk(&LocalRandomWalk::default(), snap, pairs, threads),
        "PPR" => {
            walk::personalized_pagerank(&PersonalizedPageRank::default(), snap, pairs, threads)
        }
        "Katz-sc" => katz::katz_sc(&KatzSc::default(), snap, pairs),
        _ => return None,
    })
}
