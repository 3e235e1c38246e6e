//! The `Metric` trait and its candidate policy.
//!
//! A metric has one scoring method, the engine hook
//! [`Metric::score_pairs_cached`]. Every caller scores through the engine
//! ([`crate::exec`]), which calls the hook, or, for metrics advertising
//! [`Metric::fused_kind`], the fused kernel. Reference implementations
//! for tests and benches live outside the library, in
//! `linklens_bench::oracles`.

use crate::solver::SolverCache;
use osn_graph::snapshot::Snapshot;
use osn_graph::NodeId;

/// How far from each other a pair of nodes may be for this metric to give
/// it a non-trivial score. The evaluation framework uses the *loosest*
/// policy among the metrics under test to build one shared candidate set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum CandidatePolicy {
    /// Non-zero only for pairs sharing ≥ 1 neighbor (distance exactly 2).
    TwoHop,
    /// Non-zero up to distance 3 (Local Path, SP, walks, Katz).
    ThreeHop,
    /// May rank arbitrary pairs (PA, Rescal) — the candidate set adds
    /// supernode cross-pairs on top of the distance-bounded pairs.
    Global,
}

/// What the engine may assume about every score a metric emits. Checked by
/// the runtime audit layer ([`osn_graph::audit`]) on every engine scoring
/// path when audits are enabled (debug builds, or `--paranoid` in release).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScoreContract {
    /// Scores are finite (no NaN/±∞) but may be negative: negated
    /// distances (SP), log-odds (the Bayes metrics), and factorization
    /// reconstructions (Katz-lr, Rescal) all go below zero.
    Finite,
    /// Scores are finite and never negative: counting and normalized-
    /// counting metrics (CN, JC, AA, RA, PA, Local Path) and walk
    /// probabilities (LRW, PPR).
    FiniteNonNegative,
}

/// One link-prediction similarity metric (Table 3 of the paper).
///
/// Implementations are stateless configuration objects: all per-snapshot
/// state (factorizations, walk distributions, triangle counts) is computed
/// per scoring call, or read from the caller's [`SolverCache`], for the
/// snapshot at hand. Callers amortize that cost by scoring all pairs of
/// interest in a single call.
pub trait Metric: Sync {
    /// Display name matching the paper's tables ("BRA", "Katz-lr", …).
    fn name(&self) -> &'static str;

    /// Candidate policy (see [`CandidatePolicy`]).
    fn candidate_policy(&self) -> CandidatePolicy;

    /// Score contract the audit layer enforces (see [`ScoreContract`]).
    /// Defaults to [`ScoreContract::Finite`]; metrics whose scores are
    /// counts, normalized counts, or probabilities tighten this to
    /// [`ScoreContract::FiniteNonNegative`].
    fn score_contract(&self) -> ScoreContract {
        ScoreContract::Finite
    }

    /// The fused-kernel column this metric maps to, when it is one of the
    /// local metrics the source-batched kernel ([`crate::fused`]) can
    /// absorb. `None` (the default) keeps the metric on its
    /// [`score_pairs_cached`](Metric::score_pairs_cached) hook; each
    /// [`LocalKind`](crate::fused::LocalKind), the eight local metrics,
    /// returns itself, and the engine then scores them through one shared
    /// witness walk per source instead of per-pair intersections.
    fn fused_kind(&self) -> Option<crate::fused::LocalKind> {
        None
    }

    /// Scores a batch of (unconnected) pairs against a snapshot over
    /// `threads` workers, one finite score per pair, higher = more likely
    /// to connect, with access to the caller's per-snapshot
    /// [`SolverCache`]. Scores must not depend on `threads`.
    ///
    /// The engine calls this for every metric without a
    /// [`fused_kind`](Metric::fused_kind); a fused metric's hook is
    /// [`crate::exec::score_pairs_t`], so a direct call runs the kernel
    /// the engine runs. Metrics whose scores depend only on (snapshot,
    /// pair) score source-aligned chunks in parallel through
    /// [`crate::exec::score_chunked`]. Metrics with per-snapshot state
    /// solve or factor once per call on the snapshot's own adjacency CSR:
    /// the walk metrics (LRW, PPR), every PPR column from zero (see
    /// [`crate::solver`]); Katz; Rescal reusing the cache's fitted model
    /// of the same snapshot.
    fn score_pairs_cached(
        &self,
        snap: &Snapshot,
        pairs: &[(NodeId, NodeId)],
        threads: usize,
        cache: &mut SolverCache,
    ) -> Vec<f64>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_ordering_is_loosest_last() {
        assert!(CandidatePolicy::TwoHop < CandidatePolicy::ThreeHop);
        assert!(CandidatePolicy::ThreeHop < CandidatePolicy::Global);
    }
}
