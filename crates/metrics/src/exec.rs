//! The pair-parallel scoring engine.
//!
//! Every scoring surface in LinkLens — single-metric prediction, the
//! evaluation framework's policy groups, the classification pipeline's
//! feature matrix, the serving workers — goes through one of four entry
//! points:
//!
//! | Entry point | Returns | Solver cache |
//! |---|---|---|
//! | [`score_pairs_t`] | one metric's scores | transient |
//! | [`score_matrix_cached_t`] | one score column per metric | caller's |
//! | [`predict_top_k_many_cached_t`] | one top-k list per metric | caller's |
//! | [`score_pairs_targeted`] | one metric's scores on caller-owned kernel state | caller's |
//!
//! The first three share one batch routine, which splits a metric list in
//! two:
//!
//! 1. **Fused metrics** (those advertising [`Metric::fused_kind`]) are
//!    scored together by the source-batched kernel ([`crate::fused`]):
//!    one kernel context, source-aligned chunks over the worker pool, one
//!    witness walk per source yielding every fused column. For top-k,
//!    each chunk streams its scores into a [`TopKAcc`], and the per-chunk
//!    heaps merge into exactly the serial selection (see [`crate::topk`])
//!    without materializing the column.
//! 2. **Every other metric** is scored whole, in input order, through its
//!    [`Metric::score_pairs_cached`] hook with the full worker budget and
//!    the caller's [`SolverCache`]. SP, LP and the time-aware metrics cut
//!    source-aligned chunks through [`score_chunked`] (splitting only
//!    where `pairs[i].0` changes) and score them in parallel; SP and LP
//!    group each chunk by solve side, one BFS or scan per side. The walk,
//!    Katz and Rescal metrics solve or factor once per call.
//!
//! Every column is checked against its metric's [`ScoreContract`] when
//! audits are enabled. Scores depend only on (snapshot, pair list): LRW
//! and PPR score each pair from the solve side its batch picks (see
//! [`crate::solver`]), so the same pair inside another batch may score
//! differently within the solvers' certified bounds. Every entry point
//! hands a non-fused metric's hook the whole pair list, so all of them
//! give the same scores on the same list for every worker count.

use crate::candidates::CandidateSet;
use crate::fused::{self, FusedScratch, LocalKind};
use crate::solver::SolverCache;
use crate::topk::TopKAcc;
use crate::traits::{Metric, ScoreContract};
use osn_graph::par;
use osn_graph::snapshot::Snapshot;
use osn_graph::NodeId;
use std::ops::Range;

/// Checks a scored slice against a metric's [`ScoreContract`], panicking
/// with the metric name, global pair index, and offending value on the
/// first violation. No-op unless [`osn_graph::audit::audit_enabled`] —
/// debug builds always audit; release builds audit under `--paranoid`.
///
/// `base` is the slice's offset into the full candidate list, so the
/// reported index is global even when a chunk tripped the check.
fn audit_scores(name: &str, contract: ScoreContract, scores: &[f64], base: usize) {
    if !osn_graph::audit::audit_enabled() {
        return;
    }
    for (i, &s) in scores.iter().enumerate() {
        if !s.is_finite() {
            panic!("metric {name} produced non-finite score {s} at pair index {}", base + i);
        }
        if contract == ScoreContract::FiniteNonNegative && s < 0.0 {
            panic!(
                "metric {name} violates its non-negative contract: score {s} at pair index {}",
                base + i
            );
        }
    }
}

/// Smallest chunk the engine bothers splitting off: below this, scheduling
/// overhead beats cache friendliness.
const MIN_CHUNK_PAIRS: usize = 1024;

/// Cuts `pairs` into contiguous ranges of roughly `len / (threads × 4)`
/// pairs (never below [`MIN_CHUNK_PAIRS`]), splitting only where the
/// source endpoint changes so group-by-source metrics keep their per-source
/// sharing. Candidate lists are sorted canonically, so equal sources are
/// always adjacent.
fn source_aligned_chunks(pairs: &[(NodeId, NodeId)], threads: usize) -> Vec<Range<usize>> {
    let len = pairs.len();
    if len == 0 {
        return Vec::new();
    }
    let target = (len / (threads.max(1) * 4).max(1)).max(MIN_CHUNK_PAIRS);
    let mut out = Vec::new();
    let mut start = 0;
    for i in 1..len {
        if i - start >= target && pairs[i].0 != pairs[i - 1].0 {
            out.push(start..i);
            start = i;
        }
    }
    out.push(start..len);
    out
}

/// Scores `pairs` in source-aligned chunks over `threads` workers and
/// concatenates the chunk scores in order: the parallel half of every
/// [`Metric::score_pairs_cached`] hook whose scores depend only on
/// (snapshot, pair), and of the Katz hooks. `score` must be a pure
/// function of its slice's pairs, so chunk boundaries never influence a
/// score.
pub fn score_chunked<F>(pairs: &[(NodeId, NodeId)], threads: usize, score: F) -> Vec<f64>
where
    F: Fn(&[(NodeId, NodeId)]) -> Vec<f64> + Sync,
{
    let chunks = source_aligned_chunks(pairs, threads);
    if threads <= 1 || chunks.len() <= 1 {
        return score(pairs);
    }
    par::run_indexed(chunks.len(), threads, |c| score(&pairs[chunks[c].clone()])).concat()
}

/// The batch routine behind [`score_pairs_t`], [`score_matrix_cached_t`]
/// and [`predict_top_k_many_cached_t`] (see the module docs). `reduce`
/// turns one audited score slice — its pairs and its scores — into a
/// partial result; `merge` folds one metric's partials, in pair order,
/// into that metric's output. Non-fused metrics reduce their whole column
/// as one partial. Outputs are in `metrics` order.
fn run<R, O>(
    metrics: &[&dyn Metric],
    snap: &Snapshot,
    pairs: &[(NodeId, NodeId)],
    threads: usize,
    cache: &mut SolverCache,
    reduce: impl Fn(&[(NodeId, NodeId)], Vec<f64>) -> R + Sync,
    merge: impl Fn(Vec<R>) -> O,
) -> Vec<O>
where
    R: Send,
{
    let threads = threads.max(1);
    let fused: Vec<(&dyn Metric, LocalKind)> =
        metrics.iter().filter_map(|&m| m.fused_kind().map(|k| (m, k))).collect();
    // Fused metrics together: one kernel context, and one witness walk per
    // source yields every fused column of a chunk.
    let mut fused_out = Vec::with_capacity(fused.len());
    if !fused.is_empty() {
        let kinds: Vec<LocalKind> = fused.iter().map(|&(_, k)| k).collect();
        let ctx = fused::FusedCtx::build(snap, &kinds);
        let chunks = source_aligned_chunks(pairs, threads);
        let chunk_parts = par::run_indexed_init(
            chunks.len(),
            threads,
            || FusedScratch::new(snap.node_count()),
            |scratch, c| {
                let range = chunks[c].clone();
                let slice = &pairs[range.clone()];
                let cols = fused::score_columns(&ctx, scratch, slice, &kinds);
                fused
                    .iter()
                    .zip(cols)
                    .map(|(&(m, _), col)| {
                        audit_scores(m.name(), m.score_contract(), &col, range.start);
                        reduce(slice, col)
                    })
                    .collect::<Vec<R>>()
            },
        );
        let mut per_metric: Vec<Vec<R>> = fused.iter().map(|_| Vec::new()).collect();
        for parts in chunk_parts {
            for (fi, part) in parts.into_iter().enumerate() {
                per_metric[fi].push(part);
            }
        }
        fused_out.extend(per_metric.into_iter().map(&merge));
    }
    // Every other metric alone with the whole worker budget: the solver and
    // factorization hooks already parallelize internally, so running two
    // at once would only oversubscribe the pool.
    let mut fused_out = fused_out.into_iter();
    let mut out = Vec::with_capacity(metrics.len());
    for &m in metrics {
        if m.fused_kind().is_some() {
            out.extend(fused_out.next());
        } else {
            let scores = m.score_pairs_cached(snap, pairs, threads, cache);
            audit_scores(m.name(), m.score_contract(), &scores, 0);
            out.push(merge(vec![reduce(pairs, scores)]));
        }
    }
    out
}

/// Scores `pairs` for one metric with a transient [`SolverCache`]: fused
/// metrics through the source-batched kernel, everything else through
/// its [`Metric::score_pairs_cached`] hook. Bit-identical for every
/// `threads` value.
pub fn score_pairs_t(
    m: &dyn Metric,
    snap: &Snapshot,
    pairs: &[(NodeId, NodeId)],
    threads: usize,
) -> Vec<f64> {
    score_matrix_cached_t(&[m], snap, pairs, threads, &mut SolverCache::transient())
        .pop()
        .unwrap_or_default()
}

/// Score columns (one `Vec<f64>` per metric, aligned with `pairs`) for
/// several metrics — the classification pipeline's feature-matrix
/// backend. Fused-kernel metrics are produced together, one witness walk
/// per source per chunk yielding every fused column at once; the rest are
/// scored one after another through their hooks with the caller's
/// [`SolverCache`]: the global metrics read the snapshot's own
/// adjacency CSR and share the cache's per-snapshot state, the Rescal
/// fit (see [`crate::solver`]). Column contents are bit-identical for
/// every `threads` value and do not depend on what the cache scored
/// before.
pub fn score_matrix_cached_t(
    metrics: &[&dyn Metric],
    snap: &Snapshot,
    pairs: &[(NodeId, NodeId)],
    threads: usize,
    cache: &mut SolverCache,
) -> Vec<Vec<f64>> {
    run(metrics, snap, pairs, threads, cache, |_, scores| scores, |parts| parts.concat())
}

/// Top-k predictions for several metrics over one shared candidate set,
/// with seeded tie-breaking (ties are common for SP and CN).
///
/// Fused metrics are scored together by the source-batched kernel, each
/// chunk streaming into per-chunk [`TopKAcc`] heaps that merge into the
/// serial selection; every other metric is scored whole through its hook
/// with the caller's [`SolverCache`] and selected serially, so Rescal
/// fits once per snapshot across the calls that share the cache. Results
/// are in input metric order and — including tie-break order — identical
/// for every `threads` value.
#[allow(clippy::too_many_arguments)]
pub fn predict_top_k_many_cached_t(
    metrics: &[&dyn Metric],
    snap: &Snapshot,
    cands: &CandidateSet,
    k: usize,
    seed: u64,
    threads: usize,
    cache: &mut SolverCache,
) -> Vec<Vec<(NodeId, NodeId)>> {
    run(
        metrics,
        snap,
        cands.pairs(),
        threads,
        cache,
        |slice, scores| {
            let mut acc = TopKAcc::new(k, seed);
            for (&pair, &score) in slice.iter().zip(&scores) {
                acc.push(pair, score);
            }
            acc
        },
        |accs| {
            let mut merged = TopKAcc::new(k, seed);
            for acc in accs {
                merged.merge(acc);
            }
            merged.finish()
        },
    )
}

/// The serving-side targeted scoring path: scores one metric over a
/// (typically small, single-source) pair list with **caller-owned**
/// kernel state, so a long-lived query worker pays the per-snapshot
/// setup once per published version instead of once per query.
///
/// * Fused metrics score through [`fused::score_columns`] on the caller's
///   [`FusedCtx`](fused::FusedCtx)/[`FusedScratch`] — build the context
///   once per snapshot for the kinds served and reuse it across queries;
///   a single kind requested out of a wider context is bit-identical to
///   the batch engine's per-kind context.
/// * Everything else goes through [`Metric::score_pairs_cached`] at one
///   worker (per-source query batches are far below the engine's
///   chunking threshold), sharing the caller's [`SolverCache`] transition
///   view and per-source solve vectors across queries at the same version.
///
/// Bit-identical to [`score_pairs_t`] with `threads = 1` on the same pair
/// list — the contract the serving parity asserts rely on. A query's
/// list holds only the source's pairs, so the walk solvers take the
/// source as the one solve side and solve one column per query.
///
/// # Panics
/// Debug builds panic when `ctx` was built on a different snapshot than
/// `snap` (a stale context from a previous published version).
pub fn score_pairs_targeted(
    m: &dyn Metric,
    snap: &Snapshot,
    ctx: &fused::FusedCtx<'_>,
    scratch: &mut FusedScratch,
    pairs: &[(NodeId, NodeId)],
    cache: &mut SolverCache,
) -> Vec<f64> {
    debug_assert!(
        std::ptr::eq(ctx.snapshot(), snap),
        "targeted scoring with a kernel context from a different snapshot"
    );
    let scores = match m.fused_kind() {
        Some(kind) => fused::score_columns(ctx, scratch, pairs, &[kind]).pop().unwrap_or_default(),
        None => m.score_pairs_cached(snap, pairs, 1, cache),
    };
    audit_scores(m.name(), m.score_contract(), &scores, 0);
    scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::CandidatePolicy;

    /// Two bridged triangles plus a pendant path.
    fn fixture() -> Snapshot {
        Snapshot::from_edges(
            8,
            &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5), (5, 6), (6, 7)],
        )
    }

    #[test]
    fn chunks_are_source_aligned_and_cover() {
        let pairs: Vec<(NodeId, NodeId)> =
            (0..40u32).flat_map(|u| (u + 1..u + 5).map(move |v| (u / 3, v + 100))).collect();
        let chunks = source_aligned_chunks(&pairs, 4);
        let mut covered = 0;
        for c in &chunks {
            assert_eq!(c.start, covered);
            covered = c.end;
            if c.start > 0 {
                assert_ne!(
                    pairs[c.start].0,
                    pairs[c.start - 1].0,
                    "chunk boundary split a source run"
                );
            }
        }
        assert_eq!(covered, pairs.len());
    }

    #[test]
    fn multi_metric_predictions_match_single_metric() {
        let snap = fixture();
        let cands = CandidateSet::build(&snap, CandidatePolicy::Global, 2);
        let metrics = crate::all_metrics();
        let refs: Vec<&dyn Metric> = metrics.iter().map(|m| m.as_ref()).collect();
        let mut cache = SolverCache::transient();
        let many = predict_top_k_many_cached_t(&refs, &snap, &cands, 4, 0x11A5, 3, &mut cache);
        for (i, m) in refs.iter().enumerate() {
            let scores = score_pairs_t(*m, &snap, cands.pairs(), 1);
            let single = crate::topk::top_k_pairs(cands.pairs(), &scores, 4, 0x11A5);
            assert_eq!(many[i], single, "{}", m.name());
        }
    }

    /// A metric that lies about its output, for audit-layer tests.
    struct Broken {
        value: f64,
        contract: ScoreContract,
    }

    impl Metric for Broken {
        fn name(&self) -> &'static str {
            "Broken"
        }
        fn candidate_policy(&self) -> CandidatePolicy {
            CandidatePolicy::TwoHop
        }
        fn score_contract(&self) -> ScoreContract {
            self.contract
        }
        fn score_pairs_cached(
            &self,
            _snap: &Snapshot,
            pairs: &[(NodeId, NodeId)],
            _threads: usize,
            _cache: &mut SolverCache,
        ) -> Vec<f64> {
            vec![self.value; pairs.len()]
        }
    }

    // The two audit tests below switch paranoid mode on so they also hold
    // in release builds. Nothing in this test binary switches it off, so
    // concurrently running tests cannot race them into a disabled audit.

    #[test]
    #[should_panic(expected = "non-finite score")]
    fn audit_catches_non_finite_scores() {
        osn_graph::audit::set_paranoid(true);
        let snap = fixture();
        let bad = Broken { value: f64::NAN, contract: ScoreContract::Finite };
        score_pairs_t(&bad, &snap, &[(0, 4), (1, 5)], 1);
    }

    #[test]
    #[should_panic(expected = "non-negative contract")]
    fn audit_catches_contract_violation() {
        osn_graph::audit::set_paranoid(true);
        let snap = fixture();
        let bad = Broken { value: -1.0, contract: ScoreContract::FiniteNonNegative };
        score_pairs_t(&bad, &snap, &[(0, 4), (1, 5)], 1);
    }

    #[test]
    fn audit_accepts_negative_scores_under_finite_contract() {
        let snap = fixture();
        let ok = Broken { value: -1.0, contract: ScoreContract::Finite };
        assert_eq!(score_pairs_t(&ok, &snap, &[(0, 4)], 1), vec![-1.0]);
    }

    #[test]
    fn targeted_scoring_matches_batched_engine() {
        let snap = fixture();
        let cands = CandidateSet::build(&snap, CandidatePolicy::Global, 2);
        let ctx = fused::FusedCtx::build(&snap, &LocalKind::ALL);
        let mut scratch = FusedScratch::new(snap.node_count());
        for m in crate::all_metrics() {
            let mut targeted_cache = SolverCache::transient();
            // Per-source slices, the shape serving queries take.
            for chunk in source_aligned_chunks(cands.pairs(), 1) {
                let slice = &cands.pairs()[chunk];
                let targeted = score_pairs_targeted(
                    m.as_ref(),
                    &snap,
                    &ctx,
                    &mut scratch,
                    slice,
                    &mut targeted_cache,
                );
                let batched = score_pairs_t(m.as_ref(), &snap, slice, 1);
                assert_eq!(targeted, batched, "{}", m.name());
            }
        }
    }

    #[test]
    fn score_matrix_matches_columns() {
        let snap = fixture();
        let cands = CandidateSet::build(&snap, CandidatePolicy::ThreeHop, 0);
        let metrics = crate::all_metrics();
        let refs: Vec<&dyn Metric> = metrics.iter().map(|m| m.as_ref()).collect();
        let matrix =
            score_matrix_cached_t(&refs, &snap, cands.pairs(), 4, &mut SolverCache::transient());
        for (i, m) in refs.iter().enumerate() {
            assert_eq!(matrix[i], score_pairs_t(*m, &snap, cands.pairs(), 1), "{}", m.name());
        }
    }
}
