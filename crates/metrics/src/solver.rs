//! Batched frontier/SpMV solver engine for the global walk metrics.
//!
//! The per-source reference implementations of LRW and PPR
//! (`linklens_bench::oracles::walk`) advance one random-walk or push
//! frontier at a time.
//! This module replaces them on the production path with *blocked
//! multi-source iteration*: `B` source columns advance through one sweep of
//! the snapshot's adjacency CSR per step, so it is read once per iteration
//! instead of once per source.
//!
//! Each step is that one sweep and nothing more. For each row `v` in
//! ascending order it reads `v`'s neighbours and degree straight from the
//! [`Snapshot`] and gathers the neighbours' degree shares
//! (`gather_row`: eight columns at a time in a register accumulator, one
//! scalar for a one-column block), updates the row's solution, residual
//! and direction (PPR) or its next walk mass (LRW), folds the residual
//! norms or the finite check, and writes the row's shares for the next
//! step into a second share buffer. A block's workspace holds exactly its
//! own columns, so the last block of a batch sweeps no empty ones.
//!
//! The column-stochastic transition matrix `P` is never built: its
//! transpose applies on the fly as `(Pᵀ z)_v = Σ_{u∈Γ(v)} z_u / d(u)`, so
//! the walk is exact, never a rounded matrix. Three pieces live here:
//!
//! * `SidePlan` — the batch's *solve sides*: every pair is scored from one
//!   of its endpoints, so a batch needs one source column (or one scan,
//!   for SP and LP in [`crate::path`]) per side, not per endpoint.
//! * [`lrw_scores_t`] / [`ppr_scores_t`] — batched solvers producing one
//!   score per candidate pair. LRW runs the exact `m`-step walk recursion
//!   on a block of source columns; PPR solves `(I - (1-α)Pᵀ) p = α e_u`
//!   with a Chebyshev semi-iteration from a zero start, stopping each
//!   column on its residual, so the answer is tolerance-certified.
//!   Both evaluate their pair scores one-sided, from the side's column
//!   alone (see [`crate::walk`] for the reversibility identities).
//! * [`SolverCache`] — the per-snapshot cache the engine entry points
//!   thread through a metric's hook: the current snapshot's fitted Rescal
//!   model and the solvers' counters, keyed on the snapshot's content.
//!   Nothing in it crosses a snapshot, so a snapshot's scores depend on
//!   the snapshot and the pair list alone.
//!
//! ## Solve sides
//!
//! A pair is solved from the endpoint that occurs in more of the batch's
//! pairs, the lower id on a tie. A batch whose pairs all contain one node
//! `s` with distinct partners — every served query with two or more
//! candidates — therefore has the single side `s` and costs one column.
//! The plan registers every pair exactly once, as `(pair index, partner)`,
//! bucketed by side with a stable counting sort over node ids: sides
//! ascend by id, and queries within a side ascend by pair index. Each
//! solver advances `min(block_width(n), sides)` columns per block, so a
//! one-side batch sweeps one column, not the full block width, and a
//! batch's last block sweeps only the sides left over.
//!
//! ## The certified error of a zero start
//!
//! PPR's linear system `(I - M) p = α e_u` with `M = (1-α)Pᵀ` has
//! `‖M‖₁ = 1-α < 1`, hence `‖(I-M)⁻¹‖₁ ≤ 1/α`. Every column starts from
//! `x₀ = 0`, so its first residual is `α e_u`, and the solver stops it
//! when its *residual* satisfies `‖r‖₁ ≤ tol`, which certifies
//! `‖p - p̂‖₁ ≤ tol/α` against the exact fixed point `p̂`. A pair's
//! one-sided score `p_s[t]·(1 + d_s/d_t)` scales its column's error by
//! the factor, so each score lands within `(tol/α)·(1 + d_s/d_t)` of the
//! exact one.
//!
//! ## Determinism
//!
//! Both solvers are bit-identical across thread counts *and* block widths:
//! every per-column update uses iteration-indexed scalars only (no
//! cross-column reductions), each column's gather folds from `0.0` in
//! ascending-neighbor order whatever lane it sits in, and a column's
//! result is snapshotted the first time its residual crosses the
//! tolerance — exactly the value a width-1 run would have stopped at.
//! `tests/walk_kernels.rs` holds both kernels, at every width, to
//! one-column references bit for bit. Each pair's score is assigned once,
//! from its side's column, so no cross-column sum exists whose order
//! could vary. The side itself is a function of the pair list, so a score
//! depends on (snapshot, pair list): the same pair scored inside two
//! different batches may take different sides and differ within the
//! certified error bounds.
//!
//! ## Nonfinite-accumulator guard
//!
//! Every iteration the solver folds column L1 norms anyway; a non-finite
//! norm aborts with [`SolverError::NonFinite`] naming the metric and the
//! iteration, instead of silently propagating NaN into scores (where the
//! `score_contract()` audit would only catch it after a full scoring pass).

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use osn_graph::snapshot::Snapshot;
use osn_graph::{par, NodeId};
use osn_linalg::factor::AlsFit;

/// Hard ceiling on Chebyshev iterations before the solver gives up.
pub const PPR_MAX_ITERS: usize = 1000;

/// Structured failure from the batched solvers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolverError {
    /// The nonfinite-accumulator guard tripped: a column's L1 norm went
    /// NaN/inf mid-iteration (bad parameters or corrupted input).
    NonFinite {
        /// Metric whose solve was running.
        metric: &'static str,
        /// Iteration (step) index at which the guard tripped.
        iteration: usize,
    },
    /// The iteration failed to reach the residual tolerance within
    /// [`PPR_MAX_ITERS`] steps.
    NoConvergence {
        /// Metric whose solve was running.
        metric: &'static str,
        /// Number of iterations performed before giving up.
        iterations: usize,
    },
    /// A direct solve inside the metric (an ALS normal-equations system)
    /// was numerically singular. Previously this was silently skipped,
    /// leaving stale factors behind; now it surfaces here and feeds the
    /// same audit panic class as the other guards. Recoverable by
    /// raising the metric's ridge regularization.
    Singular {
        /// Metric whose solve was running.
        metric: &'static str,
        /// Iteration (sweep) index at which the system lost rank.
        iteration: usize,
    },
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::NonFinite { metric, iteration } => write!(
                f,
                "metric {metric} hit a non-finite accumulator at solver iteration \
                 {iteration} (nonfinite-accumulator guard)"
            ),
            SolverError::NoConvergence { metric, iterations } => {
                write!(
                    f,
                    "metric {metric} failed to converge within {iterations} solver iterations"
                )
            }
            SolverError::Singular { metric, iteration } => write!(
                f,
                "metric {metric} hit a singular normal-equations system at solver sweep \
                 {iteration}; raise the ridge regularization"
            ),
        }
    }
}

impl std::error::Error for SolverError {}

/// Block width (number of source columns advanced per CSR sweep) for a
/// snapshot of `n` nodes: sized so the 5 `n`-row working buffers of the
/// PPR solver fit in about 8 MiB, clamped to `[1, 64]`. Scores are
/// bit-identical at every width (see the module docs), so the width is
/// purely a cache-size choice.
pub fn block_width(n: usize) -> usize {
    ((8usize << 20) / (40 * n.max(1))).clamp(1, 64)
}

/// Counters the batched solvers accumulate into their [`SolverCache`].
#[derive(Debug, Clone, Default)]
pub struct SolverStats {
    /// Sum over PPR source columns of the iteration at which each column
    /// converged. A block sweeps until its slowest column converges, so
    /// the sweeps run exceed this count.
    pub ppr_iterations: u64,
    /// Always 0: no PPR column starts from anything but zero. Kept only
    /// because `benchmark/src/layers.rs` reads it; it goes when that file
    /// stops reading it.
    pub ppr_warm_starts: u64,
    /// PPR source columns solved in total.
    pub ppr_sources: u64,
    /// ALS factorization fits performed (Rescal).
    pub rescal_fits: u64,
}

/// Per-snapshot solver state: the fitted Rescal model of the last
/// snapshot fitted, a pure function of the snapshot and the config,
/// shared by every hook call on that snapshot, and the solvers' counters.
///
/// The kernels read the snapshot itself. The one model slot is keyed on
/// the fitted snapshot's content — node count, edge count and
/// [`Snapshot::adjacency_digest`] — so two different graphs of equal size
/// never share a fit, while equal snapshots (clones, rebuilt prefixes)
/// still hit. Nothing else is kept, so a snapshot scores the same through
/// a cache reused across a sweep as through a fresh one.
pub struct SolverCache {
    /// Rescal's model: the fitted snapshot's content key, the config
    /// fingerprint, and the fit.
    rescal: Option<(ContentKey, u64, Arc<AlsFit>)>,
    /// Counters accumulated by the solvers.
    pub stats: SolverStats,
}

/// A snapshot's content: node count, edge count, adjacency digest.
type ContentKey = (usize, usize, u64);

/// The content key of `snap` that [`SolverCache`]'s model slot compares.
fn content_key(snap: &Snapshot) -> ContentKey {
    (snap.node_count(), snap.edge_count(), snap.adjacency_digest())
}

impl SolverCache {
    /// An empty cache.
    pub fn transient() -> Self {
        SolverCache { rescal: None, stats: SolverStats::default() }
    }

    /// The same as [`transient`](Self::transient). Kept only because
    /// `benchmark/src/layers.rs` calls it; it goes when that file stops
    /// calling it.
    pub fn sweep() -> Self {
        SolverCache::transient()
    }

    /// The factorization model fitted on `snap` under the given config
    /// fingerprint, if one was stored — exact reuse, so two Rescal
    /// configurations sharing one cache can never alias each other's
    /// fits, nor two snapshots of different content.
    pub fn rescal_model(&self, snap: &Snapshot, fingerprint: u64) -> Option<Arc<AlsFit>> {
        match &self.rescal {
            Some((key, fp, model)) if *fp == fingerprint && *key == content_key(snap) => {
                Some(Arc::clone(model))
            }
            _ => None,
        }
    }

    /// Registers a freshly fitted factorization model of `snap`; the
    /// cache keeps it until another fit replaces it.
    pub fn store_rescal(&mut self, snap: &Snapshot, fingerprint: u64, model: Arc<AlsFit>) {
        self.rescal = Some((content_key(snap), fingerprint, model));
    }
}

/// Pair batch grouped by solve side (see the module docs): each side
/// carries the `(pair index, partner)` queries to resolve against its one
/// solved column or scan. Every pair appears exactly once.
pub(crate) struct SidePlan {
    sides: Vec<NodeId>,
    offsets: Vec<usize>,
    queries: Vec<(u32, NodeId)>,
}

impl SidePlan {
    pub(crate) fn build(pairs: &[(NodeId, NodeId)]) -> Self {
        assert!(pairs.len() <= u32::MAX as usize, "pair batch exceeds u32 index range");
        let span = pairs.iter().map(|&(u, v)| u.max(v) as usize + 1).max().unwrap_or(0);
        let mut in_pairs = vec![0usize; span];
        for &(u, v) in pairs {
            in_pairs[u as usize] += 1;
            in_pairs[v as usize] += 1;
        }
        // (side, partner): the endpoint in more pairs, the lower id on a tie.
        let orient = |(u, v): (NodeId, NodeId)| {
            let (cu, cv) = (in_pairs[u as usize], in_pairs[v as usize]);
            if cu > cv || (cu == cv && u <= v) {
                (u, v)
            } else {
                (v, u)
            }
        };
        // Stable counting sort by side: bucket sizes, then bucket starts.
        let mut start = vec![0usize; span + 1];
        for &p in pairs {
            start[orient(p).0 as usize + 1] += 1;
        }
        let mut sides = Vec::new();
        let mut offsets = vec![0];
        for (node, &len) in start[1..].iter().enumerate() {
            if len > 0 {
                sides.push(node as NodeId);
                offsets.push(offsets[offsets.len() - 1] + len);
            }
        }
        for i in 1..start.len() {
            start[i] += start[i - 1];
        }
        let mut queries = vec![(0u32, 0); pairs.len()];
        for (i, &p) in pairs.iter().enumerate() {
            let (side, partner) = orient(p);
            let slot = &mut start[side as usize];
            // linklens-allow(truncating-cast): guarded by the batch-size assert above
            queries[*slot] = (i as u32, partner);
            *slot += 1;
        }
        SidePlan { sides, offsets, queries }
    }

    /// The sides, ascending by node id.
    pub(crate) fn sides(&self) -> &[NodeId] {
        &self.sides
    }

    /// Side `si`'s `(pair index, partner)` queries, ascending by index.
    pub(crate) fn queries(&self, si: usize) -> &[(u32, NodeId)] {
        &self.queries[self.offsets[si]..self.offsets[si + 1]]
    }
}

/// Columns a [`gather_row`] folds at once in its register accumulator.
const LANES: usize = 8;

/// Gathers one row of `Pᵀ z` from the degree shares `z / d` of the
/// row's neighbours `nbrs`: each column of `out` is the sum of their
/// entries in the row-major `shares` of `out.len()` columns, in ascending
/// neighbour order from `0.0`. Eight columns at a time sit in a register
/// accumulator; a one-column block, a served query's solve, folds one
/// scalar.
#[inline]
fn gather_row(nbrs: &[u32], shares: &[f64], out: &mut [f64]) {
    let w = out.len();
    if w == 1 {
        let mut acc = 0.0;
        for &u in nbrs {
            acc += shares[u as usize];
        }
        out[0] = acc;
        return;
    }
    let mut full = out.chunks_exact_mut(LANES);
    for (c, lanes) in (&mut full).enumerate() {
        fold_lanes(nbrs, shares, w, c * LANES, lanes);
    }
    let tail = full.into_remainder();
    if !tail.is_empty() {
        fold_lanes(nbrs, shares, w, w - tail.len(), tail);
    }
}

/// [`gather_row`]'s accumulator: folds columns `at..at + out.len()` (at
/// most [`LANES`]) of the neighbours' rows of the `w`-column `shares`
/// into `out`. Always inlined, so a full chunk's width is a constant.
#[inline(always)]
fn fold_lanes(nbrs: &[u32], shares: &[f64], w: usize, at: usize, out: &mut [f64]) {
    let mut acc = [0.0; LANES];
    let acc = &mut acc[..out.len()];
    for &u in nbrs {
        let row = &shares[u as usize * w + at..][..acc.len()];
        for (a, &s) in acc.iter_mut().zip(row) {
            *a += s;
        }
    }
    out.copy_from_slice(acc);
}

/// Per-worker LRW workspace, sized per block to `n` rows of the block's
/// `w` columns, row-major: the walk distribution, which each step
/// overwrites row by row with the next one, and the pruned per-node
/// shares of the current step and of the next.
#[derive(Default)]
struct LrwWs {
    x: Vec<f64>,
    s: Vec<f64>,
    s_next: Vec<f64>,
}

/// Writes the degree shares of row `z` of a node of degree `deg` into
/// `s`: `z / deg`, set to `0.0` below `floor`, and `0.0` throughout on a
/// dangling row. LRW's floor is its prune; PPR's is `-∞`, which keeps
/// every share.
#[inline]
fn degree_shares(z: &[f64], deg: usize, floor: f64, s: &mut [f64]) {
    if deg == 0 {
        s.fill(0.0);
        return;
    }
    let dd = deg as f64;
    for (s, &z) in s.iter_mut().zip(z) {
        let share = z / dd;
        *s = if share < floor { 0.0 } else { share };
    }
}

/// Batched LRW scores for `pairs`, one-sided: `2·(d_s/2E)·π_st(m)` from
/// the pruned walk of each pair's solve side `s`. The walk is the same
/// recursion as `walk_distribution` in `linklens_bench::oracles::walk`
/// (including the degree-share prune and dangling self-absorption),
/// advanced over blocks of side columns in one CSR sweep per step.
/// Per-node share sums gather in ascending neighbor order, which
/// reassociates the reference's frontier-order additions. With
/// `prune = 0` the score equals the two-sided reference to
/// float-reassociation tolerance (~1e-10); with pruning, a step drops at
/// most `prune·2E` of walk mass, so the score is within `2·m·prune·d_s`
/// of the exact one.
pub fn lrw_scores_t(
    snap: &Snapshot,
    pairs: &[(NodeId, NodeId)],
    steps: usize,
    prune: f64,
    threads: usize,
    metric: &'static str,
) -> Result<Vec<f64>, SolverError> {
    let w = block_width(snap.node_count());
    lrw_scores_with_width(snap, pairs, steps, prune, threads, w, metric)
}

/// [`lrw_scores_t`] with an explicit block width, clamped to the
/// batch's side count (results are bit-identical for every width ≥ 1;
/// exposed for the invariance tests).
pub fn lrw_scores_with_width(
    snap: &Snapshot,
    pairs: &[(NodeId, NodeId)],
    steps: usize,
    prune: f64,
    threads: usize,
    width: usize,
    metric: &'static str,
) -> Result<Vec<f64>, SolverError> {
    let n = snap.node_count();
    let plan = SidePlan::build(pairs);
    let mut scores = vec![0.0; pairs.len()];
    if plan.sides.is_empty() || n == 0 {
        return Ok(scores);
    }
    let w = width.clamp(1, plan.sides.len());
    let two_e = (2 * snap.edge_count()).max(1) as f64;
    let nblocks = plan.sides.len().div_ceil(w);
    let results = par::run_indexed_init(nblocks, threads.max(1), LrwWs::default, |ws, b| {
        let range = (b * w)..((b + 1) * w).min(plan.sides.len());
        lrw_block(snap, &plan, range, steps, prune, two_e, ws, metric)
    });
    for block in results {
        for (idx, val) in block? {
            scores[idx as usize] = val;
        }
    }
    Ok(scores)
}

#[allow(clippy::too_many_arguments)]
fn lrw_block(
    snap: &Snapshot,
    plan: &SidePlan,
    range: Range<usize>,
    steps: usize,
    prune: f64,
    two_e: f64,
    ws: &mut LrwWs,
    metric: &'static str,
) -> Result<Vec<(u32, f64)>, SolverError> {
    let n = snap.node_count();
    let w = range.len();
    let LrwWs { x, s, s_next } = ws;
    x.clear();
    x.resize(n * w, 0.0);
    // The shares are written before they are read, so keep any contents.
    s.resize(n * w, 0.0);
    s_next.resize(n * w, 0.0);
    for (j, si) in range.clone().enumerate() {
        x[plan.sides[si] as usize * w + j] = 1.0;
    }
    for (v, (x, s)) in x.chunks_exact(w).zip(s.chunks_exact_mut(w)).enumerate() {
        degree_shares(x, snap.degree(v as NodeId), prune, s);
    }
    // One pass per step: each row's next value from its neighbours' shares
    // (a dangling row self-absorbs its mass), then that row's next shares.
    for step in 0..steps {
        let mut finite = true;
        for (v, (x, s_next)) in x.chunks_exact_mut(w).zip(s_next.chunks_exact_mut(w)).enumerate() {
            let nbrs = snap.neighbors(v as NodeId);
            if nbrs.is_empty() {
                // A dangling row keeps its mass, added to a zeroed sum.
                for x in x.iter_mut() {
                    *x += 0.0;
                }
            } else {
                gather_row(nbrs, s, x);
            }
            finite &= x.iter().all(|v| v.is_finite());
            degree_shares(x, nbrs.len(), prune, s_next);
        }
        std::mem::swap(s, s_next);
        if !finite {
            return Err(SolverError::NonFinite { metric, iteration: step });
        }
    }
    // One-sided: by reversibility d_s·π_st = d_t·π_ts, so the two-sided
    // (d_s/2E)·π_st + (d_t/2E)·π_ts is 2·(d_s/2E)·π_st.
    let mut out = Vec::new();
    for (j, si) in range.enumerate() {
        let coeff = 2.0 * (snap.degree(plan.sides[si]) as f64 / two_e);
        for &(idx, partner) in plan.queries(si) {
            out.push((idx, coeff * x[partner as usize * w + j]));
        }
    }
    Ok(out)
}

/// Per-worker PPR workspace, sized per block to `n` rows of the block's
/// `w` columns, row-major: solution, residual, Chebyshev direction, and
/// the direction's degree shares for the current step and for the next;
/// plus one gathered row, the per-column residual norms and done flags.
#[derive(Default)]
struct PprWs {
    x: Vec<f64>,
    r: Vec<f64>,
    d: Vec<f64>,
    s: Vec<f64>,
    s_next: Vec<f64>,
    g: Vec<f64>,
    norms: Vec<f64>,
    done: Vec<bool>,
}

/// Batched PPR scores for `pairs`, one-sided: `π_st·(1 + d_s/d_t)` from
/// the column of each pair's solve side `s` (`π_st` alone when
/// `d_t = 0`). Solves `(I - (1-α)Pᵀ) p = α e_s` per side with a blocked
/// Chebyshev semi-iteration (operator spectrum `[α, 2-α]`), stopping each
/// column at residual `‖r‖₁ ≤ tol_l1`, which certifies
/// `‖p - p̂‖₁ ≤ tol_l1/α` against the exact fixed point, so each score is
/// within `(tol_l1/α)·(1 + d_s/d_t)` of the exact two-sided `π_st + π_ts`
/// (see the module docs). Every column starts from zero; `cache` only
/// counts the columns and their iterations.
#[allow(clippy::too_many_arguments)]
pub fn ppr_scores_t(
    snap: &Snapshot,
    pairs: &[(NodeId, NodeId)],
    alpha: f64,
    tol_l1: f64,
    threads: usize,
    cache: &mut SolverCache,
    metric: &'static str,
) -> Result<Vec<f64>, SolverError> {
    let w = block_width(snap.node_count());
    ppr_scores_with_width(snap, pairs, alpha, tol_l1, threads, w, cache, metric)
}

/// [`ppr_scores_t`] with an explicit block width, clamped to the
/// batch's side count (results are bit-identical for every width ≥ 1;
/// exposed for the invariance tests).
#[allow(clippy::too_many_arguments)]
pub fn ppr_scores_with_width(
    snap: &Snapshot,
    pairs: &[(NodeId, NodeId)],
    alpha: f64,
    tol_l1: f64,
    threads: usize,
    width: usize,
    cache: &mut SolverCache,
    metric: &'static str,
) -> Result<Vec<f64>, SolverError> {
    let n = snap.node_count();
    let plan = SidePlan::build(pairs);
    let mut scores = vec![0.0; pairs.len()];
    if plan.sides.is_empty() || n == 0 {
        return Ok(scores);
    }
    let w = width.clamp(1, plan.sides.len());
    let nblocks = plan.sides.len().div_ceil(w);
    let results = par::run_indexed_init(nblocks, threads.max(1), PprWs::default, |ws, b| {
        let range = (b * w)..((b + 1) * w).min(plan.sides.len());
        ppr_block(snap, &plan, range, alpha, tol_l1, ws, metric)
    });
    for block in results {
        let (block, iterations) = block?;
        for (idx, val) in block {
            scores[idx as usize] = val;
        }
        cache.stats.ppr_iterations += iterations;
    }
    cache.stats.ppr_sources += plan.sides.len() as u64;
    Ok(scores)
}

/// One block of the Chebyshev semi-iteration (Saad, *Iterative Methods*,
/// Alg. 12.1) on the SPD-spectrum operator `A = I - (1-α)Pᵀ` with
/// eigenvalue bounds `[α, 2-α]`: center `θ = 1`, half-width `δ = 1-α`.
/// All update scalars are iteration-indexed, so every column follows the
/// exact arithmetic a width-1 run would. Returns the block's pair scores
/// and the sum of its columns' convergence iterations.
fn ppr_block(
    snap: &Snapshot,
    plan: &SidePlan,
    range: Range<usize>,
    alpha: f64,
    tol: f64,
    ws: &mut PprWs,
    metric: &'static str,
) -> Result<(Vec<(u32, f64)>, u64), SolverError> {
    let n = snap.node_count();
    let w = range.len();
    let oma = 1.0 - alpha;
    let PprWs { x, r, d, s, s_next, g, norms, done } = ws;
    // From x0 = 0 the first residual r = α e_src - A x0 is α at each
    // column's source row and 0.0 elsewhere, so its L1 norm is |α|; the
    // first direction is r.
    for buf in [&mut *x, &mut *r, &mut *d] {
        buf.clear();
        buf.resize(n * w, 0.0);
    }
    // The shares are written before they are read, so keep any contents.
    s.resize(n * w, 0.0);
    s_next.resize(n * w, 0.0);
    g.resize(w, 0.0);
    norms.clear();
    norms.resize(w, alpha.abs());
    done.clear();
    done.resize(w, false);
    for (j, si) in range.clone().enumerate() {
        let at = plan.sides[si] as usize * w + j;
        r[at] = alpha;
        d[at] = alpha;
    }
    for (v, (d, s)) in d.chunks_exact(w).zip(s.chunks_exact_mut(w)).enumerate() {
        degree_shares(d, snap.degree(v as NodeId), f64::NEG_INFINITY, s);
    }

    let sigma1 = 1.0 / oma;
    let delta = oma;
    let mut rho = oma;
    let mut query_vals: Vec<Option<Vec<f64>>> = vec![None; w];
    let mut iterations = 0u64;
    let mut k = 0usize;

    loop {
        // `norms` holds each column's residual L1 norm, folded over the
        // rows in ascending order, so it is independent of the block width.
        if norms.iter().any(|norm| !norm.is_finite()) {
            return Err(SolverError::NonFinite { metric, iteration: k });
        }
        for j in 0..w {
            if !done[j] && norms[j] <= tol {
                done[j] = true;
                iterations += k as u64;
                let si = range.start + j;
                let vals = plan.queries(si).iter().map(|&(_, p)| x[p as usize * w + j]).collect();
                query_vals[j] = Some(vals);
            }
        }
        if done.iter().all(|&d| d) {
            break;
        }
        if k >= PPR_MAX_ITERS {
            return Err(SolverError::NoConvergence { metric, iterations: k });
        }

        // One pass over the rows: x += d; r -= A d (A d = d - (1-α)Pᵀ d,
        // gathered from the shares of d); the next direction
        // d = a·d + c·r; the new residual's norms; the next shares.
        let rho_next = 1.0 / (2.0 * sigma1 - rho);
        let a = rho_next * rho;
        let c = 2.0 * rho_next / delta;
        norms.fill(0.0);
        let rows = x.chunks_exact_mut(w).zip(r.chunks_exact_mut(w)).zip(d.chunks_exact_mut(w));
        for (v, (((x, r), d), s_next)) in rows.zip(s_next.chunks_exact_mut(w)).enumerate() {
            let nbrs = snap.neighbors(v as NodeId);
            gather_row(nbrs, s, g);
            let cols = x.iter_mut().zip(r.iter_mut()).zip(d.iter_mut()).zip(&*g);
            for ((((x, r), d), &g), norm) in cols.zip(norms.iter_mut()) {
                *x += *d;
                *r -= *d - oma * g;
                *d = a * *d + c * *r;
                *norm += r.abs();
            }
            degree_shares(d, nbrs.len(), f64::NEG_INFINITY, s_next);
        }
        std::mem::swap(s, s_next);
        rho = rho_next;
        k += 1;
    }

    // One-sided: by reversibility π_ts/d_s = π_st/d_t, so the two-sided
    // π_st + π_ts is π_st·(1 + d_s/d_t). A partner of degree 0 is never
    // reached (π_st = 0); its factor is 1, which keeps the score exactly 0.
    let mut scores = Vec::new();
    for (j, si) in range.enumerate() {
        let side = plan.sides[si];
        let d_side = snap.degree(side) as f64;
        // linklens-allow(unwrap-in-lib): the loop above only exits once every active column froze
        let vals = query_vals[j].take().expect("column converged");
        for (&(idx, partner), val) in plan.queries(si).iter().zip(vals) {
            let d_partner = snap.degree(partner);
            let factor = if d_partner == 0 { 1.0 } else { 1.0 + d_side / d_partner as f64 };
            scores.push((idx, val * factor));
        }
    }
    Ok((scores, iterations))
}

/// Batched bilinear pair scoring for a fitted factorization `A ≈ X R Xᵀ`:
/// with `XR = X·R` precomputed once for the whole batch, each pair's
/// score `x_uᵀ R x_v + x_vᵀ R x_u = ⟨(XR)_u, x_v⟩ + ⟨(XR)_v, x_u⟩` is two
/// length-r dot products instead of an O(r²) bilinear form per pair.
///
/// Each pair's value is a pure function of its own four rows, folded in
/// ascending index order, so the output is bit-identical for every
/// `threads` value and block partition. Note the association differs
/// from the per-pair oracle `linklens_bench::oracles::rescal::model_score`
/// (which folds `R x_v` first), so cross-checks against it carry a
/// reassociation tolerance while *fit* equivalence stays bitwise.
pub fn bilinear_scores_t(
    x: &osn_linalg::Matrix,
    r: &osn_linalg::Matrix,
    pairs: &[(NodeId, NodeId)],
    threads: usize,
) -> Vec<f64> {
    assert_eq!(x.cols(), r.rows(), "X/R rank mismatch");
    assert_eq!(r.rows(), r.cols(), "core must be square");
    let xr = x.matmul(r);
    let blocks = par::block_ranges(pairs.len(), threads.max(1) * 4);
    let parts = par::run_indexed(blocks.len(), threads, |b| {
        blocks[b]
            .clone()
            .map(|i| {
                let (u, v) = pairs[i];
                let (xu, xv) = (x.row(u as usize), x.row(v as usize));
                let (xru, xrv) = (xr.row(u as usize), xr.row(v as usize));
                let mut s = 0.0;
                for (p, q) in xru.iter().zip(xv) {
                    s += p * q;
                }
                for (p, q) in xrv.iter().zip(xu) {
                    s += p * q;
                }
                s
            })
            .collect::<Vec<f64>>()
    });
    let mut out = Vec::with_capacity(pairs.len());
    for part in parts {
        out.extend(part);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_linalg::Matrix;

    fn ring_with_chords(n: usize) -> Snapshot {
        let mut edges = Vec::new();
        for i in 0..n {
            edges.push((i as NodeId, ((i + 1) % n) as NodeId));
            if i % 3 == 0 {
                edges.push((i as NodeId, ((i + n / 2) % n) as NodeId));
            }
        }
        Snapshot::from_edges(n, &edges)
    }

    fn all_pairs(n: usize) -> Vec<(NodeId, NodeId)> {
        let mut pairs = Vec::new();
        for u in 0..n as NodeId {
            for v in (u + 1)..n as NodeId {
                pairs.push((u, v));
            }
        }
        pairs
    }

    #[test]
    fn block_width_bounds() {
        assert_eq!(block_width(0), 64);
        assert_eq!(block_width(10), 64);
        assert!(block_width(10_000) >= 1);
        assert_eq!(block_width(usize::MAX / 64), 1);
        for n in [1, 100, 5_000, 1_000_000] {
            let w = block_width(n);
            assert!((1..=64).contains(&w), "width {w} out of range for n={n}");
        }
    }

    /// Dense ground truth: solve (I - (1-α)Pᵀ) p = α e_src with LU.
    fn dense_ppr(snap: &Snapshot, src: NodeId, alpha: f64) -> Vec<f64> {
        let n = snap.node_count();
        let mut a = Matrix::zeros(n, n);
        for v in 0..n {
            a[(v, v)] = 1.0;
            for &u in snap.neighbors(v as NodeId) {
                let d = snap.degree(u).max(1) as f64;
                a[(v, u as usize)] -= (1.0 - alpha) / d;
            }
        }
        let mut b = vec![0.0; n];
        b[src as usize] = alpha;
        a.solve_many(&[b]).expect("nonsingular")[0].clone()
    }

    #[test]
    fn ppr_matches_dense_solve() {
        let snap = ring_with_chords(23);
        let pairs = all_pairs(23);
        let mut cache = SolverCache::transient();
        let scores =
            ppr_scores_t(&snap, &pairs, 0.15, 1e-10, par::max_threads(), &mut cache, "PPR")
                .unwrap();
        let dense: Vec<Vec<f64>> = (0..23).map(|u| dense_ppr(&snap, u, 0.15)).collect();
        for (i, &(u, v)) in pairs.iter().enumerate() {
            let want = dense[u as usize][v as usize] + dense[v as usize][u as usize];
            assert!(
                (scores[i] - want).abs() < 1e-8,
                "pair ({u},{v}): got {} want {want}",
                scores[i]
            );
        }
    }

    #[test]
    fn ppr_width_and_threads_invariant() {
        let snap = ring_with_chords(31);
        let pairs = all_pairs(31);
        let mut cache = SolverCache::transient();
        let base =
            ppr_scores_with_width(&snap, &pairs, 0.15, 1e-6, 1, 1, &mut cache, "PPR").unwrap();
        for width in [2, 3, 7, 64] {
            for threads in [1, 4] {
                let mut c = SolverCache::transient();
                let got =
                    ppr_scores_with_width(&snap, &pairs, 0.15, 1e-6, threads, width, &mut c, "PPR")
                        .unwrap();
                assert_eq!(base, got, "width {width} threads {threads} diverged");
            }
        }
    }

    #[test]
    fn ppr_isolated_source_is_exact_zero() {
        let snap = Snapshot::from_edges(4, &[(0, 1)]);
        let mut cache = SolverCache::transient();
        let scores = ppr_scores_t(&snap, &[(2, 3)], 0.15, 1e-4, 1, &mut cache, "PPR").unwrap();
        // Isolated endpoints: b = α e_src, first iterate lands exactly on
        // the fixed point p = α e_src, so the cross mass is exactly 0...
        // except the solution keeps α at the source itself; partners see 0.
        assert_eq!(scores[0], 0.0);
    }

    #[test]
    fn ppr_nan_alpha_trips_nonfinite_guard() {
        let snap = ring_with_chords(9);
        let mut cache = SolverCache::transient();
        let err = ppr_scores_t(&snap, &[(0, 3)], f64::NAN, 1e-4, 1, &mut cache, "PPR").unwrap_err();
        assert!(matches!(err, SolverError::NonFinite { metric: "PPR", .. }), "got {err}");
    }

    #[test]
    fn ppr_unreachable_tolerance_reports_no_convergence() {
        let snap = ring_with_chords(9);
        let mut cache = SolverCache::transient();
        let err = ppr_scores_t(&snap, &[(0, 3)], 0.15, -1.0, 1, &mut cache, "PPR").unwrap_err();
        assert!(
            matches!(err, SolverError::NoConvergence { metric: "PPR", iterations: PPR_MAX_ITERS }),
            "got {err}"
        );
    }

    #[test]
    fn lrw_width_and_threads_invariant() {
        let snap = ring_with_chords(29);
        let pairs = all_pairs(29);
        let base = lrw_scores_with_width(&snap, &pairs, 3, 1e-7, 1, 1, "LRW").unwrap();
        for width in [2, 5, 64] {
            for threads in [1, 4] {
                let got =
                    lrw_scores_with_width(&snap, &pairs, 3, 1e-7, threads, width, "LRW").unwrap();
                assert_eq!(base, got, "width {width} threads {threads} diverged");
            }
        }
    }

    #[test]
    fn lrw_path_graph_hand_check() {
        // Path 0-1-2-3, steps = 3, prune = 0. Walk from 0: after 3 steps
        // the mass at 3 is 1/4; from 3 symmetric. two_e = 6.
        // score(0,3) = d(0)/6 · p03 + d(3)/6 · p30 = (1/6)(1/4)·2 = 1/12.
        let snap = Snapshot::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let scores = lrw_scores_t(&snap, &[(0, 3)], 3, 0.0, 1, "LRW").unwrap();
        assert!((scores[0] - 1.0 / 12.0).abs() < 1e-12, "got {}", scores[0]);
    }

    #[test]
    fn lrw_dangling_mass_conserved() {
        // Star with an isolated extra node: total walk mass stays 1.
        let snap = Snapshot::from_edges(5, &[(0, 1), (0, 2), (0, 3)]);
        let scores = lrw_scores_t(&snap, &[(4, 1)], 3, 0.0, 1, "LRW").unwrap();
        // Node 4 is isolated: its walk self-absorbs, never reaches 1, and
        // node 1's walk never reaches 4.
        assert_eq!(scores[0], 0.0);
    }

    #[test]
    fn source_plan_groups_and_covers() {
        // Pairs per node: 3 and 7 in two, the rest in one.
        let pairs = [(3u32, 7u32), (1, 7), (3, 5), (4, 2)];
        let plan = SidePlan::build(&pairs);
        // (3,7) ties and goes to 3; (1,7) to 7; (3,5) to 3; (4,2) ties
        // and goes to 2.
        assert_eq!(plan.sides(), &[2, 3, 7]);
        let total: usize = (0..plan.sides().len()).map(|i| plan.queries(i).len()).sum();
        assert_eq!(total, pairs.len(), "one registration per pair");
        assert_eq!(plan.queries(0), &[(3, 4)]);
        assert_eq!(plan.queries(1), &[(0, 7), (2, 5)]); // side 3, pair order
        assert_eq!(plan.queries(2), &[(1, 1)]);
        assert!(SidePlan::build(&[]).sides().is_empty());
    }

    #[test]
    fn side_plan_registers_each_pair_once_by_the_count_rule() {
        // A fixed-seed splitmix64 stream of pairs over 40 nodes, both
        // orientations, with repeats.
        let mut state = 0x51DE_u64;
        let mut next = |bound: u64| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % bound) as NodeId
        };
        let pairs: Vec<(NodeId, NodeId)> =
            (0..500).map(|_| (next(40), next(40))).filter(|&(u, v)| u != v).collect();
        let mut in_pairs = [0usize; 40];
        for &(u, v) in &pairs {
            in_pairs[u as usize] += 1;
            in_pairs[v as usize] += 1;
        }
        let plan = SidePlan::build(&pairs);
        assert!(plan.sides().windows(2).all(|w| w[0] < w[1]), "sides ascend by id");
        let mut seen = vec![0usize; pairs.len()];
        for (si, &side) in plan.sides().iter().enumerate() {
            let queries = plan.queries(si);
            assert!(!queries.is_empty(), "side {side} has no pairs");
            assert!(queries.windows(2).all(|w| w[0].0 < w[1].0), "indices ascend within a side");
            for &(idx, partner) in queries {
                let (u, v) = pairs[idx as usize];
                seen[idx as usize] += 1;
                assert!((side, partner) == (u, v) || (side, partner) == (v, u));
                let (cs, cp) = (in_pairs[side as usize], in_pairs[partner as usize]);
                assert!(
                    cs > cp || (cs == cp && side < partner),
                    "pair {:?} solved from {side} ({cs} pairs) not {partner} ({cp} pairs)",
                    (u, v)
                );
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "every pair index exactly once");
    }

    #[test]
    fn side_plan_puts_a_shared_node_on_the_only_side() {
        // The shape of a served query: canonical pairs, sorted, all holding
        // the source s, with s the low id, the high id, or both.
        let low: Vec<(NodeId, NodeId)> = vec![(5, 8), (5, 9), (5, 12)];
        let high: Vec<(NodeId, NodeId)> = vec![(1, 9), (4, 9), (7, 9)];
        let mixed: Vec<(NodeId, NodeId)> = vec![(2, 6), (4, 6), (6, 7), (6, 11)];
        for (pairs, s) in [(&low, 5), (&high, 9), (&mixed, 6)] {
            let plan = SidePlan::build(pairs);
            assert_eq!(plan.sides(), &[s], "{pairs:?}");
            let want: Vec<(u32, NodeId)> = pairs
                .iter()
                .enumerate()
                .map(|(i, &(u, v))| (i as u32, if u == s { v } else { u }))
                .collect();
            assert_eq!(plan.queries(0), &want[..], "{pairs:?}");
        }
    }

    #[test]
    fn walk_scores_are_exact_zero_at_an_isolated_endpoint() {
        // Nodes 0 and 5 are isolated; 1-2-3-4 is a triangle plus a tail.
        let snap = Snapshot::from_edges(6, &[(1, 2), (2, 3), (1, 3), (3, 4)]);
        // Single pairs tie and solve from the lower id; the batches put
        // the isolated node on the side ([(2,5),(3,5)]) or among the
        // partners ([(2,0),(2,5)]).
        let batches: [&[(NodeId, NodeId)]; 8] = [
            &[(0, 2)],
            &[(2, 0)],
            &[(2, 5)],
            &[(5, 2)],
            &[(0, 5)],
            &[(2, 5), (3, 5)],
            &[(2, 0), (2, 5)],
            &[(0, 4), (4, 0), (5, 4), (4, 5)],
        ];
        for pairs in batches {
            let mut cache = SolverCache::transient();
            let ppr = ppr_scores_t(&snap, pairs, 0.15, 1e-6, 1, &mut cache, "PPR").unwrap();
            let lrw = lrw_scores_t(&snap, pairs, 3, 0.0, 1, "LRW").unwrap();
            assert!(ppr.iter().all(|&x| x == 0.0), "PPR {pairs:?}: {ppr:?}");
            assert!(lrw.iter().all(|&x| x == 0.0), "LRW {pairs:?}: {lrw:?}");
        }
    }

    /// A ring of `n` nodes with chords `(i, i + n/2)` for `i % 3 == offset`.
    fn chorded_ring(n: usize, offset: usize) -> Snapshot {
        let mut edges = Vec::new();
        for i in 0..n {
            edges.push((i as NodeId, ((i + 1) % n) as NodeId));
            if i % 3 == offset {
                edges.push((i as NodeId, ((i + n / 2) % n) as NodeId));
            }
        }
        Snapshot::from_edges(n, &edges)
    }

    #[test]
    fn sweep_cache_keys_on_content_not_size() {
        use crate::traits::Metric;
        let first = chorded_ring(12, 0);
        let second = chorded_ring(12, 1);
        assert_eq!(first.node_count(), second.node_count());
        assert_eq!(first.edge_count(), second.edge_count());
        assert_ne!(first, second);
        let pairs = all_pairs(12);
        let lrw = crate::walk::LocalRandomWalk::default();
        let ppr = crate::walk::PersonalizedPageRank::default();
        let katz = crate::katz::KatzLr::default();
        let rescal = crate::rescal::Rescal::default();
        let metrics: [&dyn Metric; 4] = [&lrw, &ppr, &katz, &rescal];

        let score = |m: &dyn Metric, snap: &Snapshot, cache: &mut SolverCache| {
            crate::exec::score_matrix_cached_t(&[m], snap, &pairs, 1, cache).remove(0)
        };
        let mut sweep = SolverCache::transient();
        for m in metrics {
            score(m, &first, &mut sweep);
        }
        for m in metrics {
            let reused = score(m, &second, &mut sweep);
            let fresh = score(m, &second, &mut SolverCache::transient());
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&reused), bits(&fresh), "{} reused the first graph's state", m.name());
        }
    }

    #[test]
    fn rescal_cache_slots_rotate_and_key_on_fingerprint() {
        let snap = ring_with_chords(11);
        let model = Arc::new(crate::rescal::Rescal::default().fit(&snap).expect("fit"));

        let mut cache = SolverCache::transient();
        cache.store_rescal(&snap, 7, Arc::clone(&model));
        // Exact reuse on the fitted snapshot requires a fingerprint match.
        assert!(cache.rescal_model(&snap, 7).is_some());
        assert!(cache.rescal_model(&snap, 8).is_none(), "different config must never alias a fit");
        // An equal snapshot, built again, hits.
        assert!(cache.rescal_model(&ring_with_chords(11), 7).is_some());
        // A different snapshot misses; storing its fit turns the slot over.
        let other = ring_with_chords(13);
        assert!(cache.rescal_model(&other, 7).is_none());
        cache.store_rescal(&other, 7, Arc::clone(&model));
        assert!(cache.rescal_model(&snap, 7).is_none());
    }
}
