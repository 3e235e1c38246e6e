//! Blocked alternating-least-squares factorization core.
//!
//! Fits the single-slice RESCAL model `A ≈ X R Xᵀ` with the same ALS
//! update equations the dense reference loop uses:
//!
//! * `X ← [A X (Rᵀ + R)] · [R G Rᵀ + Rᵀ G R + λI]⁻¹`, `G = XᵀX`
//! * `R ← (G + λI)⁻¹ Xᵀ A X (G + λI)⁻¹`
//!
//! but routes every `A·X` product through the thread-parallel
//! [`spmm_into_t`](crate::sparse::spmm_into_t) kernel, which reads the
//! snapshot's adjacency CSR in place, instead of a serial dense sweep.
//! The kernel partitions output rows into disjoint blocks and keeps each
//! row's ascending-neighbour fold unchanged, so the blocked fit is
//! **bit-identical** to the serial dense fit for every thread count — the
//! same contract the batched metric solvers carry.
//!
//! Every linear solve is guarded: a singular normal-equations system or a
//! non-finite factor surfaces as a structured [`FactorError`] instead of
//! being silently skipped (the bug this module replaces left stale
//! factors behind a `None` from `solve_many`). Each sweep ends with a
//! certification step: the Frobenius residual `‖A − XRXᵀ‖_F` is computed
//! sparsely over the nonzeros plus a trace-correction term — never
//! densifying `A` or `XRXᵀ` — and drives optional early stopping.

use crate::dense::{LuFactors, Matrix};
use crate::sparse;
use osn_graph::snapshot::Snapshot;
use osn_graph::NodeId;

/// Weyl-sequence increment shared with the historical dense init.
const PHI: u64 = 0x9E37_79B9_7F4A_7C15;

/// Minimum row count before the X-update row solves shard across
/// threads; below this the spawn overhead beats the work (mirrors the
/// CSR kernel's parallel-row threshold).
const PAR_SOLVE_THRESHOLD: usize = 256;

/// Row-chunk width for the residual reduction. Fixed (independent of the
/// thread count) so partial sums are always folded over the same chunk
/// boundaries in the same order — the residual is bit-identical for every
/// `threads` value.
const RESIDUAL_ROW_CHUNK: usize = 1024;

/// Structured failure from [`als_fit`]. Mirrors the batched solver error
/// taxonomy in `osn-metrics` (`Singular` / `NonFinite` / `NoConvergence`)
/// so callers can map it 1:1 into their audit panic class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FactorError {
    /// A normal-equations system was numerically singular: `solve_many`
    /// found no usable pivot, so the named factor update has no solution.
    /// Recoverable by raising the ridge `lambda` (the regularized system
    /// `M + λI` is positive definite for any λ > 0 when `M ⪰ 0`).
    Singular {
        /// Which update hit the singular system: `"X"` or `"R"`.
        update: &'static str,
        /// Zero-based ALS sweep index.
        iteration: usize,
    },
    /// A factor or the certified residual left the finite range (NaN/∞),
    /// e.g. from a non-finite `lambda` or an overflowing system.
    NonFinite {
        /// Zero-based ALS sweep index.
        iteration: usize,
    },
    /// Certified early stopping was requested (`tol > 0`) but the
    /// residual never plateaued within the iteration budget.
    NoConvergence {
        /// Sweeps actually run before the budget was exhausted.
        iterations: usize,
    },
}

impl std::fmt::Display for FactorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FactorError::Singular { update, iteration } => write!(
                f,
                "ALS {update}-update hit a singular normal-equations system at sweep \
                 {iteration}; raise lambda to regularize"
            ),
            FactorError::NonFinite { iteration } => {
                write!(f, "ALS factors became non-finite at sweep {iteration}")
            }
            FactorError::NoConvergence { iterations } => {
                write!(f, "ALS residual did not plateau within {iterations} sweeps")
            }
        }
    }
}

impl std::error::Error for FactorError {}

/// ALS configuration. `rank` is clamped to the matrix dimension.
#[derive(Clone, Debug)]
pub struct AlsConfig {
    /// Latent dimensionality r.
    pub rank: usize,
    /// Sweep budget. With `tol == 0` exactly this many sweeps run; with
    /// `tol > 0` it is the upper bound before [`FactorError::NoConvergence`].
    pub iterations: usize,
    /// Ridge regularization λ applied to both normal-equations systems.
    pub lambda: f64,
    /// Seed for the deterministic random init of `X`.
    pub seed: u64,
    /// Relative residual-plateau tolerance for certified early stopping.
    ///
    /// `0.0` (fixed-sweep mode): run exactly `iterations` sweeps from the
    /// seeded init; any `warm_x` is ignored so the fit is a pure function
    /// of `(a, config)` and `NoConvergence` can never fire. `> 0`
    /// (certified mode): stop once a sweep shrinks the residual by at
    /// most `tol` relative, honor `warm_x`, and error out if the budget
    /// is exhausted without a plateau.
    pub tol: f64,
}

/// A fitted factorization with its certified residual.
#[derive(Clone, Debug)]
pub struct AlsFit {
    /// Node embeddings, `n × r`.
    pub x: Matrix,
    /// Core interaction matrix, `r × r`.
    pub r: Matrix,
    /// Certified Frobenius residual `‖A − XRXᵀ‖_F` at the final factors.
    pub residual: f64,
    /// ALS sweeps actually run.
    pub iterations: usize,
    /// Whether the fit started from a caller-provided warm `X`.
    pub warm_started: bool,
}

/// Splitmix64-hashed unit-interval value for init element `idx`, shifted
/// to `[-0.5, 0.5)`. A pure function of `(seed, idx)`: element `m` of the
/// row-major init matrix sees state `seed + (m + 2)·φ`, exactly the
/// stream the historical serial init walked — which is what makes
/// *partial* warm initialization possible (warm rows copied, tail rows
/// drawn at their original positions in the stream).
fn init_value(seed: u64, idx: u64) -> f64 {
    let mut z = seed.wrapping_add(PHI.wrapping_mul(idx.wrapping_add(2)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z as f64 / u64::MAX as f64) - 0.5
}

/// The deterministic seeded init for `X`: `n × rank`, every element a
/// pure function of `(seed, position)`.
pub fn init_factors(n: usize, rank: usize, seed: u64) -> Matrix {
    let mut x = Matrix::zeros(n, rank);
    for (m, slot) in x.data_mut().iter_mut().enumerate() {
        *slot = init_value(seed, m as u64);
    }
    x
}

/// Frobenius residual `‖A − XRXᵀ‖_F` for the adjacency `A` of `snap`,
/// computed sparsely:
///
/// ```text
/// ‖A − XRXᵀ‖²_F = ‖A‖²_F − 2·⟨A, XRXᵀ⟩ + ‖XRXᵀ‖²_F
/// ```
///
/// `‖A‖²_F` is `2E`, the count of unit entries. The cross term is one
/// pass over the nonzeros (`Σ_{c∈Γ(u)} dot((XR)_u, X_c)` with `XR`
/// precomputed), and `‖XRXᵀ‖²_F = tr(RᵀG·RG)` with `G = XᵀX` needs only
/// `r × r` products. Nothing `n × n` is ever materialized, so this
/// doubles as the per-sweep certification check at preset scale.
///
/// The nonzero pass is parallelized over fixed 1024-row chunks whose
/// partial sums are folded in chunk order, so the value is bit-identical
/// for every `threads` count.
pub fn frobenius_residual(snap: &Snapshot, x: &Matrix, r: &Matrix, threads: usize) -> f64 {
    let n = snap.node_count();
    assert_eq!(x.rows(), n, "X row mismatch");
    assert_eq!(x.cols(), r.rows(), "X/R rank mismatch");
    assert_eq!(r.rows(), r.cols(), "core must be square");
    let xr = x.matmul(r); // n × r
    let chunks = n.div_ceil(RESIDUAL_ROW_CHUNK).max(1);
    let parts = osn_graph::par::run_indexed(chunks, threads.max(1), |b| {
        let lo = b * RESIDUAL_ROW_CHUNK;
        let hi = ((b + 1) * RESIDUAL_ROW_CHUNK).min(n);
        let mut cross = 0.0;
        for i in lo..hi {
            let xri = xr.row(i);
            for &c in snap.neighbors(i as NodeId) {
                let xc = x.row(c as usize);
                let mut dot = 0.0;
                for (p, q) in xri.iter().zip(xc) {
                    dot += p * q;
                }
                cross += dot;
            }
        }
        cross
    });
    // Every entry of A is 1, so ‖A‖²_F counts them exactly.
    let norm_a = (2 * snap.edge_count()) as f64;
    let mut cross = 0.0;
    for pc in parts {
        cross += pc;
    }
    // ‖XRXᵀ‖²_F = tr(Rᵀ G R G) = Σ_{i,k} (RᵀG)_{ik} (RG)_{ki}.
    let g = x.gram();
    let m1 = r.transpose().matmul(&g);
    let m2 = r.matmul(&g);
    let k = r.rows();
    let mut tr = 0.0;
    for i in 0..k {
        for j in 0..k {
            tr += m1[(i, j)] * m2[(j, i)];
        }
    }
    // Cancellation near an exact fit can push the sum a few ulps negative.
    (norm_a - 2.0 * cross + tr).max(0.0).sqrt()
}

/// Solves `denomᵀ xᵢ = numerᵢ` for every row `i`, writing solutions into
/// the rows of `x`. All rows share one LU factorization and each row's
/// substitution arithmetic is [`LuFactors::solve_into`] regardless of the
/// partition, so the blocked result is bit-identical to the serial
/// row-by-row loop (and to `solve_many` on the same system).
fn solve_rows_blocked(lu: &LuFactors, numer: &Matrix, x: &mut Matrix, threads: usize) {
    let n = numer.rows();
    let width = numer.cols();
    if threads <= 1 || n < PAR_SOLVE_THRESHOLD {
        for i in 0..n {
            lu.solve_into(numer.row(i), x.row_mut(i));
        }
        return;
    }
    let blocks = osn_graph::par::block_ranges(n, threads * 4);
    let parts = osn_graph::par::run_indexed(blocks.len(), threads, |b| {
        let range = blocks[b].clone();
        let mut out = vec![0.0; range.len() * width];
        for (k, i) in range.enumerate() {
            lu.solve_into(numer.row(i), &mut out[k * width..(k + 1) * width]);
        }
        out
    });
    let mut at = 0;
    for part in parts {
        x.data_mut()[at..at + part.len()].copy_from_slice(&part);
        at += part.len();
    }
}

/// Fits `A ≈ X R Xᵀ` to the adjacency `A` of `snap` by blocked ALS.
///
/// `A·X` products run through [`sparse::spmm_into_t`] on `threads`
/// workers and the X-update's independent row solves are sharded the
/// same way; everything else (`r × r` solves, `n × r` updates) matches
/// the dense reference operation for operation, so the result is
/// bit-identical to a serial dense fit at any thread count.
///
/// `warm` seeds both factors when certified early stopping is active
/// (`config.tol > 0`): embedding rows present in the warm `X` are
/// copied, any tail rows (graph growth) are drawn from the deterministic
/// init at their original stream positions, and the warm core `R`
/// replaces the identity start when its rank matches. Warm-starting `X`
/// alone is counter-productive — a converged embedding paired with an
/// identity core starts *further* from the fixed point than the seeded
/// init — so the factors travel together. In fixed-sweep mode
/// (`tol == 0`) `warm` is ignored — see [`AlsConfig::tol`].
///
/// # Errors
///
/// [`FactorError::Singular`] when a normal-equations solve has no usable
/// pivot (recoverable by raising `lambda`), [`FactorError::NonFinite`]
/// when factors or residual leave the finite range, and
/// [`FactorError::NoConvergence`] when `tol > 0` and the residual never
/// plateaus within the budget.
pub fn als_fit(
    snap: &Snapshot,
    config: &AlsConfig,
    warm: Option<(&Matrix, &Matrix)>,
    threads: usize,
) -> Result<AlsFit, FactorError> {
    let n = snap.node_count();
    let r = config.rank.min(n.max(1));
    let mut x = init_factors(n, r, config.seed);
    let mut core = Matrix::identity(r);
    let mut warm_started = false;
    if config.tol > 0.0 {
        if let Some((wx, wr)) = warm {
            if wx.cols() == r && wx.rows() > 0 {
                let rows = wx.rows().min(n);
                for i in 0..rows {
                    x.row_mut(i).copy_from_slice(wx.row(i));
                }
                warm_started = true;
            }
            if warm_started && wr.rows() == r && wr.cols() == r {
                core = wr.clone();
            }
        }
    }
    let mut ax = Matrix::zeros(n, r);
    let mut prev = f64::INFINITY;
    let mut residual = f64::NAN;
    let mut iterations = 0;
    let mut converged = config.tol <= 0.0;

    for it in 0..config.iterations {
        // --- X update: X = [A X (Rᵀ + R)] · [R G Rᵀ + Rᵀ G R + λI]⁻¹ ---
        sparse::spmm_into_t(snap, &x, &mut ax, threads);
        let r_sym = &core.transpose() + &core;
        let numer = ax.matmul(&r_sym);
        let g = x.gram();
        let rg = core.matmul(&g);
        let mut denom = &rg.matmul(&core.transpose()) + &core.transpose().matmul(&g).matmul(&core);
        for d in 0..r {
            denom[(d, d)] += config.lambda;
        }
        // X = numer · denom⁻¹ ⇒ solve denomᵀ Xᵀ = numerᵀ row-wise. The
        // factorization happens once; the n independent row solves are
        // sharded across threads like the spmm row blocks.
        let lu = denom
            .transpose()
            .lu_factor()
            .ok_or(FactorError::Singular { update: "X", iteration: it })?;
        solve_rows_blocked(&lu, &numer, &mut x, threads);

        // --- R update: R = (G + λI)⁻¹ Xᵀ A X (G + λI)⁻¹ ---
        let mut g_reg = x.gram();
        for d in 0..r {
            g_reg[(d, d)] += config.lambda;
        }
        sparse::spmm_into_t(snap, &x, &mut ax, threads);
        let xtax = x.transpose().matmul(&ax); // r × r
                                              // Left solve: (G+λI) Y = XᵀAX, column RHS.
        let rhs: Vec<Vec<f64>> = (0..r).map(|j| (0..r).map(|i| xtax[(i, j)]).collect()).collect();
        let cols =
            g_reg.solve_many(&rhs).ok_or(FactorError::Singular { update: "R", iteration: it })?;
        let mut y = Matrix::zeros(r, r);
        for (j, col) in cols.iter().enumerate() {
            for i in 0..r {
                y[(i, j)] = col[i];
            }
        }
        // Right solve: R (G+λI) = Y ⇒ (G+λI)ᵀ Rᵀ = Yᵀ, row RHS.
        let rhs2: Vec<Vec<f64>> = (0..r).map(|i| y.row(i).to_vec()).collect();
        let rows = g_reg
            .transpose()
            .solve_many(&rhs2)
            .ok_or(FactorError::Singular { update: "R", iteration: it })?;
        for (i, row) in rows.iter().enumerate() {
            core.row_mut(i).copy_from_slice(row);
        }

        if x.data().iter().chain(core.data()).any(|v| !v.is_finite()) {
            return Err(FactorError::NonFinite { iteration: it });
        }

        // --- Certification: sparse residual, drives early stopping. ---
        residual = frobenius_residual(snap, &x, &core, threads);
        if !residual.is_finite() {
            return Err(FactorError::NonFinite { iteration: it });
        }
        iterations = it + 1;
        if config.tol > 0.0 && prev.is_finite() && prev - residual <= config.tol * prev.max(1.0) {
            converged = true;
            break;
        }
        prev = residual;
    }
    if !converged {
        return Err(FactorError::NoConvergence { iterations });
    }
    if residual.is_nan() {
        // Zero-sweep budget in fixed mode: certify the init factors.
        residual = frobenius_residual(snap, &x, &core, threads);
    }
    Ok(AlsFit { x, r: core, residual, iterations, warm_started })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two 4-cliques bridged by one edge.
    fn two_cliques() -> Snapshot {
        let mut edges = Vec::new();
        for a in 0..4u32 {
            for b in a + 1..4 {
                edges.push((a, b));
            }
        }
        for a in 4..8u32 {
            for b in a + 1..8 {
                edges.push((a, b));
            }
        }
        edges.push((3, 4));
        Snapshot::from_edges(8, &edges)
    }

    fn cfg() -> AlsConfig {
        AlsConfig { rank: 4, iterations: 25, lambda: 0.01, seed: 7, tol: 0.0 }
    }

    #[test]
    fn init_matches_historical_serial_stream() {
        // The legacy dense init advanced a Weyl state by φ per element
        // starting from seed + φ, then hashed. Element m must therefore
        // see state seed + (m + 2)·φ.
        let (n, r, seed) = (5usize, 3usize, 7u64);
        let x = init_factors(n, r, seed);
        let mut state = seed.wrapping_add(PHI);
        for i in 0..n {
            for j in 0..r {
                state = state.wrapping_add(PHI);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                let legacy = (z as f64 / u64::MAX as f64) - 0.5;
                assert_eq!(x[(i, j)], legacy, "init diverged at ({i},{j})");
            }
        }
    }

    #[test]
    fn sparse_residual_matches_dense_computation() {
        let a = two_cliques();
        let fit = als_fit(&a, &cfg(), None, 1).expect("fit");
        let dense = {
            let rec = fit.x.matmul(&fit.r).matmul(&fit.x.transpose());
            (&sparse::to_dense(&a) - &rec).frobenius_norm()
        };
        for threads in [1usize, 2, 4, 8] {
            let sparse = frobenius_residual(&a, &fit.x, &fit.r, threads);
            assert!(
                (sparse - dense).abs() <= 1e-9 * dense.max(1.0),
                "sparse residual {sparse} != dense {dense} at {threads} threads"
            );
        }
    }

    #[test]
    fn residual_is_bit_identical_across_threads() {
        let a = two_cliques();
        let fit = als_fit(&a, &cfg(), None, 1).expect("fit");
        let base = frobenius_residual(&a, &fit.x, &fit.r, 1);
        for threads in [2usize, 4, 8] {
            assert_eq!(frobenius_residual(&a, &fit.x, &fit.r, threads), base);
        }
    }

    #[test]
    fn fit_reduces_residual_and_certifies_it() {
        let a = two_cliques();
        let init = als_fit(&a, &AlsConfig { iterations: 0, ..cfg() }, None, 1).expect("init fit");
        let fit = als_fit(&a, &cfg(), None, 1).expect("fit");
        assert!(fit.residual < init.residual * 0.6, "{} → {}", init.residual, fit.residual);
        assert_eq!(fit.residual, frobenius_residual(&a, &fit.x, &fit.r, 1));
        assert_eq!(fit.iterations, 25);
    }

    #[test]
    fn blocked_fit_is_thread_invariant() {
        let a = two_cliques();
        let base = als_fit(&a, &cfg(), None, 1).expect("fit");
        for threads in [2usize, 4, 8] {
            let fit = als_fit(&a, &cfg(), None, threads).expect("fit");
            assert_eq!(base.x.max_abs_diff(&fit.x), 0.0, "X diverged at {threads} threads");
            assert_eq!(base.r.max_abs_diff(&fit.r), 0.0, "R diverged at {threads} threads");
            assert_eq!(base.residual, fit.residual);
        }
    }

    #[test]
    fn unregularized_rank_deficient_system_is_singular() {
        // One edge in a 4-node graph: after the first X update the
        // embedding has rank ≤ 1 < 3, so G = XᵀX is singular and the
        // unregularized R update must fail structurally.
        let a = Snapshot::from_edges(4, &[(0, 1)]);
        let bad = AlsConfig { rank: 3, iterations: 5, lambda: 0.0, seed: 7, tol: 0.0 };
        let err = als_fit(&a, &bad, None, 1).expect_err("singular system must surface");
        assert!(matches!(err, FactorError::Singular { .. }), "got {err:?}");
        // The same system is recoverable with any positive ridge.
        let good = AlsConfig { lambda: 0.01, ..bad };
        als_fit(&a, &good, None, 1).expect("regularized fit recovers");
    }

    #[test]
    fn non_finite_lambda_is_structured_error() {
        let a = two_cliques();
        let bad = AlsConfig { lambda: f64::NAN, ..cfg() };
        let err = als_fit(&a, &bad, None, 1).expect_err("NaN lambda must surface");
        assert!(matches!(err, FactorError::NonFinite { .. }), "got {err:?}");
    }

    #[test]
    fn certified_mode_flags_exhausted_budget() {
        let a = two_cliques();
        // One sweep can never certify a plateau (there is no previous
        // finite residual to compare against).
        let tight = AlsConfig { iterations: 1, tol: 1e-9, ..cfg() };
        let err = als_fit(&a, &tight, None, 1).expect_err("budget too small");
        assert_eq!(err, FactorError::NoConvergence { iterations: 1 });
        // A real budget converges and stops early.
        let certified = AlsConfig { iterations: 200, tol: 1e-7, ..cfg() };
        let fit = als_fit(&a, &certified, None, 1).expect("certified fit");
        assert!(fit.iterations < 200, "expected early stop, ran {}", fit.iterations);
    }

    #[test]
    fn warm_start_ignored_in_fixed_sweep_mode() {
        let a = two_cliques();
        let cold = als_fit(&a, &cfg(), None, 1).expect("cold");
        let warm_src = Matrix::from_vec(8, 4, vec![9.0; 32]);
        let warm_core = Matrix::identity(4);
        let warm = als_fit(&a, &cfg(), Some((&warm_src, &warm_core)), 1).expect("warm ignored");
        assert!(!warm.warm_started);
        assert_eq!(cold.x.max_abs_diff(&warm.x), 0.0);
        assert_eq!(cold.r.max_abs_diff(&warm.r), 0.0);
    }

    #[test]
    fn warm_start_used_in_certified_mode() {
        let a = two_cliques();
        let certified = AlsConfig { iterations: 200, tol: 1e-7, ..cfg() };
        let cold = als_fit(&a, &certified, None, 1).expect("cold");
        let warm = als_fit(&a, &certified, Some((&cold.x, &cold.r)), 1).expect("warm");
        assert!(warm.warm_started);
        assert!(
            warm.iterations <= cold.iterations,
            "warm start from the converged factors took more sweeps ({} > {})",
            warm.iterations,
            cold.iterations
        );
        // Both fits certify comparable residuals.
        assert!(warm.residual <= cold.residual * 1.5 + 1e-9);
    }

    #[test]
    fn warm_start_with_fewer_rows_fills_tail_from_init() {
        // A warm matrix from a smaller snapshot seeds the head rows; the
        // tail is drawn from the deterministic init at its original
        // stream positions. Starting from the explicit head/tail blend
        // must therefore reproduce the partial warm fit bit for bit.
        let certified = AlsConfig { rank: 2, iterations: 100, lambda: 0.01, seed: 7, tol: 1e-7 };
        let warm_small = init_factors(3, 2, 99);
        let warm_core = Matrix::identity(2);
        let a = two_cliques();
        let mut blend = init_factors(8, 2, certified.seed);
        for i in 0..3 {
            blend.row_mut(i).copy_from_slice(warm_small.row(i));
        }
        let partial =
            als_fit(&a, &certified, Some((&warm_small, &warm_core)), 1).expect("partial warm");
        let explicit =
            als_fit(&a, &certified, Some((&blend, &warm_core)), 1).expect("explicit blend");
        assert!(partial.warm_started && explicit.warm_started);
        assert_eq!(partial.x.max_abs_diff(&explicit.x), 0.0);
        assert_eq!(partial.r.max_abs_diff(&explicit.r), 0.0);
        assert_eq!(partial.iterations, explicit.iterations);
    }

    #[test]
    fn empty_matrix_fits_cleanly() {
        // An edgeless snapshot: A = 0, so the first X update zeroes X.
        let a = Snapshot::from_edges(3, &[(0, 1)]).induced(&[]);
        assert_eq!((a.node_count(), a.edge_count()), (3, 0));
        let fit = als_fit(&a, &cfg(), None, 1).expect("empty fit");
        assert_eq!((fit.x.rows(), fit.x.cols()), (3, 3));
        assert!(fit.x.data().iter().chain(fit.r.data()).all(|&v| v == 0.0));
        assert_eq!(fit.residual, 0.0);
    }
}
