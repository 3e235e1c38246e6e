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
//! factors behind a `None` from `solve_many`). A fit runs a fixed number
//! of sweeps from the seeded init, so it is a pure function of the
//! snapshot and the config.

use crate::dense::{LuFactors, Matrix};
use crate::sparse;
use osn_graph::snapshot::Snapshot;

/// Weyl-sequence increment shared with the historical dense init.
const PHI: u64 = 0x9E37_79B9_7F4A_7C15;

/// Minimum row count before the X-update row solves shard across
/// threads; below this the spawn overhead beats the work (mirrors the
/// CSR kernel's parallel-row threshold).
const PAR_SOLVE_THRESHOLD: usize = 256;

/// Structured failure from [`als_fit`]. Mirrors the batched solver error
/// taxonomy in `osn-metrics` (`Singular` / `NonFinite`) so callers can map
/// it 1:1 into their audit panic class.
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
    /// A factor left the finite range (NaN/∞), e.g. from a non-finite
    /// `lambda` or an overflowing system.
    NonFinite {
        /// Zero-based ALS sweep index.
        iteration: usize,
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
        }
    }
}

impl std::error::Error for FactorError {}

/// ALS configuration. `rank` is clamped to the matrix dimension.
#[derive(Clone, Debug)]
pub struct AlsConfig {
    /// Latent dimensionality r.
    pub rank: usize,
    /// ALS sweeps to run.
    pub iterations: usize,
    /// Ridge regularization λ applied to both normal-equations systems.
    pub lambda: f64,
    /// Seed for the deterministic random init of `X`.
    pub seed: u64,
}

/// A fitted factorization.
#[derive(Clone, Debug)]
pub struct AlsFit {
    /// Node embeddings, `n × r`.
    pub x: Matrix,
    /// Core interaction matrix, `r × r`.
    pub r: Matrix,
}

/// Splitmix64-hashed unit-interval value for init element `idx`, shifted
/// to `[-0.5, 0.5)`. A pure function of `(seed, idx)`: element `m` of the
/// row-major init matrix sees state `seed + (m + 2)·φ`, exactly the
/// stream the historical serial init walked.
fn init_value(seed: u64, idx: u64) -> f64 {
    let z = osn_graph::mix64(seed.wrapping_add(PHI.wrapping_mul(idx.wrapping_add(2))));
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
/// bit-identical to a serial dense fit at any thread count. Every fit
/// runs `config.iterations` sweeps from the seeded init `X` and the
/// identity core `R`.
///
/// # Errors
///
/// [`FactorError::Singular`] when a normal-equations solve has no usable
/// pivot (recoverable by raising `lambda`), and [`FactorError::NonFinite`]
/// when a factor leaves the finite range.
pub fn als_fit(snap: &Snapshot, config: &AlsConfig, threads: usize) -> Result<AlsFit, FactorError> {
    let n = snap.node_count();
    let r = config.rank.min(n.max(1));
    let mut x = init_factors(n, r, config.seed);
    let mut core = Matrix::identity(r);
    let mut ax = Matrix::zeros(n, r);

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
    }
    Ok(AlsFit { x, r: core })
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
        AlsConfig { rank: 4, iterations: 25, lambda: 0.01, seed: 7 }
    }

    /// `‖A − XRXᵀ‖_F`, densely.
    fn residual(a: &Snapshot, fit: &AlsFit) -> f64 {
        let rec = fit.x.matmul(&fit.r).matmul(&fit.x.transpose());
        (&sparse::to_dense(a) - &rec).data().iter().map(|d| d * d).sum::<f64>().sqrt()
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
    fn fit_reduces_residual_and_certifies_it() {
        let a = two_cliques();
        let init = als_fit(&a, &AlsConfig { iterations: 0, ..cfg() }, 1).expect("init fit");
        assert_eq!(init.x.max_abs_diff(&init_factors(8, 4, 7)), 0.0, "zero sweeps keep the init");
        assert_eq!(init.r.max_abs_diff(&Matrix::identity(4)), 0.0);
        let fit = als_fit(&a, &cfg(), 1).expect("fit");
        let before = residual(&a, &init);
        let after = residual(&a, &fit);
        assert!(after < before * 0.6, "{before} → {after}");
    }

    #[test]
    fn blocked_fit_is_thread_invariant() {
        let a = two_cliques();
        let base = als_fit(&a, &cfg(), 1).expect("fit");
        for threads in [2usize, 4, 8] {
            let fit = als_fit(&a, &cfg(), threads).expect("fit");
            assert_eq!(base.x.max_abs_diff(&fit.x), 0.0, "X diverged at {threads} threads");
            assert_eq!(base.r.max_abs_diff(&fit.r), 0.0, "R diverged at {threads} threads");
        }
    }

    #[test]
    fn unregularized_rank_deficient_system_is_singular() {
        // One edge in a 4-node graph: after the first X update the
        // embedding has rank ≤ 1 < 3, so G = XᵀX is singular and the
        // unregularized R update must fail structurally.
        let a = Snapshot::from_edges(4, &[(0, 1)]);
        let bad = AlsConfig { rank: 3, iterations: 5, lambda: 0.0, seed: 7 };
        let err = als_fit(&a, &bad, 1).expect_err("singular system must surface");
        assert!(matches!(err, FactorError::Singular { .. }), "got {err:?}");
        // The same system is recoverable with any positive ridge.
        let good = AlsConfig { lambda: 0.01, ..bad };
        als_fit(&a, &good, 1).expect("regularized fit recovers");
    }

    #[test]
    fn non_finite_lambda_is_structured_error() {
        let a = two_cliques();
        let bad = AlsConfig { lambda: f64::NAN, ..cfg() };
        let err = als_fit(&a, &bad, 1).expect_err("NaN lambda must surface");
        assert!(matches!(err, FactorError::NonFinite { .. }), "got {err:?}");
    }

    #[test]
    fn empty_matrix_fits_cleanly() {
        // The one edgeless snapshot, a live graph's version 0: no nodes,
        // so the rank clamps to 1 and the R update zeroes the core.
        let a = osn_graph::live::LiveGraph::new().publish().snapshot;
        assert_eq!((a.node_count(), a.edge_count()), (0, 0));
        let fit = als_fit(&a, &cfg(), 1).expect("empty fit");
        assert_eq!((fit.x.rows(), fit.x.cols(), fit.r.rows()), (0, 1, 1));
        assert!(fit.r.data().iter().all(|&v| v == 0.0));
    }
}
