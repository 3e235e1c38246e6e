//! The serial reference for Rescal's blocked ALS core, the per-pair
//! bilinear score the batched scoring path is checked against, and the
//! reconstruction error the fit tests measure.

use osn_graph::snapshot::Snapshot;
use osn_graph::NodeId;
use osn_linalg::factor::{self, AlsFit};
use osn_linalg::{sparse, Matrix};
use osn_metrics::rescal::Rescal;
use osn_metrics::solver::SolverError;

/// `A·X` for the adjacency `A` of `snap`, serially: each output row adds
/// the rows of `x` at its neighbours, in ascending order, from `0.0`.
fn adjacency_times(snap: &Snapshot, x: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(snap.node_count(), x.cols());
    for i in 0..snap.node_count() {
        let row = out.row_mut(i);
        for &c in snap.neighbors(i as NodeId) {
            for (o, &v) in row.iter_mut().zip(x.row(c as usize)) {
                *o += v;
            }
        }
    }
    out
}

/// The original serial ALS loop, with the same sweeps and guarded updates
/// as [`Rescal::fit_t`] but every `A·X` a serial row fold
/// (`adjacency_times`) and every solve `solve_many`. The
/// blocked kernel's per-row fold is arithmetic-identical to that fold, so
/// the two fits are bit-identical at every thread count.
///
/// # Errors
///
/// The same structured errors as [`Rescal::fit_t`], at the same sweep.
pub fn fit_dense(rescal: &Rescal, snap: &Snapshot) -> Result<AlsFit, SolverError> {
    let n = snap.node_count();
    let r = rescal.rank.min(n.max(1));

    let mut x = factor::init_factors(n, r, rescal.seed);
    let mut core = Matrix::identity(r);

    for it in 0..rescal.iterations {
        // --- X update ---
        // numer = A X (Rᵀ + R)   (A symmetric).
        let ax = adjacency_times(snap, &x);
        let r_sym = &core.transpose() + &core;
        let numer = ax.matmul(&r_sym);
        // denom = R G Rᵀ + Rᵀ G R + λI, G = XᵀX.
        let g = x.gram();
        let rg = core.matmul(&g);
        let mut denom = &rg.matmul(&core.transpose()) + &core.transpose().matmul(&g).matmul(&core);
        for d in 0..r {
            denom[(d, d)] += rescal.lambda;
        }
        // X = numer · denom⁻¹  ⇒ solve denomᵀ Xᵀ = numerᵀ row-wise.
        let denom_t = denom.transpose();
        let rhs: Vec<Vec<f64>> = (0..n).map(|i| numer.row(i).to_vec()).collect();
        let rows = denom_t
            .solve_many(&rhs)
            .ok_or(SolverError::Singular { metric: "Rescal", iteration: it })?;
        for (i, row) in rows.iter().enumerate() {
            x.row_mut(i).copy_from_slice(row);
        }

        // --- R update ---
        // R = (G + λI)⁻¹ Xᵀ A X (G + λI)⁻¹.
        let mut g_reg = x.gram();
        for d in 0..r {
            g_reg[(d, d)] += rescal.lambda;
        }
        let ax = adjacency_times(snap, &x); // n × r
        let xtax = x.transpose().matmul(&ax); // r × r
                                              // Left solve: (G+λI) Y = XᵀAX.
        let rhs: Vec<Vec<f64>> = (0..r).map(|j| (0..r).map(|i| xtax[(i, j)]).collect()).collect();
        let cols = g_reg
            .solve_many(&rhs)
            .ok_or(SolverError::Singular { metric: "Rescal", iteration: it })?;
        let mut y = Matrix::zeros(r, r);
        for (j, coljj) in cols.iter().enumerate() {
            for i in 0..r {
                y[(i, j)] = coljj[i];
            }
        }
        // Right solve: R (G+λI) = Y ⇒ (G+λI)ᵀ Rᵀ = Yᵀ.
        let rhs2: Vec<Vec<f64>> = (0..r).map(|i| y.row(i).to_vec()).collect();
        let rows = g_reg
            .transpose()
            .solve_many(&rhs2)
            .ok_or(SolverError::Singular { metric: "Rescal", iteration: it })?;
        for (i, row) in rows.iter().enumerate() {
            core.row_mut(i).copy_from_slice(row);
        }

        if x.data().iter().chain(core.data()).any(|v| !v.is_finite()) {
            return Err(SolverError::NonFinite { metric: "Rescal", iteration: it });
        }
    }
    Ok(AlsFit { x, r: core })
}

/// The bilinear score `x_uᵀ R x_v + x_vᵀ R x_u` of a fitted model, folded
/// per pair as `Σ_i x[i]·(R·x)[i]`. The batched
/// [`bilinear_scores_t`](osn_metrics::solver::bilinear_scores_t) folds
/// `X R` first, so the two agree to reassociation tolerance, not bit for
/// bit.
pub fn model_score(model: &AlsFit, u: NodeId, v: NodeId) -> f64 {
    let xu = model.x.row(u as usize);
    let xv = model.x.row(v as usize);
    let r = &model.r;
    let k = r.rows();
    let mut uv = 0.0;
    let mut vu = 0.0;
    for i in 0..k {
        let ri = r.row(i);
        let mut ru_v = 0.0;
        let mut rv_u = 0.0;
        for j in 0..k {
            ru_v += ri[j] * xv[j];
            rv_u += ri[j] * xu[j];
        }
        uv += xu[i] * ru_v;
        vu += xv[i] * rv_u;
    }
    uv + vu
}

/// The Frobenius reconstruction error `‖A − XRXᵀ‖_F` of a fit to the
/// adjacency `A` of `snap`, computed densely: `O(n²)` memory, for the
/// small graphs of the fit tests.
pub fn frobenius_residual(snap: &Snapshot, fit: &AlsFit) -> f64 {
    let reconstruction = fit.x.matmul(&fit.r).matmul(&fit.x.transpose());
    let diff = &sparse::to_dense(snap) - &reconstruction;
    diff.data().iter().map(|d| d * d).sum::<f64>().sqrt()
}
