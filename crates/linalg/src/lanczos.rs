//! Symmetric eigensolvers.
//!
//! Two routines live here, sharing one implicit-shift QL step:
//!
//! * [`symmetric_eigen`] — all eigenpairs of a dense symmetric matrix:
//!   Householder reduction to tridiagonal form, then implicit-shift QL on
//!   the tridiagonal (the textbook `tred2` + `tqli` pair). O(n³), for
//!   matrices up to a few hundred rows.
//! * [`lanczos_top_k`] — the Lanczos process with *full*
//!   reorthogonalization against all previous basis vectors, returning the
//!   `k` largest-magnitude eigenpairs of a snapshot's adjacency matrix,
//!   read in place through [`sparse::matvec_into`]. Its tridiagonal
//!   projection goes straight to the QL step. This is what the
//!   low-rank Katz metric (`Katz_lr` in the paper, after Acar et al. \[1\])
//!   uses to approximate `Σ βˡ Aˡ = U (1/(1-βλ) - 1) Uᵀ`.
//!
//! Full reorthogonalization costs O(m²n) for m iterations but keeps the
//! basis numerically orthogonal, which matters because adjacency spectra of
//! social graphs have tight clusters of eigenvalues.

use crate::dense::{dot, norm, Matrix};
use crate::sparse;
use osn_graph::snapshot::Snapshot;
use std::fmt;

/// QL iterations allowed per eigenvalue before [`EigenError::NoConvergence`].
/// Implicit-shift QL converges cubically; two or three iterations per
/// eigenvalue are typical.
pub const QL_MAX_ITERS: usize = 30;

/// An eigen-decomposition result: `values[i]` pairs with the column
/// `vectors[:, i]`.
#[derive(Clone, Debug)]
pub struct EigenPairs {
    /// Eigenvalues.
    pub values: Vec<f64>,
    /// Eigenvectors, stored as columns of an `n × k` matrix.
    pub vectors: Matrix,
}

impl EigenPairs {
    /// The `k` pairs of largest `|λ|`. The sort is stable, so pairs of
    /// equal magnitude keep their order in `self`: after a solver's
    /// descending order, `+λ` comes before `−λ`.
    pub fn top_by_magnitude(&self, k: usize) -> EigenPairs {
        let mut order: Vec<usize> = (0..self.values.len()).collect();
        // NaN-safe magnitude ordering: total_cmp sorts any NaN
        // deterministically instead of panicking mid-sort.
        order.sort_by(|&i, &j| self.values[j].abs().total_cmp(&self.values[i].abs()));
        order.truncate(k);
        let rows = self.vectors.rows();
        let mut vectors = Matrix::zeros(rows, order.len());
        for r in 0..rows {
            let src = self.vectors.row(r);
            for (dst, &c) in vectors.row_mut(r).iter_mut().zip(&order) {
                *dst = src[c];
            }
        }
        EigenPairs { values: order.iter().map(|&c| self.values[c]).collect(), vectors }
    }
}

/// Why a symmetric eigensolve failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EigenError {
    /// The input held a NaN or infinite entry, or an eigenvalue came out
    /// non-finite.
    NonFinite,
    /// The QL iteration for one eigenvalue used up [`QL_MAX_ITERS`].
    NoConvergence {
        /// Iterations spent on that eigenvalue.
        iterations: usize,
    },
}

impl fmt::Display for EigenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EigenError::NonFinite => write!(f, "symmetric eigensolve met a non-finite value"),
            EigenError::NoConvergence { iterations } => {
                write!(f, "QL iteration did not converge within {iterations} iterations")
            }
        }
    }
}

impl std::error::Error for EigenError {}

/// All eigenpairs of the dense symmetric matrix `a`, by descending
/// eigenvalue: Householder reduction to tridiagonal form, then
/// implicit-shift QL. Only the lower triangle of `a` is read.
///
/// # Errors
/// [`EigenError::NonFinite`] if an entry of `a` is NaN or infinite;
/// [`EigenError::NoConvergence`] if QL exhausts its iteration budget.
///
/// # Panics
/// Panics if `a` is not square.
pub fn symmetric_eigen(a: &Matrix) -> Result<EigenPairs, EigenError> {
    assert_eq!(a.rows(), a.cols(), "symmetric_eigen requires a square matrix");
    if !a.data().iter().all(|x| x.is_finite()) {
        return Err(EigenError::NonFinite);
    }
    let mut q = a.clone();
    let (mut diag, mut off) = householder_tridiagonal(&mut q);
    // QL rotates pairs of eigenvectors; as rows of Qᵀ each pair is two
    // contiguous slices.
    let mut vt = q.transpose();
    tridiagonal_ql(&mut diag, &mut off, &mut vt)?;
    Ok(descending(&diag, &vt))
}

/// Reduces the symmetric `a` to tridiagonal form `T = Qᵀ A Q` by
/// Householder reflections, reading only its lower triangle, and
/// overwrites `a` with `Q`. Returns `T`'s diagonal and its off-diagonal,
/// where `off[i]` couples rows `i` and `i + 1` (the last entry is zero).
fn householder_tridiagonal(a: &mut Matrix) -> (Vec<f64>, Vec<f64>) {
    let n = a.rows();
    let mut diag = vec![0.0; n];
    // e[i] couples rows i − 1 and i until the shift at the end.
    let mut e = vec![0.0; n];
    // Annihilate row i left of its subdiagonal, last row first. The
    // reflector's vector u is kept in row i; u/h goes to column i above
    // the diagonal for the accumulation below.
    for i in (1..n).rev() {
        let l = i - 1;
        let mut h = 0.0;
        let scale: f64 = a.row(i)[..=l].iter().map(|x| x.abs()).sum();
        if l == 0 || scale == 0.0 {
            e[i] = a[(i, l)];
        } else {
            for x in &mut a.row_mut(i)[..=l] {
                *x /= scale;
                h += *x * *x;
            }
            let f = a[(i, l)];
            let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
            e[i] = scale * g;
            h -= f * g;
            a[(i, l)] = f - g;
            let u = a.row(i)[..=l].to_vec();
            // p = A u / h into e[..=l], one pass over the lower triangle
            // by rows, and K = uᵀp / 2h.
            let p = &mut e[..=l];
            p.fill(0.0);
            for (k, &uk) in u.iter().enumerate() {
                let row = &a.row(k)[..=k];
                p[k] += dot(row, &u[..=k]);
                for (pj, &akj) in p[..k].iter_mut().zip(row) {
                    *pj += akj * uk;
                }
            }
            let mut upu = 0.0;
            for ((pj, &uj), row) in p.iter_mut().zip(&u).zip(0..) {
                *pj /= h;
                upu += *pj * uj;
                a[(row, i)] = uj / h;
            }
            let hh = upu / (h + h);
            // A ← A − u qᵀ − q uᵀ with q = p − K u, lower triangle only.
            for (qj, &uj) in p.iter_mut().zip(&u) {
                *qj -= hh * uj;
            }
            for (j, (&qj, &uj)) in p.iter().zip(&u).enumerate() {
                let row = &mut a.row_mut(j)[..=j];
                for ((ajk, &qk), &uk) in row.iter_mut().zip(&p[..=j]).zip(&u) {
                    *ajk -= uj * qk + qj * uk;
                }
            }
        }
        diag[i] = h;
    }
    // Accumulate Q = P₁ P₂ ⋯ in place, first reflector innermost. For
    // reflector i, column j < i of the leading i × i block gains
    // −(uᵀ Q[:i, j]) u/h; g holds uᵀ Q[:i, :i] in full first, because no
    // column's update reads another column.
    let mut g = vec![0.0; n];
    for i in 0..n {
        if diag[i] != 0.0 {
            g[..i].fill(0.0);
            for k in 0..i {
                let aik = a[(i, k)];
                for (gj, &akj) in g[..i].iter_mut().zip(&a.row(k)[..i]) {
                    *gj += aik * akj;
                }
            }
            for k in 0..i {
                let aki = a[(k, i)];
                for (akj, &gj) in a.row_mut(k)[..i].iter_mut().zip(&g[..i]) {
                    *akj -= gj * aki;
                }
            }
        }
        diag[i] = a[(i, i)];
        a[(i, i)] = 1.0;
        for j in 0..i {
            a[(j, i)] = 0.0;
            a[(i, j)] = 0.0;
        }
    }
    // Shift e so that e[i] couples rows i and i + 1.
    if n > 0 {
        e.remove(0);
        e.push(0.0);
    }
    (diag, e)
}

/// Implicit-shift QL on the symmetric tridiagonal with diagonal `d` and
/// off-diagonal `e` (`e[i]` couples rows `i` and `i + 1`; `e[n−1]` is
/// working space). On return `d` holds the eigenvalues, unsorted, and each
/// rotation has been applied to rows `i`, `i + 1` of `vt`, so row `p` of
/// `vt` ends as the eigenvector of `d[p]` expressed in `vt`'s start rows.
fn tridiagonal_ql(d: &mut [f64], e: &mut [f64], vt: &mut Matrix) -> Result<(), EigenError> {
    let n = d.len();
    if !d.iter().chain(e.iter()).all(|x| x.is_finite()) {
        return Err(EigenError::NonFinite);
    }
    for l in 0..n {
        let mut iterations = 0;
        loop {
            // Find the first negligible off-diagonal at or after l.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() + dd == dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            if iterations == QL_MAX_ITERS {
                return Err(EigenError::NoConvergence { iterations });
            }
            iterations += 1;
            // Wilkinson-style shift from the leading 2×2 block.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + if g >= 0.0 { r } else { -r });
            let (mut s, mut c, mut p) = (1.0, 1.0, 0.0);
            let mut deflated = false;
            // Chase the bulge up from row m − 1 to row l with Givens
            // rotations.
            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    // Underflow: the matrix split at i + 1; restart.
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    deflated = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                rotate_rows(vt, i, c, s);
            }
            if deflated {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    if d.iter().all(|x| x.is_finite()) {
        Ok(())
    } else {
        Err(EigenError::NonFinite)
    }
}

/// Applies one QL Givens rotation to rows `i` and `i + 1` of `vt`.
fn rotate_rows(vt: &mut Matrix, i: usize, c: f64, s: f64) {
    let cols = vt.cols();
    let (upper, lower) = vt.data_mut().split_at_mut((i + 1) * cols);
    let lo = &mut upper[i * cols..];
    let hi = &mut lower[..cols];
    for (zi, zi1) in lo.iter_mut().zip(hi.iter_mut()) {
        let f = *zi1;
        *zi1 = s * *zi + c * f;
        *zi = c * *zi - s * f;
    }
}

/// Eigenpairs by descending eigenvalue from QL's output: `values[p]`
/// pairs with row `p` of `vt`.
fn descending(values: &[f64], vt: &Matrix) -> EigenPairs {
    let mut order: Vec<usize> = (0..values.len()).collect();
    // NaN-safe descending order: total_cmp keeps the sort total.
    order.sort_by(|&i, &j| values[j].total_cmp(&values[i]));
    let n = vt.cols();
    let mut vectors = Matrix::zeros(n, order.len());
    for (col, &p) in order.iter().enumerate() {
        for (r, &x) in vt.row(p).iter().enumerate() {
            vectors[(r, col)] = x;
        }
    }
    EigenPairs { values: order.iter().map(|&p| values[p]).collect(), vectors }
}

/// Computes the `k` largest-magnitude eigenpairs of the adjacency matrix
/// of `snap` via Lanczos with full reorthogonalization.
///
/// `max_iter` bounds the Krylov dimension (clamped to `n`); `seed` controls
/// the deterministic pseudo-random start vector. The Ritz pairs of the
/// tridiagonal projection are solved exactly by implicit-shift QL, and
/// ties in `|λ|` resolve as in [`EigenPairs::top_by_magnitude`].
///
/// Accuracy: for well-separated extremal eigenvalues the Ritz values
/// converge geometrically; callers wanting residual guarantees can check
/// `‖Ax - λx‖` themselves (the tests do).
///
/// # Errors
/// The QL step's [`EigenError`]: a non-finite projection, or an exhausted
/// iteration budget.
///
/// # Panics
/// Panics if `k == 0`.
pub fn lanczos_top_k(
    snap: &Snapshot,
    k: usize,
    max_iter: usize,
    seed: u64,
) -> Result<EigenPairs, EigenError> {
    assert!(k > 0, "k must be positive");
    let n = snap.node_count();
    let k = k.min(n);
    let m = max_iter.max(2 * k + 10).min(n);

    // Deterministic start vector from a splitmix64 stream.
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        (osn_graph::mix64(state) as f64 / u64::MAX as f64) - 0.5
    };
    let mut q = vec![0.0; n];
    for x in &mut q {
        *x = next();
    }
    let qn = norm(&q);
    for x in &mut q {
        *x /= qn;
    }

    let mut basis: Vec<Vec<f64>> = vec![q.clone()];
    let mut alphas: Vec<f64> = Vec::with_capacity(m);
    let mut betas: Vec<f64> = Vec::with_capacity(m);
    let mut w = vec![0.0; n];

    for j in 0..m {
        sparse::matvec_into(snap, &basis[j], &mut w);
        let alpha = dot(&w, &basis[j]);
        alphas.push(alpha);
        // w ← w − α qⱼ − β qⱼ₋₁, then full reorthogonalization.
        for (wi, qi) in w.iter_mut().zip(&basis[j]) {
            *wi -= alpha * qi;
        }
        if j > 0 {
            let beta_prev = betas[j - 1];
            for (wi, qi) in w.iter_mut().zip(&basis[j - 1]) {
                *wi -= beta_prev * qi;
            }
        }
        for qv in &basis {
            let proj = dot(&w, qv);
            if proj.abs() > 0.0 {
                for (wi, qi) in w.iter_mut().zip(qv) {
                    *wi -= proj * qi;
                }
            }
        }
        let beta = norm(&w);
        if beta < 1e-12 || j + 1 == m {
            break;
        }
        betas.push(beta);
        basis.push(w.iter().map(|x| x / beta).collect());
    }

    // Eigen-decompose the tridiagonal projection T = tridiag(β, α, β).
    let t_dim = alphas.len();
    betas.push(0.0);
    let mut yt = Matrix::identity(t_dim);
    tridiagonal_ql(&mut alphas, &mut betas, &mut yt)?;
    let ritz = descending(&alphas, &yt).top_by_magnitude(k);

    // Map the kept Ritz vectors back: V = Q Y, one row-major update
    // V[r, :] += Q_b[r] · Y[b, :] per basis vector, in basis order.
    let kept = ritz.values.len();
    let mut vectors = Matrix::zeros(n, kept);
    for (b, qv) in basis.iter().enumerate().take(t_dim) {
        let y = ritz.vectors.row(b);
        for (r, &qr) in qv.iter().enumerate() {
            for (v, &coef) in vectors.row_mut(r).iter_mut().zip(y) {
                *v += qr * coef;
            }
        }
    }
    Ok(EigenPairs { values: ritz.values, vectors })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual(a: &Snapshot, lambda: f64, v: &[f64]) -> f64 {
        let mut av = vec![0.0; v.len()];
        sparse::matvec_into(a, v, &mut av);
        av.iter().zip(v).map(|(x, y)| (x - lambda * y).powi(2)).sum::<f64>().sqrt()
    }

    #[test]
    fn lanczos_matches_jacobi_on_path_graph() {
        // Path graph P5 adjacency: eigenvalues 2cos(kπ/6).
        let a = Snapshot::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let lz = lanczos_top_k(&a, 2, 20, 42).expect("finite input");
        // P5 is bipartite, so the spectrum is symmetric: the two largest-
        // magnitude eigenvalues are ±√3 and may come back in either order.
        let expect0 = 2.0 * (std::f64::consts::PI / 6.0).cos();
        assert!((lz.values[0].abs() - expect0).abs() < 1e-8, "got {}", lz.values[0]);
        assert!((lz.values[1].abs() - expect0).abs() < 1e-8);
        assert!((lz.values[0] + lz.values[1]).abs() < 1e-8, "should be a ± pair");
    }

    #[test]
    fn lanczos_eigenpairs_have_small_residuals() {
        // A denser test graph: two triangles joined by a bridge.
        let edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)];
        let a = Snapshot::from_edges(6, &edges);
        let lz = lanczos_top_k(&a, 3, 30, 7).expect("finite input");
        for i in 0..3 {
            let col: Vec<f64> = (0..6).map(|r| lz.vectors[(r, i)]).collect();
            assert!(residual(&a, lz.values[i], &col) < 1e-7, "residual too large for pair {i}");
        }
    }

    #[test]
    fn lanczos_star_graph_spectrum() {
        // Star K1,4: eigenvalues ±2 and zeros.
        let a = Snapshot::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let lz = lanczos_top_k(&a, 2, 20, 1).expect("finite input");
        assert!((lz.values[0] - 2.0).abs() < 1e-9);
        assert!((lz.values[1] + 2.0).abs() < 1e-9);
    }

    #[test]
    fn lanczos_deterministic_for_fixed_seed() {
        let a = Snapshot::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let e1 = lanczos_top_k(&a, 2, 15, 99).expect("finite input");
        let e2 = lanczos_top_k(&a, 2, 15, 99).expect("finite input");
        assert_eq!(e1.values, e2.values);
        assert!(e1.vectors.max_abs_diff(&e2.vectors) == 0.0);
    }

    #[test]
    fn lanczos_clamps_k_to_n() {
        let a = Snapshot::from_edges(3, &[(0, 1), (1, 2)]);
        let e = lanczos_top_k(&a, 10, 10, 3).expect("finite input");
        assert!(e.values.len() <= 3);
    }

    #[test]
    fn tridiagonal_ql_rejects_a_non_finite_entry() {
        // The guard Lanczos's projection and the dense path share: a NaN
        // or infinity on the diagonal or the off-diagonal fails before any
        // rotation.
        for (at_diag, bad) in [(true, f64::NAN), (false, f64::NAN), (false, f64::INFINITY)] {
            let (mut d, mut e) = (vec![1.0, 2.0, 3.0], vec![0.5, 0.5, 0.0]);
            if at_diag {
                d[1] = bad;
            } else {
                e[0] = bad;
            }
            let mut vt = Matrix::identity(3);
            assert_eq!(tridiagonal_ql(&mut d, &mut e, &mut vt), Err(EigenError::NonFinite));
            assert_eq!(vt, Matrix::identity(3), "no rotation before the guard");
        }
    }

    #[test]
    fn tridiagonal_ql_certifies_an_unreduced_160() {
        // An unreduced tridiagonal of Lanczos's size: every off-diagonal
        // is nonzero. With V orthonormal, Vᵀ T V = Λ + Vᵀ R, so small
        // residuals R = TV − VΛ certify Λ as T's spectrum (Weyl).
        let n = 160;
        let alpha: Vec<f64> = (0..n).map(|i| ((i * 37 % 101) as f64 - 50.0) / 7.0).collect();
        let beta: Vec<f64> = (0..n - 1).map(|i| 0.5 + (i * 13 % 17) as f64 / 4.0).collect();
        let (mut d, mut e) = (alpha.clone(), beta.clone());
        e.push(0.0);
        let mut vt = Matrix::identity(n);
        tridiagonal_ql(&mut d, &mut e, &mut vt).expect("converges");
        let norm_t = alpha.iter().chain(&beta).chain(&beta).map(|x| x * x).sum::<f64>().sqrt();
        for (p, &lambda) in d.iter().enumerate() {
            let v = vt.row(p);
            let mut r2 = 0.0;
            for i in 0..n {
                let mut tv = alpha[i] * v[i];
                if i > 0 {
                    tv += beta[i - 1] * v[i - 1];
                }
                if i + 1 < n {
                    tv += beta[i] * v[i + 1];
                }
                r2 += (tv - lambda * v[i]).powi(2);
            }
            assert!(r2.sqrt() <= 1e-12 * norm_t, "pair {p}: residual {}", r2.sqrt());
        }
        let gram = vt.matmul(&vt.transpose());
        assert!(gram.max_abs_diff(&Matrix::identity(n)) < 1e-12);
        // Trace is preserved by the similarity.
        let trace: f64 = alpha.iter().sum();
        assert!((d.iter().sum::<f64>() - trace).abs() < 1e-10 * norm_t);
    }
}
