//! Cyclic Jacobi: the dense symmetric eigensolver the tests hold
//! `osn_linalg::lanczos::symmetric_eigen` and Katz-lr to. It is slow
//! (O(n³) per sweep, several sweeps) but simple enough to trust: every
//! rotation is an exact orthogonal similarity, and it stops only when the
//! off-diagonal Frobenius norm is below 1e-12. Test targets include this
//! one file with `#[path]`.

use osn_linalg::lanczos::EigenPairs;
use osn_linalg::Matrix;

/// All eigenpairs of the symmetric `a`, by descending eigenvalue.
///
/// # Panics
/// Panics if `a` is not square.
pub fn jacobi_eigen(a: &Matrix) -> EigenPairs {
    assert_eq!(a.rows(), a.cols(), "jacobi_eigen requires a square matrix");
    let n = a.rows();
    let mut m = a.clone();
    let mut v = Matrix::identity(n);

    for _sweep in 0..100 {
        // Off-diagonal Frobenius norm; stop when negligible.
        let mut off = 0.0;
        for i in 0..n {
            for j in i + 1..n {
                off += m[(i, j)] * m[(i, j)];
            }
        }
        if off.sqrt() < 1e-12 {
            break;
        }
        for p in 0..n {
            for q in p + 1..n {
                let apq = m[(p, q)];
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Apply the rotation G(p,q,θ) on both sides: M ← GᵀMG.
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| m[(j, j)].total_cmp(&m[(i, i)]));
    let values: Vec<f64> = order.iter().map(|&i| m[(i, i)]).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (new_col, &old_col) in order.iter().enumerate() {
        for r in 0..n {
            vectors[(r, new_col)] = v[(r, old_col)];
        }
    }
    EigenPairs { values, vectors }
}
