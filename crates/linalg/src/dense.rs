//! Row-major dense matrices and the direct solvers used by the
//! factorization metrics (RESCAL's ALS steps, small normal-equation solves).

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense row-major `f64` matrix.
///
/// The type is intentionally plain: storage is a `Vec<f64>` of length
/// `rows * cols`, and element `(i, j)` lives at `data[i * cols + j]`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:>10.4} ", self[(i, j)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "..." } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of the underlying row-major storage.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying row-major storage.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i` as a slice.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    ///
    /// Uses an ikj loop order so the inner loop streams over contiguous rows
    /// of both the output and `rhs`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "inner dimensions must agree");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let rrow = rhs.row(k);
                let orow = out.row_mut(i);
                for (o, &r) in orow.iter_mut().zip(rrow.iter()) {
                    *o += a * r;
                }
            }
        }
        out
    }

    /// Scales every entry by `s` in place.
    pub fn scale_mut(&mut self, s: f64) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Maximum absolute entry-wise difference to `other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max)
    }

    /// `selfᵀ * self` — the Gram matrix, computed without forming the
    /// transpose.
    pub fn gram(&self) -> Matrix {
        let mut g = Matrix::zeros(self.cols, self.cols);
        for i in 0..self.rows {
            let row = self.row(i);
            for a in 0..self.cols {
                let ra = row[a];
                if ra == 0.0 {
                    continue;
                }
                let grow = g.row_mut(a);
                for (b, &rb) in row.iter().enumerate() {
                    grow[b] += ra * rb;
                }
            }
        }
        g
    }

    /// Solves `self * X = B` for several right-hand sides sharing one LU
    /// factorization. Each element of `bs` is one right-hand-side vector.
    pub fn solve_many(&self, bs: &[Vec<f64>]) -> Option<Vec<Vec<f64>>> {
        let lu = self.lu_factor()?;
        let n = self.rows;
        let mut out = Vec::with_capacity(bs.len());
        for b in bs {
            let mut y = vec![0.0; n];
            lu.solve_into(b, &mut y);
            out.push(y);
        }
        Some(out)
    }

    /// LU factorization with partial pivoting, reusable across many
    /// right-hand sides. [`Matrix::solve_many`] is built on this; holding
    /// the factors directly lets independent solves be sharded across
    /// threads ([`LuFactors::solve_into`] is a pure function of the
    /// factors and one right-hand side, so any partition of the solves
    /// reproduces the serial arithmetic bit for bit).
    ///
    /// Returns `None` when the matrix is (numerically) singular.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn lu_factor(&self) -> Option<LuFactors> {
        assert_eq!(self.rows, self.cols, "solve requires a square matrix");
        let n = self.rows;
        let mut lu = self.clone();
        let mut perm: Vec<usize> = (0..n).collect();

        for k in 0..n {
            // Partial pivoting: find the largest entry in column k.
            let mut pivot_row = k;
            let mut pivot_val = lu[(k, k)].abs();
            for i in k + 1..n {
                let v = lu[(i, k)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = i;
                }
            }
            if pivot_val < 1e-300 {
                return None; // singular
            }
            if pivot_row != k {
                perm.swap(k, pivot_row);
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(pivot_row, j)];
                    lu[(pivot_row, j)] = tmp;
                }
            }
            let pivot = lu[(k, k)];
            for i in k + 1..n {
                let f = lu[(i, k)] / pivot;
                lu[(i, k)] = f;
                for j in k + 1..n {
                    let v = lu[(k, j)];
                    lu[(i, j)] -= f * v;
                }
            }
        }
        Some(LuFactors { lu, perm })
    }

    /// Householder QR factorization: returns `(Q, R)` with `self = Q R`,
    /// `Q` orthonormal (`rows × rows`) and `R` upper-triangular
    /// (`rows × cols`). Intended for small matrices.
    pub fn qr(&self) -> (Matrix, Matrix) {
        let m = self.rows;
        let n = self.cols;
        let mut r = self.clone();
        let mut q = Matrix::identity(m);

        for k in 0..n.min(m.saturating_sub(1)) {
            // Householder vector for column k.
            let mut norm = 0.0;
            for i in k..m {
                norm += r[(i, k)] * r[(i, k)];
            }
            let norm = norm.sqrt();
            if norm < 1e-300 {
                continue;
            }
            let alpha = if r[(k, k)] >= 0.0 { -norm } else { norm };
            let mut v = vec![0.0; m];
            v[k] = r[(k, k)] - alpha;
            for i in k + 1..m {
                v[i] = r[(i, k)];
            }
            let vnorm2: f64 = v.iter().map(|x| x * x).sum();
            if vnorm2 < 1e-300 {
                continue;
            }
            // Apply H = I - 2 v vᵀ / (vᵀv) to R (left) and accumulate into Q.
            for j in 0..n {
                let dot: f64 = (k..m).map(|i| v[i] * r[(i, j)]).sum();
                let f = 2.0 * dot / vnorm2;
                for i in k..m {
                    r[(i, j)] -= f * v[i];
                }
            }
            for j in 0..m {
                let dot: f64 = (k..m).map(|i| v[i] * q[(j, i)]).sum();
                let f = 2.0 * dot / vnorm2;
                for i in k..m {
                    q[(j, i)] -= f * v[i];
                }
            }
        }
        (q, r)
    }
}

/// A completed LU factorization with its pivot permutation — the output
/// of [`Matrix::lu_factor`]. Solving against the factors never mutates
/// them, so one factorization can back many concurrent solves.
#[derive(Clone, Debug)]
pub struct LuFactors {
    lu: Matrix,
    perm: Vec<usize>,
}

impl LuFactors {
    /// Solves `A x = b` for the factored `A`, writing the solution into
    /// `out`: permutation gather, then in-place forward and backward
    /// substitution — the exact per-right-hand-side arithmetic of
    /// [`Matrix::solve_many`].
    ///
    /// # Panics
    /// Panics if `b` or `out` do not match the factored dimension.
    pub fn solve_into(&self, b: &[f64], out: &mut [f64]) {
        let n = self.lu.rows();
        assert_eq!(b.len(), n, "rhs length mismatch");
        assert_eq!(out.len(), n, "output length mismatch");
        for (o, &p) in out.iter_mut().zip(&self.perm) {
            *o = b[p];
        }
        for i in 1..n {
            for j in 0..i {
                out[i] -= self.lu[(i, j)] * out[j];
            }
        }
        for i in (0..n).rev() {
            for j in i + 1..n {
                out[i] -= self.lu[(i, j)] * out[j];
            }
            out[i] /= self.lu[(i, i)];
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a - b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, s: f64) -> Matrix {
        let mut m = self.clone();
        m.scale_mut(s);
        m
    }
}

/// Dot product of two equal-length slices.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm of a slice.
pub fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A matrix from nested row slices of equal length.
    fn from_rows(rows: &[&[f64]]) -> Matrix {
        let data: Vec<f64> = rows.concat();
        Matrix { rows: rows.len(), cols: data.len() / rows.len().max(1), data }
    }

    /// The solution of `a x = b`, if `a` is nonsingular.
    fn solve(a: &Matrix, b: &[f64]) -> Option<Vec<f64>> {
        a.solve_many(&[b.to_vec()]).map(|mut xs| xs.remove(0))
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, from_rows(&[&[58.0, 64.0], &[139.0, 154.0]]));
    }

    #[test]
    fn transpose_round_trip() {
        let a = from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn gram_matches_explicit_transpose_product() {
        let a = from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let g = a.gram();
        let explicit = a.transpose().matmul(&a);
        assert!(g.max_abs_diff(&explicit) < 1e-12);
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]);
        // Solution of the classic system: x=2, y=3, z=-1.
        let x = solve(&a, &[8.0, -11.0, -3.0]).expect("nonsingular");
        assert!((x[0] - 2.0).abs() < 1e-10);
        assert!((x[1] - 3.0).abs() < 1e-10);
        assert!((x[2] + 1.0).abs() < 1e-10);
    }

    #[test]
    fn solve_rejects_singular() {
        let a = from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(solve(&a, &[1.0, 2.0]).is_none());
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the initial diagonal forces a row swap.
        let a = from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = solve(&a, &[3.0, 5.0]).unwrap();
        assert_eq!(x, vec![5.0, 3.0]);
    }

    #[test]
    fn lu_factor_solve_into_matches_solve_many_bitwise() {
        // The blocked row solves in the ALS core ride on this identity:
        // one shared factorization, per-row substitution identical to the
        // solve_many path.
        let a = from_rows(&[&[0.0, 3.0, 1.0], &[2.0, -1.0, 0.5], &[1.0, 4.0, -2.0]]);
        let bs: Vec<Vec<f64>> = (0..5)
            .map(|k| (0..3).map(|i| ((k * 3 + i) as f64).sin() * 2.0 + 0.1).collect())
            .collect();
        let expect = a.solve_many(&bs).expect("nonsingular");
        let lu = a.lu_factor().expect("nonsingular");
        for (b, e) in bs.iter().zip(&expect) {
            let mut out = vec![0.0; 3];
            lu.solve_into(b, &mut out);
            assert_eq!(&out, e, "solve_into diverged from solve_many");
        }
    }

    #[test]
    fn lu_factor_rejects_singular() {
        let a = from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(a.lu_factor().is_none());
    }

    #[test]
    fn qr_reconstructs_and_q_orthonormal() {
        let a = from_rows(&[&[12.0, -51.0, 4.0], &[6.0, 167.0, -68.0], &[-4.0, 24.0, -41.0]]);
        let (q, r) = a.qr();
        assert!(q.matmul(&r).max_abs_diff(&a) < 1e-9);
        let qtq = q.transpose().matmul(&q);
        assert!(qtq.max_abs_diff(&Matrix::identity(3)) < 1e-9);
        // R upper triangular.
        for i in 0..3 {
            for j in 0..i {
                assert!(r[(i, j)].abs() < 1e-9, "R not triangular at ({i},{j})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
