//! Compressed-sparse-row matrices.
//!
//! The adjacency matrix of every snapshot a metric touches is represented in
//! CSR form: `row_ptr` delimits, per row, a slice of `(col_idx, value)`
//! pairs sorted by column. That gives O(nnz) products and O(log deg)
//! membership tests, which is all the random-walk and factorization metrics
//! need.

use crate::dense::Matrix;

/// Why a raw CSR triple was rejected by [`SparseMatrix::from_csr`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CsrError {
    /// `row_ptr` must have exactly `rows + 1` entries.
    RowPtrLength {
        /// Entries found.
        got: usize,
        /// Entries required (`rows + 1`).
        want: usize,
    },
    /// `row_ptr` must start at 0, end at `nnz`, and never decrease.
    RowPtrNotMonotonic {
        /// First row whose span is malformed.
        row: usize,
    },
    /// `col_idx` and `values` must have the same length (`row_ptr[rows]`).
    ArrayLength {
        /// `col_idx` length found.
        col_idx: usize,
        /// `values` length found.
        values: usize,
        /// Length required.
        want: usize,
    },
    /// Column indices within a row must be strictly increasing (sorted,
    /// no duplicates) and in bounds.
    ColumnOrder {
        /// Row containing the offending entry.
        row: usize,
        /// Offending column index.
        col: u32,
    },
}

impl std::fmt::Display for CsrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsrError::RowPtrLength { got, want } => {
                write!(f, "row_ptr has {got} entries, expected {want}")
            }
            CsrError::RowPtrNotMonotonic { row } => {
                write!(f, "row_ptr is not monotonic at row {row}")
            }
            CsrError::ArrayLength { col_idx, values, want } => write!(
                f,
                "col_idx/values have {col_idx}/{values} entries, expected {want} (row_ptr[rows])"
            ),
            CsrError::ColumnOrder { row, col } => {
                write!(f, "row {row}: column {col} out of order, duplicated, or out of bounds")
            }
        }
    }
}

/// Below this many rows [`SparseMatrix::spmm_into_t`] stays serial:
/// spawning workers costs more than the whole sweep.
const PAR_ROW_THRESHOLD: usize = 256;

/// A CSR (compressed sparse row) `f64` matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct SparseMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl SparseMatrix {
    /// Builds a CSR matrix directly from its raw parts, validating the
    /// invariants [`from_triplets`](Self::from_triplets) would have
    /// established: `row_ptr` monotonic with `rows + 1` entries, parallel
    /// `col_idx`/`values` arrays, and strictly increasing in-bounds columns
    /// within every row. O(nnz), no sort — the fast path for callers that
    /// already hold a CSR graph (snapshot adjacency views).
    pub fn from_csr(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Result<Self, CsrError> {
        if row_ptr.len() != rows + 1 {
            return Err(CsrError::RowPtrLength { got: row_ptr.len(), want: rows + 1 });
        }
        if row_ptr[0] != 0 {
            return Err(CsrError::RowPtrNotMonotonic { row: 0 });
        }
        for r in 0..rows {
            if row_ptr[r + 1] < row_ptr[r] {
                return Err(CsrError::RowPtrNotMonotonic { row: r });
            }
        }
        let nnz = row_ptr[rows];
        if col_idx.len() != nnz || values.len() != nnz {
            return Err(CsrError::ArrayLength {
                col_idx: col_idx.len(),
                values: values.len(),
                want: nnz,
            });
        }
        for r in 0..rows {
            let span = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            for (i, &c) in span.iter().enumerate() {
                let ordered = i == 0 || span[i - 1] < c;
                if !ordered || c as usize >= cols {
                    return Err(CsrError::ColumnOrder { row: r, col: c });
                }
            }
        }
        Ok(SparseMatrix { rows, cols, row_ptr, col_idx, values })
    }
    /// Builds a CSR matrix from triplets `(row, col, value)`.
    ///
    /// Duplicate `(row, col)` entries are summed. Triplets may arrive in any
    /// order.
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        for &(r, c, _) in triplets {
            assert!(r < rows && c < cols, "triplet ({r},{c}) out of bounds");
        }
        let mut sorted: Vec<(usize, usize, f64)> = triplets.to_vec();
        sorted.sort_unstable_by_key(|&(r, c, _)| (r, c));

        let mut row_ptr = vec![0usize; rows + 1];
        let mut col_idx: Vec<u32> = Vec::with_capacity(sorted.len());
        let mut values: Vec<f64> = Vec::with_capacity(sorted.len());
        let mut last: Option<(usize, usize)> = None;
        for (r, c, v) in sorted {
            if last == Some((r, c)) {
                // linklens-allow(unwrap-in-lib): last == Some(..) proves a prior entry was pushed
                *values.last_mut().expect("duplicate implies prior entry") += v;
            } else {
                // linklens-allow(truncating-cast): column indices are bounded by the checked matrix dimension
                col_idx.push(c as u32);
                values.push(v);
                row_ptr[r + 1] += 1; // per-row count, prefix-summed below
                last = Some((r, c));
            }
        }
        for r in 0..rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        SparseMatrix { rows, cols, row_ptr, col_idx, values }
    }

    /// Builds a symmetric 0/1 adjacency matrix from undirected edges over
    /// `n` nodes. Each undirected edge `(u, v)` contributes entries at both
    /// `(u, v)` and `(v, u)`; self-loops contribute a single diagonal entry.
    pub fn adjacency(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut triplets = Vec::with_capacity(edges.len() * 2);
        for &(u, v) in edges {
            triplets.push((u as usize, v as usize, 1.0));
            if u != v {
                triplets.push((v as usize, u as usize, 1.0));
            }
        }
        Self::from_triplets(n, n, &triplets)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (structurally non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The `(columns, values)` slices of row `i`.
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let span = self.row_ptr[i]..self.row_ptr[i + 1];
        (&self.col_idx[span.clone()], &self.values[span])
    }

    /// Looks up entry `(i, j)` (binary search within the row).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (cols, vals) = self.row(i);
        // linklens-allow(truncating-cast): j indexes a dimension already bounded by u32 column ids
        match cols.binary_search(&(j as u32)) {
            Ok(pos) => vals[pos],
            Err(_) => 0.0,
        }
    }

    /// Sparse matrix × dense vector: `y = self * x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch");
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// Like [`matvec`](Self::matvec) but reuses the output buffer.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols);
        assert_eq!(y.len(), self.rows);
        for (i, yi) in y.iter_mut().enumerate() {
            let (cols, vals) = self.row(i);
            let mut acc = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                acc += v * x[c as usize];
            }
            *yi = acc;
        }
    }

    /// Sparse × dense multi-RHS product `y = self * x` into a preallocated
    /// row-major block: `B` right-hand sides (the columns of `x`) advance
    /// in a single CSR sweep, turning `B` strided matvecs into one pass
    /// with unit-stride access to both `x` and `y` rows.
    ///
    /// Per output column the accumulation order is exactly the
    /// ascending-column fold of [`matvec_into`](Self::matvec_into) on that
    /// column alone, so extracting column `b` of `y` is bit-identical to a
    /// serial matvec against column `b` of `x` — the property the batched
    /// metric solvers' equivalence tests pin.
    pub fn spmm_into(&self, x: &Matrix, y: &mut Matrix) {
        assert_eq!(x.rows(), self.cols, "dimension mismatch");
        assert_eq!(y.rows(), self.rows, "output row mismatch");
        assert_eq!(y.cols(), x.cols(), "output column mismatch");
        for i in 0..self.rows {
            self.spmm_row(x, y.row_mut(i), i);
        }
    }

    /// One output row of [`spmm_into`](Self::spmm_into): `out = Σ_c
    /// values[i,c] · x[c, :]`.
    #[inline]
    fn spmm_row(&self, x: &Matrix, out: &mut [f64], i: usize) {
        out.fill(0.0);
        let (cols, vals) = self.row(i);
        for (&c, &v) in cols.iter().zip(vals) {
            let xrow = x.row(c as usize);
            for (o, &xv) in out.iter_mut().zip(xrow) {
                *o += v * xv;
            }
        }
    }

    /// [`spmm_into`](Self::spmm_into) with row-range parallelism over the
    /// shared worker pool. Output rows are disjoint across blocks and each
    /// row's fold is unchanged, so the result is bit-identical to the
    /// serial path for every `threads` value.
    pub fn spmm_into_t(&self, x: &Matrix, y: &mut Matrix, threads: usize) {
        assert_eq!(x.rows(), self.cols, "dimension mismatch");
        assert_eq!(y.rows(), self.rows, "output row mismatch");
        assert_eq!(y.cols(), x.cols(), "output column mismatch");
        if threads <= 1 || self.rows < PAR_ROW_THRESHOLD {
            self.spmm_into(x, y);
            return;
        }
        let width = x.cols();
        let blocks = osn_graph::par::block_ranges(self.rows, threads * 4);
        let parts = osn_graph::par::run_indexed(blocks.len(), threads, |b| {
            let range = blocks[b].clone();
            let mut out = vec![0.0; range.len() * width];
            for (k, i) in range.enumerate() {
                self.spmm_row(x, &mut out[k * width..(k + 1) * width], i);
            }
            out
        });
        let mut at = 0;
        for part in parts {
            y.data_mut()[at..at + part.len()].copy_from_slice(&part);
            at += part.len();
        }
    }

    /// Sparse × dense product `self * d` returning a dense matrix.
    pub fn matmul_dense(&self, d: &Matrix) -> Matrix {
        assert_eq!(self.cols, d.rows(), "dimension mismatch");
        let mut out = Matrix::zeros(self.rows, d.cols());
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                let drow = d.row(c as usize);
                let orow = out.row_mut(i);
                for (o, &dv) in orow.iter_mut().zip(drow) {
                    *o += v * dv;
                }
            }
        }
        out
    }

    /// Converts to a dense matrix (tests / tiny problems only).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                m[(i, c as usize)] += v;
            }
        }
        m
    }

    /// True when the matrix equals its transpose (structure and values).
    pub fn is_symmetric(&self) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                if (self.get(c as usize, i) - v).abs() > 1e-12 {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triplets_build_and_lookup() {
        let m = SparseMatrix::from_triplets(3, 3, &[(0, 1, 2.0), (2, 0, 5.0), (1, 1, -1.0)]);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 1), -1.0);
        assert_eq!(m.get(2, 0), 5.0);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn duplicate_triplets_sum() {
        let m = SparseMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.5)]);
        assert_eq!(m.get(0, 0), 3.5);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn unsorted_triplets_sort_correctly() {
        let m = SparseMatrix::from_triplets(2, 3, &[(1, 2, 1.0), (0, 1, 2.0), (1, 0, 3.0)]);
        let (cols, vals) = m.row(1);
        assert_eq!(cols, &[0, 2]);
        assert_eq!(vals, &[3.0, 1.0]);
        assert_eq!(m.row(0).0, &[1]);
    }

    #[test]
    fn empty_rows_have_empty_slices() {
        let m = SparseMatrix::from_triplets(4, 4, &[(3, 3, 1.0)]);
        assert!(m.row(0).0.is_empty());
        assert!(m.row(1).0.is_empty());
        assert!(m.row(2).0.is_empty());
        assert_eq!(m.row(3).0, &[3]);
    }

    #[test]
    fn adjacency_is_symmetric() {
        let a = SparseMatrix::adjacency(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        assert!(a.is_symmetric());
        assert_eq!(a.nnz(), 8);
        assert_eq!(a.get(3, 0), 1.0);
    }

    #[test]
    fn matvec_matches_dense() {
        let a = SparseMatrix::adjacency(3, &[(0, 1), (1, 2)]);
        let x = [1.0, 2.0, 3.0];
        let sparse = a.matvec(&x);
        let dense = a.to_dense().matvec(&x);
        assert_eq!(sparse, dense);
    }

    #[test]
    fn matmul_dense_matches_dense_matmul() {
        let a = SparseMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)]);
        let d = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[2.0, 2.0]]);
        let got = a.matmul_dense(&d);
        let expect = a.to_dense().matmul(&d);
        assert!(got.max_abs_diff(&expect) < 1e-12);
    }

    /// Ring + chords fixture large enough to cross `PAR_ROW_THRESHOLD`.
    fn big_fixture() -> SparseMatrix {
        let n = 400u32;
        let mut edges = Vec::new();
        for i in 0..n {
            edges.push((i, (i + 1) % n));
            if i % 3 == 0 {
                edges.push((i, (i + 7) % n));
            }
        }
        SparseMatrix::adjacency(n as usize, &edges)
    }

    #[test]
    fn from_csr_roundtrips_triplets() {
        let a = big_fixture();
        let mut row_ptr = vec![0usize];
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for i in 0..a.rows() {
            let (cols, vals) = a.row(i);
            col_idx.extend_from_slice(cols);
            values.extend_from_slice(vals);
            row_ptr.push(col_idx.len());
        }
        let b = SparseMatrix::from_csr(a.rows(), a.cols(), row_ptr, col_idx, values)
            .expect("valid CSR");
        assert_eq!(a, b);
    }

    #[test]
    fn from_csr_rejects_malformed_parts() {
        let err = SparseMatrix::from_csr(2, 2, vec![0, 1], vec![0], vec![1.0]).unwrap_err();
        assert!(matches!(err, CsrError::RowPtrLength { got: 2, want: 3 }));
        let err =
            SparseMatrix::from_csr(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0; 2]).unwrap_err();
        assert!(matches!(err, CsrError::RowPtrNotMonotonic { row: 1 }));
        let err = SparseMatrix::from_csr(1, 2, vec![0, 2], vec![0], vec![1.0; 2]).unwrap_err();
        assert!(matches!(err, CsrError::ArrayLength { col_idx: 1, values: 2, want: 2 }));
        let err = SparseMatrix::from_csr(1, 2, vec![0, 2], vec![1, 0], vec![1.0; 2]).unwrap_err();
        assert!(matches!(err, CsrError::ColumnOrder { row: 0, col: 0 }));
        let err = SparseMatrix::from_csr(1, 2, vec![0, 1], vec![5], vec![1.0]).unwrap_err();
        assert!(matches!(err, CsrError::ColumnOrder { row: 0, col: 5 }));
        assert!(!format!("{err}").is_empty());
    }

    #[test]
    fn spmm_columns_match_independent_matvecs() {
        let a = big_fixture();
        let width = 5;
        let mut x = Matrix::zeros(a.cols(), width);
        for i in 0..a.cols() {
            for b in 0..width {
                x[(i, b)] = ((i * 7 + b * 13) as f64 * 0.11).cos();
            }
        }
        let mut y = Matrix::zeros(a.rows(), width);
        a.spmm_into(&x, &mut y);
        for b in 0..width {
            let col: Vec<f64> = (0..a.cols()).map(|i| x[(i, b)]).collect();
            let want = a.matvec(&col);
            for i in 0..a.rows() {
                assert_eq!(y[(i, b)], want[i], "row {i} col {b}");
            }
        }
        for threads in [2, 4, 8] {
            let mut yp = Matrix::zeros(a.rows(), width);
            a.spmm_into_t(&x, &mut yp, threads);
            assert_eq!(yp.data(), y.data(), "threads={threads}");
        }
    }

    #[test]
    fn self_loop_single_entry() {
        let a = SparseMatrix::adjacency(2, &[(0, 0), (0, 1)]);
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(a.get(0, 1), 1.0);
        assert_eq!(a.get(1, 0), 1.0);
        assert_eq!(a.nnz(), 3);
    }
}
