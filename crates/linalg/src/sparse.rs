//! Products with a snapshot's adjacency matrix.
//!
//! A [`Snapshot`] stores its undirected adjacency `A` as a sorted CSR: row
//! `u` holds `u`'s neighbours in ascending order, and every stored entry
//! is 1. These kernels read that CSR in place, so no metric builds a
//! second copy of `A`. Each output row folds its neighbours' entries from
//! `0.0` in ascending neighbour order, the order the equivalence tests
//! pin.

use crate::dense::Matrix;
use osn_graph::snapshot::Snapshot;
use osn_graph::NodeId;

/// Below this many rows [`spmm_into_t`] stays serial: spawning workers
/// costs more than the whole sweep.
const PAR_ROW_THRESHOLD: usize = 256;

/// `y = A·x` for the adjacency `A` of `snap`.
///
/// # Panics
/// Panics unless `x` and `y` both have one entry per node.
pub fn matvec_into(snap: &Snapshot, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), snap.node_count(), "dimension mismatch");
    assert_eq!(y.len(), snap.node_count(), "output dimension mismatch");
    for (i, yi) in y.iter_mut().enumerate() {
        let mut acc = 0.0;
        for &c in snap.neighbors(i as NodeId) {
            acc += x[c as usize];
        }
        *yi = acc;
    }
}

/// Multi-RHS product `y = A·x` into a preallocated row-major block, with
/// row-range parallelism over the shared worker pool: the `B` columns of
/// `x` advance in one sweep of the CSR, with unit-stride access to both
/// `x` and `y` rows.
///
/// Per output column the fold is exactly [`matvec_into`]'s on that column
/// alone, and output rows are disjoint across blocks, so column `b` of `y`
/// is bit-identical to a serial matvec against column `b` of `x` for every
/// `threads` value — the property the batched metric solvers'
/// equivalence tests pin.
///
/// # Panics
/// Panics unless `x` and `y` have one row per node and equal widths.
pub fn spmm_into_t(snap: &Snapshot, x: &Matrix, y: &mut Matrix, threads: usize) {
    let n = snap.node_count();
    assert_eq!(x.rows(), n, "dimension mismatch");
    assert_eq!(y.rows(), n, "output row mismatch");
    assert_eq!(y.cols(), x.cols(), "output column mismatch");
    if threads <= 1 || n < PAR_ROW_THRESHOLD {
        for i in 0..n {
            spmm_row(snap, x, y.row_mut(i), i);
        }
        return;
    }
    let width = x.cols();
    let blocks = osn_graph::par::block_ranges(n, threads * 4);
    let parts = osn_graph::par::run_indexed(blocks.len(), threads, |b| {
        let range = blocks[b].clone();
        let mut out = vec![0.0; range.len() * width];
        for (k, i) in range.enumerate() {
            spmm_row(snap, x, &mut out[k * width..(k + 1) * width], i);
        }
        out
    });
    let mut at = 0;
    for part in parts {
        y.data_mut()[at..at + part.len()].copy_from_slice(&part);
        at += part.len();
    }
}

/// One output row of [`spmm_into_t`]: `out = Σ_{c∈Γ(i)} x[c, :]`.
#[inline]
fn spmm_row(snap: &Snapshot, x: &Matrix, out: &mut [f64], i: usize) {
    out.fill(0.0);
    for &c in snap.neighbors(i as NodeId) {
        for (o, &xv) in out.iter_mut().zip(x.row(c as usize)) {
            *o += xv;
        }
    }
}

/// The adjacency of `snap` as a dense `n × n` 0/1 matrix (small graphs
/// and tests only).
pub fn to_dense(snap: &Snapshot) -> Matrix {
    let n = snap.node_count();
    let mut m = Matrix::zeros(n, n);
    for i in 0..n {
        for &c in snap.neighbors(i as NodeId) {
            m[(i, c as usize)] = 1.0;
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjacency_is_symmetric() {
        let snap = Snapshot::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let a = to_dense(&snap);
        assert_eq!(a, a.transpose());
        assert_eq!(a.data().iter().sum::<f64>(), 8.0);
        assert_eq!(a[(3, 0)], 1.0);
        assert_eq!(a[(0, 2)], 0.0);
    }

    #[test]
    fn matvec_matches_dense() {
        let snap = Snapshot::from_edges(3, &[(0, 1), (1, 2)]);
        let x = [1.0, 2.0, 3.0];
        let mut sparse = vec![0.0; 3];
        matvec_into(&snap, &x, &mut sparse);
        let dense = to_dense(&snap);
        let want: Vec<f64> =
            (0..3).map(|i| dense.row(i).iter().zip(&x).map(|(a, b)| a * b).sum()).collect();
        assert_eq!(sparse, want);
    }

    /// Ring + chords fixture large enough to cross `PAR_ROW_THRESHOLD`.
    fn big_fixture() -> Snapshot {
        let n = 400u32;
        let mut edges = Vec::new();
        for i in 0..n {
            edges.push((i, (i + 1) % n));
            if i % 3 == 0 {
                edges.push((i, (i + 7) % n));
            }
        }
        Snapshot::from_edges(n as usize, &edges)
    }

    #[test]
    fn spmm_columns_match_independent_matvecs() {
        let snap = big_fixture();
        let (n, width) = (snap.node_count(), 5);
        let mut x = Matrix::zeros(n, width);
        for i in 0..n {
            for b in 0..width {
                x[(i, b)] = ((i * 7 + b * 13) as f64 * 0.11).cos();
            }
        }
        let mut y = Matrix::zeros(n, width);
        spmm_into_t(&snap, &x, &mut y, 1);
        let mut want = vec![0.0; n];
        for b in 0..width {
            let col: Vec<f64> = (0..n).map(|i| x[(i, b)]).collect();
            matvec_into(&snap, &col, &mut want);
            for i in 0..n {
                assert_eq!(y[(i, b)], want[i], "row {i} col {b}");
            }
        }
        for threads in [2, 4, 8] {
            let mut yp = Matrix::zeros(n, width);
            spmm_into_t(&snap, &x, &mut yp, threads);
            assert_eq!(yp.data(), y.data(), "threads={threads}");
        }
    }
}
