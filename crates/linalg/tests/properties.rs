//! Property tests for the linear-algebra kernel: solver correctness on
//! random systems, QR reconstruction, sparse/dense agreement,
//! and the dense symmetric eigensolver against the Jacobi oracle.

#[path = "oracle/jacobi.rs"]
mod jacobi;

use jacobi::jacobi_eigen;
use osn_graph::snapshot::Snapshot;
use osn_graph::{canonical, NodeId};
use osn_linalg::dense::Matrix;
use osn_linalg::lanczos::{lanczos_top_k, symmetric_eigen, EigenError, EigenPairs};
use osn_linalg::sparse;
use proptest::prelude::*;

/// A `rows × cols` matrix from row-major `data`.
fn from_vec(rows: usize, cols: usize, data: &[f64]) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    m.data_mut().copy_from_slice(data);
    m
}

/// A matrix from nested row slices of equal length.
fn from_rows(rows: &[&[f64]]) -> Matrix {
    let data = rows.concat();
    from_vec(rows.len(), data.len() / rows.len(), &data)
}

/// `a · v`.
fn matvec(a: &Matrix, v: &[f64]) -> Vec<f64> {
    (0..a.rows()).map(|i| a.row(i).iter().zip(v).map(|(x, y)| x * y).sum()).collect()
}

/// `sqrt(Σ a_ij²)`.
fn frobenius_norm(a: &Matrix) -> f64 {
    a.data().iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// A random square matrix with bounded entries.
fn arb_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-5.0f64..5.0, n * n).prop_map(move |data| from_vec(n, n, &data))
}

/// A random symmetric matrix of size 1 to 12.
fn arb_symmetric() -> impl Strategy<Value = Matrix> {
    (1usize..=12).prop_flat_map(arb_matrix).prop_map(|a| {
        let t = a.transpose();
        let mut s = &a + &t;
        s.scale_mut(0.5);
        s
    })
}

/// Worst residual `max_i ‖A vᵢ − λᵢ vᵢ‖₂` and orthogonality error
/// `max |VᵀV − I|` of `e` as eigenpairs of `a`.
fn pair_errors(a: &Matrix, e: &EigenPairs) -> (f64, f64) {
    let n = a.rows();
    let mut worst = 0.0f64;
    for (i, &lambda) in e.values.iter().enumerate() {
        let v: Vec<f64> = (0..n).map(|r| e.vectors[(r, i)]).collect();
        let av = matvec(a, &v);
        let r2: f64 = av.iter().zip(&v).map(|(x, y)| (x - lambda * y).powi(2)).sum();
        worst = worst.max(r2.sqrt());
    }
    let k = e.values.len();
    let ortho = e.vectors.transpose().matmul(&e.vectors).max_abs_diff(&Matrix::identity(k));
    (worst, ortho)
}

/// The dense adjacency of an undirected edge list on `n` nodes.
fn adjacency(n: usize, edges: &[(NodeId, NodeId)]) -> Matrix {
    sparse::to_dense(&Snapshot::from_edges(n, edges))
}

/// The snapshot of a random edge list on `n` nodes, with self-loops and
/// repeated pairs filtered out (a snapshot holds neither); `None` when
/// no edge is left.
fn simple_snapshot(n: usize, edges: &[(NodeId, NodeId)]) -> Option<Snapshot> {
    let mut simple: Vec<(NodeId, NodeId)> =
        edges.iter().filter(|(a, b)| a != b).map(|&(a, b)| canonical(a, b)).collect();
    simple.sort_unstable();
    simple.dedup();
    (!simple.is_empty()).then(|| Snapshot::from_edges(n, &simple))
}

/// Asserts `e` holds `want` (descending) with small residuals and an
/// orthonormal basis, including inside repeated eigenvalues.
fn assert_spectrum(a: &Matrix, e: &EigenPairs, want: &[f64]) {
    assert_eq!(e.values.len(), want.len());
    for (got, want) in e.values.iter().zip(want) {
        assert!((got - want).abs() < 1e-12, "eigenvalue {got} vs {want}");
    }
    let (residual, ortho) = pair_errors(a, e);
    assert!(residual < 1e-12, "residual {residual}");
    assert!(ortho < 1e-12, "orthogonality {ortho}");
}

/// A random diagonally dominant matrix (always invertible).
fn arb_dd_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    arb_matrix(n).prop_map(move |mut m| {
        for i in 0..n {
            let row_sum: f64 = (0..n).map(|j| m[(i, j)].abs()).sum();
            m[(i, i)] = row_sum + 1.0;
        }
        m
    })
}

proptest! {
    #[test]
    fn lu_solve_recovers_solution(a in arb_dd_matrix(5), x in proptest::collection::vec(-3.0f64..3.0, 5)) {
        let b = matvec(&a, &x);
        let got = a.solve_many(&[b]).expect("diagonally dominant ⇒ invertible").remove(0);
        for i in 0..5 {
            prop_assert!((got[i] - x[i]).abs() < 1e-8, "component {i}: {} vs {}", got[i], x[i]);
        }
    }

    #[test]
    fn solve_many_consistent_with_single(a in arb_dd_matrix(4),
                                         x1 in proptest::collection::vec(-3.0f64..3.0, 4),
                                         x2 in proptest::collection::vec(-3.0f64..3.0, 4)) {
        let b1 = matvec(&a, &x1);
        let b2 = matvec(&a, &x2);
        let many = a.solve_many(&[b1.clone(), b2.clone()]).expect("invertible");
        let s1 = a.solve_many(&[b1]).unwrap().remove(0);
        let s2 = a.solve_many(&[b2]).unwrap().remove(0);
        for i in 0..4 {
            prop_assert!((many[0][i] - s1[i]).abs() < 1e-10);
            prop_assert!((many[1][i] - s2[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn qr_reconstructs(a in arb_matrix(4)) {
        let (q, r) = a.qr();
        prop_assert!(q.matmul(&r).max_abs_diff(&a) < 1e-8);
        let qtq = q.transpose().matmul(&q);
        prop_assert!(qtq.max_abs_diff(&Matrix::identity(4)) < 1e-8);
    }

    #[test]
    fn jacobi_eigen_reconstructs_symmetric(sym in arb_symmetric()) {
        // The oracle reconstructs A = V Λ Vᵀ ...
        let n = sym.rows();
        let oracle = jacobi_eigen(&sym);
        let mut lam = Matrix::zeros(n, n);
        for i in 0..n {
            lam[(i, i)] = oracle.values[i];
        }
        let rec = oracle.vectors.matmul(&lam).matmul(&oracle.vectors.transpose());
        prop_assert!(rec.max_abs_diff(&sym) < 1e-7);
        // ... and Householder + QL agrees with it. Both are backward
        // stable, so each eigenvalue is within a small multiple of n·ε·‖A‖
        // of the exact one; the same scale bounds the residuals, and the
        // basis is orthonormal to a multiple of n·ε.
        let e = symmetric_eigen(&sym).expect("finite input");
        let scale = n as f64 * f64::EPSILON;
        let norm_a = frobenius_norm(&sym).max(f64::MIN_POSITIVE);
        for (got, want) in e.values.iter().zip(&oracle.values) {
            prop_assert!((got - want).abs() <= 8.0 * scale * norm_a, "eigenvalue {} vs {}", got, want);
        }
        let (residual, ortho) = pair_errors(&sym, &e);
        prop_assert!(residual <= 8.0 * scale * norm_a, "residual {}", residual);
        prop_assert!(ortho <= 8.0 * scale, "orthogonality {}", ortho);
        // Eigenvalues sorted descending.
        for w in e.values.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn sparse_matvec_matches_dense(
        edges in proptest::collection::vec((0u32..8, 0u32..8), 1..20),
        x in proptest::collection::vec(-2.0f64..2.0, 8),
    ) {
        let a = simple_snapshot(8, &edges);
        prop_assume!(a.is_some());
        let a = a.unwrap();
        let mut product = vec![0.0; 8];
        sparse::matvec_into(&a, &x, &mut product);
        let dense = matvec(&sparse::to_dense(&a), &x);
        for i in 0..8 {
            prop_assert!((product[i] - dense[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn lanczos_top_eigenvalue_dominates_rayleigh(
        edges in proptest::collection::vec((0u32..10, 0u32..10), 3..25),
    ) {
        let a = simple_snapshot(10, &edges);
        prop_assume!(a.is_some());
        let a = a.unwrap();
        let e = lanczos_top_k(&a, 1, 40, 3).expect("finite input");
        let top = e.values[0].abs();
        // The top |eigenvalue| bounds any Rayleigh quotient; test with a
        // couple of probe vectors.
        for seed in 0..3u64 {
            let probe: Vec<f64> = (0..10).map(|i| ((i as u64 * 2654435761 + seed) % 97) as f64 / 97.0 - 0.5).collect();
            let norm2: f64 = probe.iter().map(|v| v * v).sum();
            prop_assume!(norm2 > 1e-9);
            let mut av = vec![0.0; 10];
            sparse::matvec_into(&a, &probe, &mut av);
            let rq: f64 = probe.iter().zip(&av).map(|(p, q)| p * q).sum::<f64>() / norm2;
            prop_assert!(rq.abs() <= top + 1e-6, "Rayleigh {rq} exceeds top |λ| {top}");
        }
    }
}

#[test]
fn jacobi_diagonal_matrix() {
    let a = from_rows(&[&[3.0, 0.0], &[0.0, 1.0]]);
    let e = jacobi_eigen(&a);
    assert!((e.values[0] - 3.0).abs() < 1e-12);
    assert!((e.values[1] - 1.0).abs() < 1e-12);
}

#[test]
fn jacobi_known_2x2() {
    // [[2,1],[1,2]] has eigenvalues 3 and 1.
    let a = from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
    let e = jacobi_eigen(&a);
    assert!((e.values[0] - 3.0).abs() < 1e-10);
    assert!((e.values[1] - 1.0).abs() < 1e-10);
    // Eigenvector of 3 is (1,1)/√2 up to sign.
    let v0 = (e.vectors[(0, 0)], e.vectors[(1, 0)]);
    assert!((v0.0.abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-10);
    assert!((v0.0 - v0.1).abs() < 1e-10);
}

#[test]
fn jacobi_reconstructs_matrix() {
    let a = from_rows(&[&[4.0, 1.0, -2.0], &[1.0, 2.0, 0.0], &[-2.0, 0.0, 3.0]]);
    let e = jacobi_eigen(&a);
    // A = V Λ Vᵀ
    let mut lam = Matrix::zeros(3, 3);
    for i in 0..3 {
        lam[(i, i)] = e.values[i];
    }
    let rec = e.vectors.matmul(&lam).matmul(&e.vectors.transpose());
    assert!(rec.max_abs_diff(&a) < 1e-9);
}

#[test]
fn symmetric_eigen_empty_and_one_by_one() {
    let empty = symmetric_eigen(&Matrix::zeros(0, 0)).expect("finite input");
    assert!(empty.values.is_empty());
    assert_eq!((empty.vectors.rows(), empty.vectors.cols()), (0, 0));
    let one = symmetric_eigen(&from_rows(&[&[-2.5]])).expect("finite input");
    assert_eq!(one.values, vec![-2.5]);
    assert_eq!(one.vectors.data().iter().map(|x| x.abs()).collect::<Vec<_>>(), vec![1.0]);
}

#[test]
fn symmetric_eigen_repeated_eigenvalues() {
    // Star K1,4: ±2 and a triple 0.
    let star = adjacency(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
    assert_spectrum(&star, &symmetric_eigen(&star).unwrap(), &[2.0, 0.0, 0.0, 0.0, -2.0]);
    // K3,3: ±3 and a quadruple 0.
    let mut k33 = Vec::new();
    for u in 0..3 {
        for v in 3..6 {
            k33.push((u, v));
        }
    }
    let k33 = adjacency(6, &k33);
    assert_spectrum(&k33, &symmetric_eigen(&k33).unwrap(), &[3.0, 0.0, 0.0, 0.0, 0.0, -3.0]);
    // Two disjoint triangles: a double 2 and a quadruple −1.
    let triangles = adjacency(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
    let want = [2.0, 2.0, -1.0, -1.0, -1.0, -1.0];
    assert_spectrum(&triangles, &symmetric_eigen(&triangles).unwrap(), &want);
}

#[test]
fn symmetric_eigen_wilkinson_w21_pairs() {
    // Wilkinson's W21+: diagonal |10 − i|, unit off-diagonal. Its top
    // eigenvalues come in pairs that agree to about 1e-14, so each pair's
    // vectors are fixed only by orthogonality.
    let n = 21;
    let mut w = Matrix::zeros(n, n);
    for i in 0..n {
        w[(i, i)] = (10.0 - i as f64).abs();
        if i + 1 < n {
            w[(i, i + 1)] = 1.0;
            w[(i + 1, i)] = 1.0;
        }
    }
    let e = symmetric_eigen(&w).expect("finite input");
    let oracle = jacobi_eigen(&w);
    let bound = 8.0 * n as f64 * f64::EPSILON * frobenius_norm(&w);
    for (got, want) in e.values.iter().zip(&oracle.values) {
        assert!((got - want).abs() <= bound, "eigenvalue {got} vs {want}");
    }
    assert!((e.values[0] - 10.746_194_182_903_4).abs() < 1e-12);
    assert!((e.values[0] - e.values[1]).abs() < 1e-12, "top pair near-equal");
    let (residual, ortho) = pair_errors(&w, &e);
    assert!(residual <= bound, "residual {residual}");
    assert!(ortho <= 8.0 * n as f64 * f64::EPSILON, "orthogonality {ortho}");
}

#[test]
fn symmetric_eigen_rejects_a_nan_entry() {
    let mut a = Matrix::identity(3);
    a[(2, 1)] = f64::NAN;
    a[(1, 2)] = f64::NAN;
    assert_eq!(symmetric_eigen(&a).unwrap_err(), EigenError::NonFinite);
}
