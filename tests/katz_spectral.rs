//! Katz-lr's eigensolvers on renren-like snapshots of the sizes the §4
//! sweep scores: the dense Householder + QL path (256 nodes or fewer)
//! against the cyclic Jacobi oracle, and Lanczos with fewer steps than
//! nodes against the dense spectrum.

#[path = "../crates/linalg/tests/oracle/jacobi.rs"]
mod jacobi;

use jacobi::jacobi_eigen;
use linklens::linalg::lanczos::{lanczos_top_k, symmetric_eigen, EigenPairs};
use linklens::linalg::{sparse, Matrix};
use linklens::prelude::*;

/// `a · v`.
fn matvec(a: &Matrix, v: &[f64]) -> Vec<f64> {
    (0..a.rows()).map(|i| a.row(i).iter().zip(v).map(|(x, y)| x * y).sum()).collect()
}

/// `‖A vᵢ − λᵢ vᵢ‖₂` for every pair of `e`.
fn residuals(a: &Matrix, e: &EigenPairs) -> Vec<f64> {
    let n = a.rows();
    (0..e.values.len())
        .map(|i| {
            let v: Vec<f64> = (0..n).map(|r| e.vectors[(r, i)]).collect();
            let av = matvec(a, &v);
            av.iter().zip(&v).map(|(x, y)| (x - e.values[i] * y).powi(2)).sum::<f64>().sqrt()
        })
        .collect()
}

/// Katz-lr's spectral factor, with its pole clamp.
fn katz_factor(beta: f64, lambda: f64) -> f64 {
    1.0 / (1.0 - beta * lambda).max(0.05) - 1.0
}

/// The bound `B` on `‖K̂ − K_r‖₂` for one full decomposition `e` of `a`
/// (see the test below).
fn katz_error_bound(a: &Matrix, e: &EigenPairs, rank: usize, beta: f64) -> f64 {
    let mut mags: Vec<f64> = e.values.iter().map(|l| l.abs()).collect();
    mags.sort_by(|x, y| y.total_cmp(x));
    let gap = mags[rank - 1] - mags[rank];
    let res = residuals(a, e);
    let rho_all = res.iter().map(|r| r * r).sum::<f64>().sqrt();
    let kept = e.top_by_magnitude(rank);
    let rho = residuals(a, &kept).iter().map(|r| r * r).sum::<f64>().sqrt();
    let n = a.rows();
    let gram = e.vectors.transpose().matmul(&e.vectors);
    let omega = (gram.max_abs_diff(&Matrix::identity(n)) * n as f64).max(f64::EPSILON);
    let norm_a = a.data().iter().map(|x| x * x).sum::<f64>().sqrt();
    let eps_lambda = rho_all + 2.0 * omega * norm_a;
    assert!(eps_lambda < gap / 2.0, "rank cut not resolved: ε_λ {eps_lambda} vs gap {gap}");
    let lambda_max = kept.values.iter().fold(0.0f64, |m, l| m.max(*l)) + eps_lambda;
    assert!(beta * lambda_max < 0.95, "pole clamp must not bind");
    let lipschitz = beta / (1.0 - beta * lambda_max).powi(2);
    let f_max = kept.values.iter().map(|&l| katz_factor(beta, l).abs()).fold(0.0, f64::max);
    let eta = rho / (gap - eps_lambda);
    lipschitz * rho * (1.0 + omega) + f_max * (omega + 2.0 * eta * (1.0 + omega) + 2.0 * eta * eta)
}

#[test]
fn katz_lr_dense_path_matches_a_jacobi_built_katz_lr() {
    // Why the bound holds. Let A = Σ λⱼ uⱼuⱼᵀ exactly, S the r = 48
    // indices of largest |λⱼ|, and K_r = Σ_{j∈S} f(λⱼ) uⱼuⱼᵀ with
    // f(λ) = 1/(1 − βλ) − 1. A full solver output (λ̂, V) has residuals
    // R = AV − VΛ̂ (Frobenius norm ρ_all; ρ over the kept r columns) and
    // orthogonality error ω ≥ ‖VᵀV − I‖₂ (n times the largest entry).
    //
    // 1. Eigenvalues. With V = W P (W orthogonal, ‖P − I‖ ≤ ω),
    //    WᵀAW = Λ̂ + O(ρ_all + 2ω‖A‖), so by Weyl each λ̂ of a given rank
    //    lies within ε_λ = ρ_all + 2ω‖A‖_F of the exact one of that rank.
    // 2. The cut. If the computed magnitude gap γ between the 48th and
    //    49th |λ̂| exceeds 2ε_λ, the kept computed pairs approximate
    //    exactly the pairs of S, and every kept λ̂ᵢ is at least
    //    δ = γ − ε_λ away from every exact λⱼ with j ∉ S.
    // 3. Scores. Write the kept vectors as Û = UC. Then
    //    ΛC − CΛ̂ = UᵀR_S =: F, so Cⱼᵢ(λⱼ − λ̂ᵢ) = Fⱼᵢ and the rows of C
    //    outside S have Frobenius norm η ≤ ρ/δ. Split K̂ − K_r =
    //    U(C f(Λ̂) Cᵀ − f(Λ_S))Uᵀ into blocks:
    //    * S×S: f(Λ_S)(C_S C_Sᵀ − I) + G C_Sᵀ with
    //      Gⱼᵢ = Cⱼᵢ(f(λ̂ᵢ) − f(λⱼ)), |Gⱼᵢ| ≤ L|Fⱼᵢ| for the Lipschitz
    //      constant L = β/(1 − βλ_max)² of f, and
    //      ‖C_S C_Sᵀ − I‖ ≤ ω + η²: at most L ρ (1 + ω) + f_max (ω + η²);
    //    * S×N and N×S: at most f_max η (1 + ω) each;
    //    * N×N: at most f_max η².
    //    So ‖K̂ − K_r‖₂ ≤ B = L ρ (1 + ω) + f_max (ω + 2η(1 + ω) + 2η²),
    //    with f_max the largest kept |f(λ̂)|. The clamp does not bind
    //    (asserted), so f is smooth on the kept spectrum.
    //
    // Every score is an entry of K̂, so the two solvers' scores differ by
    // at most B_QL + B_Jacobi. Clusters of near-equal eigenvalues inside S
    // do not weaken the bound: a small |λⱼ − λ̂ᵢ| is paid for by the
    // small |f(λ̂ᵢ) − f(λⱼ)| in G.
    let lr = KatzLr::default();
    let trace = TraceConfig::renren_like().scaled(0.03).with_days(30).generate(1);
    let seq = SnapshotSequence::with_count(&trace, 6);
    for i in [2, 5] {
        let snap = seq.snapshot(i);
        let n = snap.node_count();
        assert!(n > lr.rank && n <= 256, "snapshot {i} has {n} nodes: not the dense path");
        let a = sparse::to_dense(&snap);
        let dense = symmetric_eigen(&a).expect("finite adjacency");
        let oracle = jacobi_eigen(&a);
        let bound = katz_error_bound(&a, &dense, lr.rank, lr.beta)
            + katz_error_bound(&a, &oracle, lr.rank, lr.beta);

        let kept = oracle.top_by_magnitude(lr.rank);
        let factors: Vec<f64> = kept.values.iter().map(|&l| katz_factor(lr.beta, l)).collect();
        let mut pairs = Vec::new();
        for u in 0..n as NodeId {
            for v in u + 1..n as NodeId {
                pairs.push((u, v));
            }
        }
        let got = linklens::metrics::exec::score_pairs_t(&lr, &snap, &pairs, 1);
        let mut worst = 0.0f64;
        for (&(u, v), got) in pairs.iter().zip(&got) {
            let want: f64 = (0..kept.values.len())
                .map(|k| factors[k] * kept.vectors[(u as usize, k)] * kept.vectors[(v as usize, k)])
                .sum();
            worst = worst.max((got - want).abs());
        }
        assert!(worst <= bound, "snapshot {i}: worst score difference {worst:e} > bound {bound:e}");
    }
}

#[test]
fn lanczos_converges_rank_48_with_fewer_steps_than_nodes() {
    // Katz-lr runs Lanczos above 256 nodes with 160 steps, so at the
    // sweep's sizes the Krylov space is smaller than the graph.
    let lr = KatzLr::default();
    let trace = TraceConfig::renren_like().scaled(0.12).with_days(60).generate(42);
    let seq = SnapshotSequence::with_count(&trace, 12);
    for (i, nodes) in [(3, 346), (5, 448)] {
        let snap = seq.snapshot(i);
        assert_eq!(snap.node_count(), nodes);
        let ritz = lanczos_top_k(&snap, lr.rank, lr.max_iter, lr.seed).expect("finite adjacency");
        assert_eq!(ritz.values.len(), lr.rank);
        let dense = sparse::to_dense(&snap);
        for (k, r) in residuals(&dense, &ritz).into_iter().enumerate() {
            assert!(r <= 1e-5, "snapshot {i}: Ritz pair {k} has residual {r:e}");
        }
        let exact = symmetric_eigen(&dense).expect("finite adjacency").top_by_magnitude(lr.rank);
        for (k, (got, want)) in ritz.values.iter().zip(&exact.values).enumerate() {
            assert!(
                (got.abs() - want.abs()).abs() <= 1e-9,
                "snapshot {i}: magnitude {k} is {got}, dense {want}"
            );
        }
    }
}
