//! Katz references: Katz-sc from per-landmark columns, and the dense
//! truncated Katz series.

use osn_graph::snapshot::Snapshot;
use osn_graph::NodeId;
use osn_linalg::{sparse, Matrix};
use osn_metrics::katz::KatzSc;

/// Katz-sc's scores from [`landmark_columns`]: the engine's landmark pick
/// and mixing stage ([`KatzSc::factors_from_columns`]) on columns built
/// one SpMV per term per landmark, scored by the engine's low-rank scorer.
/// The columns are bit-identical to the engine's batched SpMM build, so
/// the scores are too.
pub fn katz_sc(sc: &KatzSc, snap: &Snapshot, pairs: &[(NodeId, NodeId)]) -> Vec<f64> {
    sc.factors_from_columns(snap, |lm| landmark_columns(sc, snap, lm)).scores_t(pairs, 1)
}

/// Truncated Katz columns `C[:, j] = Σ_{i=1..T} βⁱ Aⁱ e_{lm[j]}` for the
/// adjacency `A` of `snap`, one SpMV per series term per landmark: the
/// original loop the batched [`KatzSc::landmark_columns`] replaced.
pub fn landmark_columns(sc: &KatzSc, snap: &Snapshot, lm: &[NodeId]) -> Matrix {
    let n = snap.node_count();
    let l = lm.len();
    let mut c = Matrix::zeros(n, l);
    let mut col = vec![0.0; n];
    let mut next = vec![0.0; n];
    for (j, &src) in lm.iter().enumerate() {
        col.iter_mut().for_each(|x| *x = 0.0);
        col[src as usize] = 1.0;
        let mut weight = 1.0;
        let mut acc = vec![0.0; n];
        for _ in 0..sc.series_terms {
            sparse::matvec_into(snap, &col, &mut next);
            std::mem::swap(&mut col, &mut next);
            weight *= sc.beta;
            for (av, &cv) in acc.iter_mut().zip(col.iter()) {
                *av += weight * cv;
            }
        }
        for (i, &v) in acc.iter().enumerate() {
            c[(i, j)] = v;
        }
    }
    c
}

/// Exact truncated Katz `Σ_{l=1..terms} βˡ Aˡ` as a dense matrix (toy
/// graphs only).
pub fn exact_katz_truncated(snap: &Snapshot, beta: f64, terms: usize) -> Matrix {
    let n = snap.node_count();
    let a = sparse::to_dense(snap);
    let mut power = Matrix::identity(n);
    let mut acc = Matrix::zeros(n, n);
    let mut weight = 1.0;
    for _ in 0..terms {
        power = power.matmul(&a);
        weight *= beta;
        let term = &power * weight;
        acc = &acc + &term;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_truncated_reference_matches_hand_count() {
        // Path 0-1-2: K_2[0][2] = β²·(# 2-walks) = β².
        let s = Snapshot::from_edges(3, &[(0, 1), (1, 2)]);
        let k = exact_katz_truncated(&s, 0.1, 2);
        assert!((k[(0, 2)] - 0.01).abs() < 1e-12);
        assert!((k[(0, 1)] - 0.1).abs() < 1e-12);
    }
}
